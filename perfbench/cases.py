"""Benchmark cases, their correctness gate, and the per-case child process.

Each case runs in a fresh interpreter started by ``run.py``::

    python3 perfbench/cases.py --case <id> --seed <n> --digest <sha256> [--spans <path>]

The child imports ``liechar`` from ``src/`` of the checkout, builds the
case's inputs from the seed, optionally installs the tracer, times one call
through the public API, and then checks the output outside the timed
region.  While the call runs, a thread times a small fixed probe that uses
no liechar code (``HostProbe``), so the parent can scale the case's times
to a reference host speed.  It prints one JSON line:
``{"t_call": <monotonic clock at the call>, "elapsed_s": ..., "probe_s": ..., "rss_mb": ..., "error": null | "<why>"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Case:
    id: str
    kind: str  # "gko" | "kw" | "forms" | "hom" | "classify"
    type_label: str
    order: int = 0
    mode: str = ""


def _gko(t, n, mode):
    return Case(f"gko-{t}-q{n}-{mode}", "gko", t, n, mode)


def _kw(t, n, mode):
    return Case(f"kw-{t}-q{n}-{mode}", "kw", t, n, mode)


# Why each workload holds these cases is recorded in NOTES.md.
WORKLOADS = {
    "ring-full": [_gko("A2", 10, "group_ring"), _gko("A3", 5, "group_ring"), _gko("A4", 4, "group_ring")],
    "spec-dims": [_gko("D4", 4, "trivial"), _gko("A4", 5, "ray"), _gko("A3", 7, "trivial")],
    "orbit-kw": [_kw("D5", 2, "ray"), _kw("D6", 1, "ray")],
    "lie-lemmas": [
        Case("forms-takiff-C4", "forms", "C4"),
        Case("hom-alt2-adjoint-B3", "hom", "B3"),
        Case("classify-2-third-A3", "classify", "A3"),
    ],
}

# Tiny case for the benchmark's own tests; in no workload.
SMOKE = _gko("A1", 4, "group_ring")

ALL_CASES = {c.id: c for cs in WORKLOADS.values() for c in cs}
ALL_CASES[SMOKE.id] = SMOKE

# How often the probe thread samples the host's speed during a call.  A probe
# takes ~1.3 ms, well inside CPython's 5 ms thread switch interval, so it
# runs without losing the interpreter lock; it holds the lock for ~1.3 % of a call.
PROBE_INTERVAL_S = 0.1

# The lemma cases' known results (see the finite_lie tests and README).
LEMMA_EXPECTED = {"forms": 2, "hom": 1, "classify": "direct_sum_iso"}


def kappa_pair(liechar, rs, seed: int):
    """The two kappa samples of a gko case: one of the 15 pairs drawn from
    ``default_kappa_samples(rs, 6)``; seed 0 gives the library default pair."""
    samples = liechar.default_kappa_samples(rs, 6)
    i, j = list(itertools.combinations(range(6), 2))[seed % 15]
    return [samples[i], samples[j]]


def prepare(liechar, case: Case, seed: int):
    """Inputs of the timed call, built before the clock starts."""
    if case.kind == "gko":
        rs = liechar.build_root_system(case.type_label)
        return {"kappas": kappa_pair(liechar, rs, seed)}
    return {}


def call(liechar, case: Case, inputs):
    """The timed call, made through liechar's public names only."""
    if case.kind == "gko":
        return liechar.verify_gko(case.type_label, case.order, case.mode, kappas=inputs["kappas"])
    if case.kind == "kw":
        return liechar.verify_kw(case.type_label, case.order, case.mode)
    if case.kind == "forms":
        return liechar.invariant_forms(liechar.takiff(liechar.chevalley_structure(case.type_label)))
    if case.kind == "hom":
        return liechar.equivariant_hom_dim(
            "alt2_adjoint", "adjoint", liechar.chevalley_structure(case.type_label)
        )
    if case.kind == "classify":
        return liechar.classify_extension(2, Fraction(1, 3), liechar.chevalley_structure(case.type_label))
    raise ValueError(f"unknown case kind {case.kind!r}")


def rhs_digest(liechar, case: Case, inputs) -> str:
    """SHA-256 of the independently built right-hand side's canonical JSON."""
    rs = liechar.build_root_system(case.type_label)
    if case.kind == "gko":
        rhs = liechar.coset_rhs_character(rs, inputs["kappas"][0], case.order, case.mode)
    else:
        rhs = liechar.lattice_theta(liechar.make_context(rs, case.mode), case.order)
    return hashlib.sha256(rhs.canonical_str().encode()).hexdigest()


def check(liechar, case: Case, inputs, out, digest: str):
    """None when the output is right, else the reason it is not."""
    if case.kind in ("gko", "kw"):
        if out.status != "pass":
            return f"status {out.status}: {out.first_mismatch}"
        if out.order != case.order:
            return f"report order {out.order} != requested {case.order}"
        got = rhs_digest(liechar, case, inputs)
        if got != digest:
            return f"rhs digest {got} != recorded {digest}"
        return None
    if case.kind == "forms":
        got = out.dimension
    elif case.kind == "classify":
        got = out.kind
    else:
        got = out
    want = LEMMA_EXPECTED[case.kind]
    return None if got == want else f"result {got!r} != expected {want!r}"


def probe_work():
    """Sparse product of two 15-term Fraction polynomials: the dict and
    Fraction arithmetic liechar's own code is made of, without liechar."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(3)}
    prod = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            prod[k] = prod.get(k, 0) + c1 * c2
    return prod


class HostProbe:
    """Times ``probe_work`` every PROBE_INTERVAL_S on a thread, from entry to exit.

    The host's speed drifts (other tenants on shared cores), and the probe
    samples it on the core the call runs on, while it runs."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            t0 = time.perf_counter()
            probe_work()
            self.times.append(time.perf_counter() - t0)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def median_s(self) -> float:
        return statistics.median(self.times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", required=True, choices=sorted(ALL_CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--digest", default="")
    ap.add_argument("--spans", default="", help="write the traced call's spans here (JSON lines)")
    args = ap.parse_args(argv)

    import resource

    import liechar

    src = (ROOT / "src").resolve()
    if src not in Path(liechar.__file__).resolve().parents:
        print(json.dumps({"error": f"liechar imported from {liechar.__file__}, not {src}"}))
        return 1
    case = ALL_CASES[args.case]
    inputs = prepare(liechar, case, args.seed)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(case.id, case.order)
        tracer.install()
    t_call = time.monotonic()
    try:
        with HostProbe() as probe:
            t0 = time.perf_counter()
            out = call(liechar, case, inputs)
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # a raising case is a failed case, reported to the parent
        print(json.dumps({"t_call": t_call, "probe_s": probe.median_s(), "error": f"{type(exc).__name__}: {exc}"}))
        return 0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error = None
    if tracer is not None:
        tracer.write(args.spans)
        if tracer.counts["qseries.compared_short"]:
            error = "a comparison stopped below the requested order"
    error = error or check(liechar, case, inputs, out, args.digest)
    print(json.dumps({"t_call": t_call, "elapsed_s": elapsed, "probe_s": probe.median_s(),
                      "rss_mb": rss_mb, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
