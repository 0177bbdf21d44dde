"""Verdict benchmark for liechar: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload ring-full --seed 0 --seconds 25 --trace 0

A run is a closed loop with one caller: it executes the workload's cases in
order, each in a fresh interpreter (``cases.py``), starting the next case
when the previous one has returned.  It repeats that round, at least twice,
until about ``--seconds`` have passed, and reports per-case medians over the
rounds.
Reported times are scaled to a reference host speed, which a probe in the
case process measures while the call runs (``cases.HostProbe``).
With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones; without, it reports the end-to-end
metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Why the workloads hold the cases they do is in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import DIGESTS, ROOT, WORKLOADS
from tracer import LEAVES, SPANS, layer_totals

OUT = ROOT / ".perfbench_out"
# A run must end within 180 s: no round starts that would end past RUN_LIMIT,
# and no case may run past it.
RUN_LIMIT = 150.0

# The host's speed drifts by up to 1.8x over seconds to minutes (other
# tenants on shared cores), and that drift moves fresh-process case times by
# 15-20 % from run to run.  So a case's times are scaled by
# PROBE_REF_S / (the median time of cases.probe_work during its call):
# seconds at the host speed where the probe takes PROBE_REF_S, a fixed
# reference near its typical time (0.7-1.4 ms) on a 2-vCPU Xeon VM with
# CPython 3.11.7.
PROBE_REF_S = 0.0013

# Self-time metrics of the traced run, by span name.
TIMED_LAYERS = [*SPANS, *LEAVES]
CALLED_LAYERS = ["characters.finite_char", "characters.inv_d", "qseries.series_mul", "qseries.coeff_mul", "qseries.pochhammer"]
COUNTS = [
    "rootsys.orbit_signed_elems", "rootsys.inner_calls", "rootsys.orbit_elems",
    "qseries.coefficients_compared", "qseries.compared_short", "levels.summands", "linalg.rows_added",
]
PEAKS = ["qseries.peak_series_terms", "qseries.peak_coeff_terms"]


def run_case(case, seed, digest, deadline, spans=None):
    """Execute one case in a fresh interpreter; returns a dict with
    ``error`` (None when the case passed) and, when it returned,
    ``elapsed_s``, ``setup_s`` and ``rss_mb``."""
    cmd = [sys.executable, str(Path(__file__).with_name("cases.py")),
           "--case", case.id, "--seed", str(seed), "--digest", digest]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"case": case.id, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"case": case.id, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out["case"] = case.id
    if "t_call" in out:
        out["setup_s"] = out["t_call"] - t_spawn
    if proc.returncode != 0 and out.get("error") is None:
        out["error"] = f"exit {proc.returncode}"
    return out


def run_cases(cases, seed, seconds, trace, digests, label="run"):
    """Run rounds of ``cases`` for ``seconds``; returns the result object."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT
    trace_dir = OUT / f"{label}-seed{seed}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    runs = {False: [], True: []}
    span_files = []
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        t_round = time.monotonic()
        for case in cases:
            spans = None
            if traced:
                spans = trace_dir / f"r{rounds}-{case.id}.jsonl"
                span_files.append(spans)
            runs[traced].append(run_case(case, seed, digests.get(case.id, ""), deadline, spans))
        rounds += 1
        now = time.monotonic()
        # At least two rounds (a median of one sample is that sample), then
        # stop at the round boundary nearest to ``seconds``.
        done = rounds >= 2 and now - start + (now - t_round) / 2 >= seconds
        if done or now + (now - t_round) > deadline:
            break
    every = runs[False] + runs[True]
    failed = sum(1 for r in every if r.get("error") is not None)
    for r in every:
        if r.get("error") is not None:
            print(f"FAILED {r['case']}: {r['error']}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(runs, [p for p in span_files if p.exists()], rounds // 2)
        metrics["failed_ratio"] = {"value": failed / len(every), "unit": "ratio"}
    else:
        metrics = end_to_end(runs[False])
    return {"correct": failed == 0, "attempted": len(every), "failed": failed, "metrics": metrics}


def _per_case(runs, key, scaled=True):
    """Median of ``key`` over the rounds, per case, over executions that
    returned; scaled to the reference host speed unless ``scaled`` is false."""
    by_case = {}
    for r in runs:
        if key in r:
            scale = PROBE_REF_S / r["probe_s"] if scaled else 1.0
            by_case.setdefault(r["case"], []).append(r[key] * scale)
    return {c: statistics.median(v) for c, v in by_case.items()}


def end_to_end(runs):
    times = list(_per_case(runs, "elapsed_s").values()) or [0.0]
    setups = [r["setup_s"] * PROBE_REF_S / r["probe_s"] for r in runs if "setup_s" in r] or [0.0]
    rss = list(_per_case(runs, "rss_mb", scaled=False).values()) or [0.0]
    geomean = math.exp(statistics.fmean(map(math.log, times))) if min(times) > 0 else 0.0
    return {
        "wall_s": {"value": sum(times), "unit": "s"},
        "case_geomean_s": {"value": geomean, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MiB"},
    }


def layer_metrics(runs, span_files, traced_rounds):
    """Per-layer metrics: totals over the traced rounds divided by their number."""
    self_s, calls, counts, peaks = layer_totals(span_files)
    n = max(traced_rounds, 1)
    m = {f"{name}_s": {"value": self_s[name] / n, "unit": "s"} for name in TIMED_LAYERS}
    m.update({f"{name}_calls": {"value": calls[name] / n, "unit": "count"} for name in CALLED_LAYERS})
    m.update({name: {"value": counts[name] / n, "unit": "count"} for name in COUNTS})
    m.update({name: {"value": peaks[name], "unit": "count"} for name in PEAKS})
    fc = calls["characters.finite_char"]
    m["characters.finite_char_distinct_ratio"] = {
        "value": counts["characters.finite_char_distinct"] / fc if fc else 0.0, "unit": "ratio"}
    added = counts["linalg.rows_added"]
    m["linalg.rank_ratio"] = {"value": counts["linalg.rows_kept"] / added if added else 0.0, "unit": "ratio"}
    wall = {t: sum(_per_case(runs[t], "elapsed_s").values()) for t in (False, True)}
    m["trace.overhead_s"] = {"value": wall[True] - wall[False], "unit": "s"}
    m["host.raw_wall_s"] = {"value": sum(_per_case(runs[False], "elapsed_s", scaled=False).values()), "unit": "s"}
    probes = [r["probe_s"] for t in runs.values() for r in t if "probe_s" in r] or [0.0]
    m["host.probe_s"] = {"value": statistics.median(probes), "unit": "s"}
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the liechar verdict benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liechar" / "__init__.py").is_file():
        print(f"no liechar sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    result = run_cases(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), digests,
                       label=args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
