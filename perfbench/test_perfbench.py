"""Tests of the benchmark itself, on a tiny case (A1 q^4 gko, group_ring)."""

import json
import shutil
import subprocess
import sys

import pytest

import cases
import run

BENCH = json.loads((cases.ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads(cases.DIGESTS.read_text())


def _run(trace, digests=DIGESTS):
    return run.run_cases([cases.SMOKE], seed=0, seconds=0, trace=trace, digests=digests, label="test")


def _assert_metrics(result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_untraced_run_emits_every_end_to_end_metric():
    result = _run(trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    _assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = _run(trace=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    _assert_metrics(result, BENCH["per_layer"])
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["qseries.compared_short"] == 0
    assert m["qseries.coefficients_compared"] > 0
    assert m["characters.inv_d_calls"] > 0 and m["qseries.coeff_mul_calls"] > 0


def test_times_are_scaled_to_the_reference_host_speed():
    # A host running the probe at half the reference speed halves every time;
    # memory is not scaled.
    slow = {"probe_s": 2 * run.PROBE_REF_S, "elapsed_s": 4.0, "setup_s": 0.2, "rss_mb": 30.0}
    m = run.end_to_end([dict(slow, case="a"), dict(slow, case="b", elapsed_s=1.0)])
    assert m["wall_s"]["value"] == pytest.approx(2.5)
    assert m["case_geomean_s"]["value"] == pytest.approx(1.0)
    assert m["setup_s"]["value"] == pytest.approx(0.1)
    assert m["peak_rss_mb"]["value"] == 30.0


def test_corrupted_digest_fails_the_case():
    bad = dict(DIGESTS)
    bad[cases.SMOKE.id] = "0" * 64
    result = _run(trace=False, digests=bad)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)


def test_every_verifier_case_has_a_recorded_digest():
    for case in cases.ALL_CASES.values():
        if case.kind in ("gko", "kw"):
            assert len(DIGESTS[case.id]) == 64


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(cases.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(cases.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ring-full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
