"""Every verifier case of the benchmark matrix passes, with the right-hand side
whose digest the benchmark recorded.

``perfbench/cases.py`` is loaded read-only, by path, for its workloads, its
inputs and its digest of the right-hand side, so a change that moves a byte
of a benchmark case's output fails here and not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import liechar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH / "cases.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


cases = _load_cases()
DIGESTS = json.loads(cases.DIGESTS.read_text())
VERIFIER_CASES = [c for cs in cases.WORKLOADS.values() for c in cs if c.kind in ("gko", "kw")]


def test_the_matrix_has_gko_and_kw_cases():
    assert {c.kind for c in VERIFIER_CASES} == {"gko", "kw"}


@pytest.mark.parametrize("case", VERIFIER_CASES, ids=lambda c: c.id)
def test_benchmark_case_passes_with_its_recorded_rhs(case):
    inputs = cases.prepare(liechar, case, 0)  # seed 0: the default kappa pair
    report = cases.call(liechar, case, inputs)
    assert report.status == "pass", report.first_mismatch
    assert report.order == case.order
    assert cases.rhs_digest(liechar, case, inputs) == DIGESTS[case.id]
