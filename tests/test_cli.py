import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from liechar import chevalley_structure, classify_extension

CMD = [sys.executable, "-m", "liechar"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def test_verify_gko_pass_exit_zero():
    res = run_cli("verify-gko", "--type", "A1", "--order", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "verify-gko"
    assert payload["status"] == "pass"
    assert payload["reports"][0]["status"] == "pass"
    assert payload["reports"][0]["timing_ms"] == 0
    assert payload["elapsed_ms"] == 0


def test_verify_gko_non_ade_exit_two():
    res = run_cli("verify-gko", "--type", "B2", "--order", "2")
    assert res.returncode == 2
    assert "simply-laced" in res.stderr


def test_unknown_type_exit_two():
    res = run_cli("verify-kw", "--type", "H3", "--order", "1")
    assert res.returncode == 2


def test_bad_subcommand_exit_two():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_reports_byte_identical():
    a = run_cli("verify-gko", "--type", "A1", "--order", "3")
    b = run_cli("verify-gko", "--type", "A1", "--order", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_report_file_written(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify-kw", "--type", "A1", "--order", "3", "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "pass"
    assert payload["reports"][0]["identity"] == "kw"
    assert res.stdout.strip() == out.read_text().strip()


def test_levels_ff_dual_value():
    res = run_cli("levels", "--type", "A1", "--kappa", "0", "--op", "ff-dual")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["target"]["kappa"] == "-3/2"
    assert payload["reports"][0]["holds"] is True


def test_levels_negative_rational_kappa_with_equals():
    # argparse reads "-3/2" after a space as an option, so it is attached with "="
    res = run_cli("levels", "--type", "A1", "--kappa=-3/2", "--op", "kernel")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["target"]["kappa"] == "-3"
    assert payload["reports"][0]["holds"] is True


def test_levels_gluing():
    res = run_cli("levels", "--type", "A1", "--kappa", "-1", "--op", "gluing", "--n", "1")
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    kinds = [r["kind"] for r in payload["reports"]]
    assert kinds == ["gluing_first", "gluing_second"]
    assert all(r["holds"] for r in payload["reports"])


def test_weights_table():
    res = run_cli("weights", "--type", "D4", "--n", "1", "--max-norm", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    rows = payload["reports"]
    assert rows[0]["lambda"] == ["0", "0", "0", "0"] and rows[0]["h"] == "0"
    assert all(row["h"] == row["h_two_term"] for row in rows)
    nonzero = [row for row in rows if row["norm2"] != "0"]
    assert nonzero and all(not row["h"].startswith("-") and row["h"] != "0" for row in nonzero)


def test_takiff_forms_command():
    res = run_cli("takiff-forms", "--type", "A1")
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    assert payload["reports"][0]["form_space_dim"] == 1
    assert payload["reports"][1]["form_space_dim"] == 2
    assert payload["reports"][1]["gt_gt_block_zero"] is True


def test_hom_dim_command():
    res = run_cli("hom-dim", "--type", "A2", "--from", "alt2_adjoint", "--to", "adjoint")
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["dim"] == 1


def test_classify_ext_command():
    res = run_cli("classify-ext", "--alpha=-1/4", "--beta", "1")
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["kind"] == "takiff_iso"
    assert payload["reports"][0]["witnesses"] == [["-1/2", "1"]]


def test_classify_ext_command_split_irrational_branch():
    res = run_cli("classify-ext", "--alpha", "2", "--beta", "1/3", "--base", "A3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["reports"][0]["kind"] == "direct_sum_iso"
    expect = classify_extension(2, Fraction(1, 3), chevalley_structure("A3")).to_json()
    assert payload["reports"] == [expect]


def test_singular_command():
    res = run_cli("singular")
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    roots = {r["pair"]: r["root_set"] for r in payload["reports"]}
    assert roots["aa"] == {"variable": "kappa1", "roots": ["0", "1"]}
    assert roots["bb"] == {"variable": "kappa2", "roots": ["0", "1"]}
    assert roots["ab"] == {"product_of": ["kappa1", "kappa2"]}


def test_char_dump_level_one():
    res = run_cli("char", "--which", "level-one", "--type", "A2", "--order", "3",
                  "--spec", "trivial")
    payload = json.loads(res.stdout)
    series = payload["reports"][0]["series"]
    assert series[0] == {"exponent": "0", "terms": 1}
    assert series[1] == {"exponent": "1", "terms": 8}


def test_char_requires_known_builder():
    res = run_cli("char", "--which", "nonsense", "--type", "A1", "--order", "1")
    assert res.returncode == 2


def test_char_ray_at_rational_xi():
    res = run_cli("char", "--which", "finite", "--type", "A2", "--order", "0",
                  "--spec", "ray", "--xi", "1/2,1/3", "--lambda", "1,1")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert "seed" not in payload["config"]
    series = payload["reports"][0]
    assert series["context"] == {"coefficients": "ray", "type": "A2", "xi": ["1/2", "1/3"]}
    # the adjoint of A2 along xi = (1/2, 1/3): z-exponents (alpha, xi) of the six roots
    assert series["series"] == [{"exponent": "0", "terms": [
        {"coeff": 1, "zexp": "-5/6"}, {"coeff": 1, "zexp": "-1/2"},
        {"coeff": 1, "zexp": "-1/3"}, {"coeff": 2, "zexp": "0"},
        {"coeff": 1, "zexp": "1/3"}, {"coeff": 1, "zexp": "1/2"},
        {"coeff": 1, "zexp": "5/6"},
    ]}]


@pytest.mark.parametrize("which,lam,why", [
    ("theta", "1/2,0", "not integral"),
    ("denominator", "1,1,1", "wrong rank"),
])
def test_char_checks_lambda_for_every_builder(which, lam, why):
    # these builders take no weight, but a bad --lambda is still a usage error
    res = run_cli("char", "--which", which, "--type", "A2", "--order", "3", "--lambda", lam)
    assert res.returncode == 2
    assert why in res.stderr


def test_xi_of_wrong_rank_exit_two():
    res = run_cli("verify-kw", "--type", "D4", "--order", "2", "--spec", "ray", "--xi", "1,1")
    assert res.returncode == 2
    assert "wrong rank" in res.stderr


@pytest.mark.parametrize("spec", ["full", "trivial"])
@pytest.mark.parametrize("command", [
    ("verify-gko", "--order", "2"),
    ("verify-kw", "--order", "2"),
    ("char", "--which", "theta", "--order", "2"),
])
def test_xi_outside_ray_exit_two(command, spec):
    # a coweight means something only in ray; anywhere else it is refused, not dropped
    res = run_cli(*command, "--type", "A2", "--spec", spec, "--xi", "1,1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "xi applies to mode 'ray' only" in res.stderr


@pytest.mark.parametrize("command", ["verify-gko", "verify-kw"])
def test_verify_config_records_xi(command):
    # two ray runs along different coweights must not print the same report
    reports = {}
    for xi in ("1,2", "1,1"):
        res = run_cli(command, "--type", "A2", "--order", "2", "--spec", "ray", "--xi", xi)
        assert res.returncode == 0
        reports[xi] = res.stdout
        assert json.loads(res.stdout)["config"]["xi"] == xi.split(",")
    assert reports["1,2"] != reports["1,1"]
    res = run_cli(command, "--type", "A2", "--order", "2", "--spec", "ray")
    assert "xi" not in json.loads(res.stdout)["config"]


def test_fail_status_maps_to_exit_one():
    import time

    from liechar.cli import EXIT_MISMATCH, _finish

    code = _finish("probe", {}, [], "fail", None, time.perf_counter(), False)
    assert code == EXIT_MISMATCH == 1


def test_gko_custom_kappas_and_failure_exit():
    res = run_cli("verify-gko", "--type", "A1", "--order", "2",
                  "--kappa", "1/3", "--kappa", "9/2")
    assert res.returncode == 0
    # a kappa on the kernel pole is a usage error, not a mismatch
    res = run_cli("verify-gko", "--type", "A1", "--order", "2", "--kappa", "-1",
                  "--kappa", "3")
    assert res.returncode == 2
    # ... in the second position too, refused before the first side is built
    res = run_cli("verify-gko", "--type", "A4", "--order", "8", "--kappa", "-2",
                  "--kappa", "-4")
    assert res.returncode == 2
