"""perfbench's tracer wraps each coefficient context's ``mul`` on its own class,
and finds the verifiers' lambda-summands, 1/D builds and orbit walks inside the
spans it reads.

Run in a subprocess: ``Tracer.install()`` rebinds names inside ``liechar``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from liechar import GroupRingContext, GroupRingElt, RayContext, TrivialContext
from tracer import Tracer

tracer = Tracer("compat", 0)
tracer.install()
rs = liechar.build_root_system("A2")
a = GroupRingElt({(1, 0): 2, (0, 1): -1})
counts = []
for ctx, x in [(GroupRingContext(rs), a), (TrivialContext(rs), 3), (RayContext(rs, rs.rho_check), None)]:
    x = ctx.project(a) if x is None else x
    ctx.mul(x, x)
    counts.append(sum(n for (_, name), (n, _) in tracer.leaves.items() if name == "qseries.coeff_mul"))
print(json.dumps(counts))
"""


SUMMANDS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from tracer import Tracer

def seen(tracer):
    names = {rec[0]: rec[1] for rec in tracer.spans}
    inv_d = sum(1 for rec in tracer.spans if rec[1] == "characters.inv_d")
    walks = sum(1 for rec in tracer.spans if rec[1] == "rootsys.dominant_weights"
                and names.get(rec[2]) == "levels.verify")
    return tracer.counts["levels.summands"], inv_d, walks

tracer = Tracer("summands", 2)
tracer.install()
out = {"n_lams": len(liechar.build_root_system("A2").dominant_weights_in_root_lattice(2))}
for name, verify in [("gko", liechar.verify_gko), ("kw", liechar.verify_kw)]:
    before = seen(tracer)
    verify("A2", 2)
    after = seen(tracer)
    out[name] = dict(zip(["summands", "inv_d_calls", "verify_q_plus_walks"],
                         [b - a for a, b in zip(before, after)]))
print(json.dumps(out))
"""


FINITE_CHAR_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from tracer import Tracer

def seen(tracer):
    finite = sum(1 for rec in tracer.spans if rec[1] == "characters.finite_char")
    inv_d = sum(1 for rec in tracer.spans if rec[1] == "characters.inv_d")
    return finite, inv_d

tracer = Tracer("finite_char", 2)
tracer.install()
out = {}
for mode in ["group_ring", "trivial", "ray"]:
    before = seen(tracer)
    assert liechar.verify_gko("A2", 2, mode).status == "pass"
    after = seen(tracer)
    out[mode] = dict(zip(["finite_char", "inv_d_calls"],
                         [b - a for a, b in zip(before, after)]))
before = seen(tracer)
assert liechar.verify_gko("A2", 2, "ray", xi=(1, 2)).status == "pass"
out["ray_off_rho_check"] = seen(tracer)[0] - before[0]
out["n_lams"] = len(liechar.build_root_system("A2").dominant_weights_in_root_lattice(2))
print(json.dumps(out))
"""


EULER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from tracer import Tracer

tracer = Tracer("euler", 2)
tracer.install()
out = {}
for mode in ["group_ring", "trivial", "ray"]:
    start = len(tracer.spans)
    assert liechar.verify_gko("A2", 2, mode).status == "pass"
    names = {rec[0]: rec[1] for rec in tracer.spans}
    parents = [names[rec[2]] for rec in tracer.spans[start:] if rec[1] == "qseries.series_mul"]
    out[mode] = {p: parents.count(p) for p in sorted(set(parents))}
print(json.dumps(out))
"""


KW_ORBIT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from tracer import Tracer

tracer = Tracer("kw_orbits", 3)
tracer.install()
assert liechar.verify_kw("A3", 3).status == "pass"
names = [rec[1] for rec in tracer.spans]
print(json.dumps({n: names.count(n) for n in ["levels.kw_lhs", "characters.finite_char", "rootsys.orbit"]}))
"""


SPECIALIZED_ORBIT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import liechar
from tracer import Tracer

tracer = Tracer("specialized_orbits", 3)
tracer.install()
out = {}
for mode in ["trivial", "ray"]:
    for name, verify in [("gko", liechar.verify_gko), ("kw", liechar.verify_kw)]:
        start = len(tracer.spans)
        assert verify("A3", 3, mode).status == "pass"
        names = [rec[1] for rec in tracer.spans[start:]]
        out[f"{name}-{mode}"] = {n: names.count(n) for n in ["characters.theta", "rootsys.orbit"]}
print(json.dumps(out))
"""


def test_every_traced_name_resolves():
    # every (module, attribute) the tracer wraps must exist in liechar, read
    # in-process and without install(), so that deleting a traced name fails
    # here with that name
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for ts in [*tracer.SPANS.values(), *tracer.LEAVES.values()] for t in ts]
    targets += list(tracer.COUNTED.values())
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"liechar.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"liechar.{module}.{attr}")
    assert len(targets) > 20
    assert missing == []


def _run_traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_tracer_counts_one_coefficient_product_per_context_mul():
    assert _run_traced(SCRIPT) == [1, 2, 3]


def test_tracer_counts_the_verifiers_lambda_summands():
    # the tracer counts the Q+ list under a levels.assemble or levels.kw_lhs
    # span: n in verify_kw, and 0 in verify_gko, which walks Q+ once, for its
    # one lead table, directly under levels.verify and calls no
    # assemble_coset_character.  The coset sides divide by (q;q)^rank D as one
    # Euler product, so 1/D is built once, for the RHS
    got = _run_traced(SUMMANDS_SCRIPT)
    n = got["n_lams"]
    assert n > 1
    assert got["gko"] == {"summands": 0, "inv_d_calls": 1, "verify_q_plus_walks": 1}
    assert got["kw"] == {"summands": n, "inv_d_calls": 0, "verify_q_plus_walks": 0}


def test_specialized_verifiers_build_no_freudenthal_character():
    # trivial takes ch L_lam from the Weyl dimension and ray at rho_check from
    # the principal specialization; group_ring runs Freudenthal's recursion
    # once per lambda, on dominant weights only, with no finite_char orbit
    # spread; one 1/D, for the RHS
    got = _run_traced(FINITE_CHAR_SCRIPT)
    assert got["group_ring"] == {"finite_char": 0, "inv_d_calls": 1}
    assert got["trivial"] == {"finite_char": 0, "inv_d_calls": 1}
    assert got["ray"] == {"finite_char": 0, "inv_d_calls": 1}
    # along any other xi the context projects finite_char itself, and the
    # tracer sees it: one character per lambda with lead <= 2
    assert got["n_lams"] > 1
    assert got["ray_off_rho_check"] == got["n_lams"]


def test_tracer_sees_the_euler_products_as_series_products():
    # euler_product multiplies by its cached Euler series with
    # GradedCharacter.mul, once for the e^0 factors and once for the rest: two
    # series products for the one coset side, which verify_gko builds under
    # its own span for both kappa samples, and two under 1/D; level_one_char
    # has the e^0 factors only, and the RHS multiplies 1/D by it
    got = _run_traced(EULER_SCRIPT)
    expect = {"characters.inv_d": 2, "characters.level_one": 1, "levels.verify": 2, "levels.rhs": 1}
    assert got == {"group_ring": expect, "trivial": expect, "ray": expect}


def test_group_ring_kw_walks_no_orbit():
    # make_context's group_ring is the W-invariant ring: ch L_lam is its
    # dominant multiplicities and Theta_Q one orbit sum per lambda, so a
    # passing verify_kw spreads no character and walks no orbit
    got = _run_traced(KW_ORBIT_SCRIPT)
    assert got == {"levels.kw_lhs": 1, "characters.finite_char": 0, "rootsys.orbit": 0}


def test_specialized_verifiers_walk_no_orbit():
    # trivial and ray count Theta_Q by the transfer over the Dynkin tree and
    # take ch L_lam in closed form, so a passing verifier walks no orbit
    got = _run_traced(SPECIALIZED_ORBIT_SCRIPT)
    expect = {"characters.theta": 1, "rootsys.orbit": 0}
    assert got == {f"{name}-{mode}": expect for mode in ["trivial", "ray"] for name in ["gko", "kw"]}
