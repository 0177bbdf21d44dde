"""perfbench's tracer wraps each coefficient context's ``mul`` on its own class,
and finds the verifiers' lambda-summands, 1/D builds and orbit walks inside the
spans it reads.

Run in a subprocess: ``Tracer.install()`` rebinds names inside ``liechar``.
"""

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
    inv_d = sum(1 for rec in tracer.spans if rec[1] == "characters.inv_d")
    return tracer.counts["levels.summands"], inv_d

tracer = Tracer("summands", 2)
tracer.install()
out = {"n_lams": len(liechar.build_root_system("A2").dominant_weights_in_root_lattice(2))}
for name, verify in [("gko", liechar.verify_gko), ("kw", liechar.verify_kw)]:
    before = seen(tracer)
    verify("A2", 2)
    after = seen(tracer)
    out[name] = {"summands": after[0] - before[0], "inv_d_calls": after[1] - before[1]}
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
    return finite, tracer.counts["levels.summands"], inv_d

tracer = Tracer("finite_char", 2)
tracer.install()
out = {"n_lams": len(liechar.build_root_system("A2").dominant_weights_in_root_lattice(2))}
for mode in ["group_ring", "trivial", "ray"]:
    before = seen(tracer)
    assert liechar.verify_gko("A2", 2, mode).status == "pass"
    after = seen(tracer)
    out[mode] = dict(zip(["finite_char", "summands", "inv_d_calls"],
                         [b - a for a, b in zip(before, after)]))
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
    # one lambda-sum per kappa sample in verify_gko and one in verify_kw, each
    # enumerating Q+ inside the span the tracer reads; the kappa samples divide
    # by D factor by factor, so 1/D is built once, for the RHS
    got = _run_traced(SUMMANDS_SCRIPT)
    n = got["n_lams"]
    assert n > 1
    assert got["gko"] == {"summands": 2 * n, "inv_d_calls": 1}
    assert got["kw"] == {"summands": n, "inv_d_calls": 0}


def test_specialized_verifiers_build_no_freudenthal_character():
    # trivial takes ch L_lam from the Weyl dimension and ray at rho_check from
    # the principal specialization; group_ring runs Freudenthal's recursion
    # once per lambda, on dominant weights only and cached for both kappa
    # samples, with no finite_char orbit spread
    got = _run_traced(FINITE_CHAR_SCRIPT)
    n = got["n_lams"]
    assert got["group_ring"] == {"finite_char": 0, "summands": 2 * n, "inv_d_calls": 1}
    assert got["trivial"] == {"finite_char": 0, "summands": 2 * n, "inv_d_calls": 1}
    assert got["ray"] == {"finite_char": 0, "summands": 2 * n, "inv_d_calls": 1}


def test_group_ring_kw_walks_no_orbit():
    # make_context's group_ring is the W-invariant ring: ch L_lam is its
    # dominant multiplicities and Theta_Q one orbit sum per lambda, so a
    # passing verify_kw spreads no character and walks no orbit
    got = _run_traced(KW_ORBIT_SCRIPT)
    assert got == {"levels.kw_lhs": 1, "characters.finite_char": 0, "rootsys.orbit": 0}
