"""perfbench's tracer wraps each coefficient context's ``mul`` on its own class.

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


def test_tracer_counts_one_coefficient_product_per_context_mul():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [1, 2, 3]
