"""Record the right-hand-side digest of every verifier case that has none.

    PYTHONPATH=src python3 perfbench/record_digests.py

Recorded digests are the correctness reference and are never overwritten:
a case added to ``cases.py`` gets its digest from the commit that adds it.
"""

import json

import liechar

from cases import ALL_CASES, DIGESTS, prepare, rhs_digest

digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
for case in ALL_CASES.values():
    if case.kind in ("gko", "kw") and case.id not in digests:
        digests[case.id] = rhs_digest(liechar, case, prepare(liechar, case, 0))
        print(f"recorded {case.id}")
DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
