"""The scenario catalogue reaches every function in ``src/repro`` but a pinned few.

``python -m repro.check.reach`` runs every catalogue entry at seeds 0–2 under
a profile hook, seed 0 traced and sampled by the telemetry recorder with the
stock SLOs, and lists the defs no run entered. The list is pinned in
``tests/golden/unreached.txt``: new code the catalogue never runs fails here
until it gains a scenario, is deleted, or is added to the pin on purpose.
"""

import sys
from pathlib import Path

from repro.check.reach import unreached

GOLDEN = Path(__file__).parent / "golden" / "unreached.txt"
REGEN = "PYTHONPATH=src python -m repro.check.reach > tests/golden/unreached.txt"


def test_unreached_functions_match_the_pin():
    def previous(frame, event, arg):
        pass

    outer = sys.getprofile()
    sys.setprofile(previous)
    try:
        got = unreached()
        restored = sys.getprofile()
    finally:
        sys.setprofile(outer)
    assert restored is previous
    want = GOLDEN.read_text().splitlines()
    assert got == want, (
        f"newly unreached: {sorted(set(got) - set(want))}; "
        f"no longer unreached: {sorted(set(want) - set(got))}. "
        f"If intended, regenerate the pin with: {REGEN}"
    )
