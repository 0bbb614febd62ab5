"""Golden-margin gate: the default suite at 5 samples against suite_s5.json.

Every verdict must match and every min_margin must stay within 1e-12 of the
committed value.  worst_index is not compared: it moves on near ties.
Regenerate with tests/golden/regenerate.py.
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MARGIN_TOL = 1e-12


def test_default_suite_matches_golden_margins():
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert expected["samples"] == golden.SAMPLES
    got = golden.suite_entries()
    assert len(got) == len(expected["checks"])
    drift = []
    for i, (old, new) in enumerate(zip(expected["checks"], got)):
        assert (new["id"], new["params"]) == (old["id"], old["params"]), f"entry {i}"
        assert new["pass"] == old["pass"], f"entry {i} ({old['id']}) changed verdict"
        shift = abs(new["min_margin"] - old["min_margin"])
        if shift > MARGIN_TOL:
            drift.append((i, old["id"], shift))
    assert not drift, f"min_margin moved beyond {MARGIN_TOL}: {drift[:10]}"
