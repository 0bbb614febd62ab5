"""Golden-margin gate: the default suite at 5 samples against suite_s5.json.

Every verdict must match and every min_margin must stay within 1e-12 of the
committed value.  worst_index is not compared: it moves on near ties.
Regenerate with tests/golden/regenerate.py.  The same run must do the
resolvent work and the LAPACK calls that tests/golden/workcount.py reports
at 5 samples.
"""

import importlib.util
import json
from pathlib import Path

from amm import funcalc, verify


def _load(name):
    path = Path(__file__).parent / "golden" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"golden_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden, workcount = _load("regenerate"), _load("workcount")

MARGIN_TOL = 1e-12
# solve_stack calls and their sum of K n^3 (8.635e6) at 5 samples
SOLVE_CALLS, SOLVE_WORK = 1590, 8_634_945
# its eigh, eigvalsh, svd and qr calls, with the rule caches cleared first
LAPACK_CALLS = {"eigh": 20, "eigvalsh": 625, "svd": 425, "qr": 169}


def test_default_suite_matches_golden_margins():
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert expected["samples"] == golden.SAMPLES
    verify._ensemble.cache_clear()  # an ensemble left by another test would skip its draws
    # rules left by another test would skip their builds' eigvalsh calls
    funcalc._nodes.cache_clear()
    funcalc._cached_rule.cache_clear()
    with workcount.counted_solves() as tally, workcount.counted_lapack() as lapack:
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
    assert (tally["calls"], tally["work"]) == (SOLVE_CALLS, SOLVE_WORK)
    assert lapack == LAPACK_CALLS
