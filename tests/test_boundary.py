"""Each public call converts each operand once and judges it accretive once.

Counts, per call after one warm-up call (so that cached rule builds do not
count), the linalg.as_stack conversions, the np.linalg.svd calls and the
accretivity verdicts (linalg._accretivity) at n = 4.  A verdict or an SVD
fewer than the pinned count is an operand left unchecked; one more is a
check repeated below the boundary.
"""

import sys

import numpy as np
import pytest

from amm import linalg, means
from amm.funcalc import apply_function, catalog, choose_contour, dunford_apply

A = np.array([[2.0, 0.3j, 0.0, 0.1], [0.1, 1.5, 0.2, 0.0],
              [0.0, 0.1j, 1.8, 0.2], [0.1, 0.0, 0.1, 2.5]])
B = np.array([[1.3, 0.2, 0.0, 0.0], [0.1j, 2.1, 0.1, 0.0],
              [0.0, 0.2, 1.1, 0.1j], [0.0, 0.1, 0.0, 1.9]])
HALF = catalog("power", 0.5)

# public call -> (as_stack, svd, verdicts); in the contour pair, each of the
# two functions converts A, then certifies it, and certify is public and
# converts it again, twice with imaginary_part: at most six, fewer is fine
CALLS = {
    "geometric_paths": (lambda: means.geometric_paths(A, B, 0.3), (2, 2, 2)),
    "geometric_mean": (lambda: means.geometric_mean(A, B, 0.3), (2, 2, 2)),
    "geometric_neg": (lambda: means.geometric_neg(A, B, 0.3), (2, 2, 2)),
    "sigma_mean": (lambda: means.sigma_mean(A, B, HALF), (2, 2, 2)),
    "drury_half": (lambda: means.drury_half(A, B), (2, 2, 2)),
    "apply_function": (lambda: apply_function(HALF, A), (1, 2, 2)),
    "contour_pair": (lambda: dunford_apply(HALF, A, choose_contour(A)), (6, 2, 2)),
}


@pytest.fixture
def tally(monkeypatch):
    counts = dict.fromkeys(("as_stack", "svd", "verdicts"), 0)

    def counting(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return call

    as_stack = linalg.as_stack
    counting_as_stack = counting("as_stack", as_stack)
    for name, module in list(sys.modules.items()):
        if name == "amm" or name.startswith("amm."):
            for attr, value in list(vars(module).items()):
                if value is as_stack:
                    monkeypatch.setattr(module, attr, counting_as_stack)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(linalg, "_accretivity", counting("verdicts", linalg._accretivity))
    return counts


@pytest.mark.parametrize("name", CALLS)
def test_calls_per_public_call(tally, name):
    call, (conversions, svds, verdicts) = CALLS[name]
    call()
    for key in tally:
        tally[key] = 0
    call()
    assert (tally["svd"], tally["verdicts"]) == (svds, verdicts)
    if name == "contour_pair":
        assert tally["as_stack"] <= conversions
    else:
        assert tally["as_stack"] == conversions

