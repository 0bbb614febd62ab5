"""Each public call converts each operand once and judges it accretive once.

Counts, per call after one warm-up call (so that cached rule builds do not
count), the linalg.as_stack conversions, the np.linalg.svd calls and the
accretivity verdicts (linalg._accretivity) at n = 4.  A verdict or an SVD
fewer than the pinned count is an operand left unchecked; one more is a
check repeated below the boundary.  The geometric means are also counted
for their square roots, integrals and inversions outside the resolvent
kernel.
"""

import sys

import numpy as np
import pytest

from amm import funcalc, linalg, means
from amm.funcalc import apply_function, catalog, choose_contour, dunford_apply

A = np.array([[2.0, 0.3j, 0.0, 0.1], [0.1, 1.5, 0.2, 0.0],
              [0.0, 0.1j, 1.8, 0.2], [0.1, 0.0, 0.1, 2.5]])
B = np.array([[1.3, 0.2, 0.0, 0.0], [0.1j, 2.1, 0.1, 0.0],
              [0.0, 0.2, 1.1, 0.1j], [0.0, 0.1, 0.0, 1.9]])
HALF = catalog("power", 0.5)

# public call -> (as_stack, svd, verdicts); in the contour pair, each of the
# two functions converts A, then certifies it, and certify is public and
# converts it again
CALLS = {
    "geometric_paths": (lambda: means.geometric_paths(A, B, 0.3), (2, 2, 2)),
    "geometric_mean": (lambda: means.geometric_mean(A, B, 0.3), (2, 2, 2)),
    "geometric_neg": (lambda: means.geometric_neg(A, B, 0.3), (2, 2, 2)),
    "sigma_mean": (lambda: means.sigma_mean(A, B, HALF), (2, 2, 2)),
    "drury_half": (lambda: means.drury_half(A, B), (2, 2, 2)),
    "apply_function": (lambda: apply_function(HALF, A), (1, 2, 2)),
    "contour_pair": (lambda: dunford_apply(HALF, A, choose_contour(A)), (4, 2, 2)),
}


def counting(counts, key, function):
    def call(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return call


def replace_everywhere(monkeypatch, function, replacement):
    """Rebind every name in the amm package that refers to function."""
    for name, module in list(sys.modules.items()):
        if name == "amm" or name.startswith("amm."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def tally(monkeypatch):
    counts = dict.fromkeys(("as_stack", "svd", "verdicts"), 0)
    replace_everywhere(monkeypatch, linalg.as_stack, counting(counts, "as_stack", linalg.as_stack))
    monkeypatch.setattr(np.linalg, "svd", counting(counts, "svd", np.linalg.svd))
    monkeypatch.setattr(linalg, "_accretivity",
                        counting(counts, "verdicts", linalg._accretivity))
    return counts


@pytest.mark.parametrize("name", CALLS)
def test_calls_per_public_call(tally, name):
    call, (conversions, svds, verdicts) = CALLS[name]
    call()
    for key in tally:
        tally[key] = 0
    call()
    assert (tally["as_stack"], tally["svd"], tally["verdicts"]) == (conversions, svds, verdicts)


@pytest.mark.parametrize("name", ["geometric_paths", "geometric_mean", "geometric_neg"])
def test_geometric_routes_run_on_the_pair(monkeypatch, name):
    # the measure route's integral and one pinned integral for the
    # cross-checks; no square root, and outside the resolvent kernel only
    # the pair [A, B] is inverted
    call = CALLS[name][0]
    call()
    counts = {"roots": 0, "integrals": 0, "kernel": 0}
    inverted, solve, kernel = [], linalg.solve_stack, funcalc._resolvent_sums

    def recording(stack):
        if not counts["kernel"]:
            inverted.append(np.array(stack))
        return solve(stack)

    def in_kernel(*args):
        counts["kernel"] += 1
        try:
            return kernel(*args)
        finally:
            counts["kernel"] -= 1

    replace_everywhere(monkeypatch, linalg._denman_beavers,
                       counting(counts, "roots", linalg._denman_beavers))
    replace_everywhere(monkeypatch, solve, recording)
    monkeypatch.setattr(funcalc, "_resolvent_sums", in_kernel)
    monkeypatch.setattr(funcalc, "_integrate", counting(counts, "integrals", funcalc._integrate))
    call()
    assert (counts["roots"], counts["integrals"]) == (0, 2)
    assert len(inverted) == 1 and np.array_equal(inverted[0], np.stack([A, B]))
