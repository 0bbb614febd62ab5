"""Each public call converts each operand once and judges it accretive once.

Counts, per call after one warm-up call (so that cached rule builds do not
count), the linalg.as_stack conversions, the np.linalg.svd calls and the
accretivity verdicts (linalg._accretivity) at n = 4.  A verdict or an SVD
fewer than the pinned count is an operand left unchecked; one more is a
check repeated below the boundary.  The means and f(A) are also counted
for their inversions outside the resolvent kernel, which the caller that
owns a pair makes and funcalc._integrate never does, and the geometric
means for their square roots and integrals.
"""

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


@pytest.fixture
def tally(monkeypatch, replace_everywhere):
    counts = dict.fromkeys(("as_stack", "svd", "verdicts"), 0)
    replace_everywhere(linalg.as_stack, counting(counts, "as_stack", linalg.as_stack))
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


def entered(depth, key, function):
    """function, counting in depth[key] the calls under way."""
    def call(*args, **kwargs):
        depth[key] += 1
        try:
            return function(*args, **kwargs)
        finally:
            depth[key] -= 1
    return call


def record_inversions(monkeypatch, replace_everywhere):
    """The stacks that solve_stack inverts outside _resolvent_sums, by caller.

    Returns a dict of lists: "integrate" for those inverted inside
    funcalc._integrate, "caller" for all others.
    """
    depth = {"integrate": 0, "kernel": 0}
    inverted = {"caller": [], "integrate": []}
    solve = linalg.solve_stack

    def recording(stack):
        if not depth["kernel"]:
            inverted["integrate" if depth["integrate"] else "caller"].append(np.array(stack))
        return solve(stack)

    replace_everywhere(solve, recording)
    monkeypatch.setattr(funcalc, "_resolvent_sums",
                        entered(depth, "kernel", funcalc._resolvent_sums))
    monkeypatch.setattr(funcalc, "_integrate", entered(depth, "integrate", funcalc._integrate))
    return inverted


# public call -> solve_stack calls outside the resolvent kernel: the pair,
# inverted once by the caller that owns it; drury_half also inverts its
# integral, and congruence_sigma its Denman-Beavers steps (six here)
INVERSIONS = {
    **{name: (CALLS[name][0], 1) for name in ("geometric_paths", "geometric_mean",
                                              "geometric_neg", "sigma_mean", "apply_function")},
    "harmonic_mean": (lambda: means.harmonic_mean(A, B, 0.3), 1),
    "drury_half": (CALLS["drury_half"][0], 2),
    "congruence_sigma": (lambda: means.congruence_sigma(A, B, HALF), 7),
}


@pytest.mark.parametrize("name", INVERSIONS)
def test_caller_inverts_and_integrate_never_does(monkeypatch, replace_everywhere, name):
    call, count = INVERSIONS[name]
    call()
    inverted = record_inversions(monkeypatch, replace_everywhere)
    call()
    assert (len(inverted["caller"]), len(inverted["integrate"])) == (count, 0)


@pytest.mark.parametrize("name", ["geometric_paths", "geometric_mean", "geometric_neg"])
def test_geometric_routes_run_on_the_pair(monkeypatch, replace_everywhere, name):
    # the measure route's integral and one pinned integral for the
    # cross-checks; no square root, and outside the resolvent kernel only
    # the pair [A, B] is inverted
    call = CALLS[name][0]
    call()
    counts = {"roots": 0, "integrals": 0}
    replace_everywhere(linalg._denman_beavers, counting(counts, "roots", linalg._denman_beavers))
    inverted = record_inversions(monkeypatch, replace_everywhere)
    monkeypatch.setattr(funcalc, "_integrate", counting(counts, "integrals", funcalc._integrate))
    call()
    assert (counts["roots"], counts["integrals"]) == (0, 2)
    assert len(inverted["caller"]) == 1 and np.array_equal(inverted["caller"][0], np.stack([A, B]))
