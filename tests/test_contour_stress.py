"""Stress draws at the edge of the domain: the contour and the measure route.

Each draw (n <= 64, alpha <= 1.5, M/m <= 1e6, a catalog f) must end in one of
two outcomes: dunford_apply agrees with apply_function to 1e-8, or
apply_function refuses with a clean NumericFailureError.  Only a density
other than a power may refuse: the quadrature of a power density runs at the
scale that centres the spectrum, where its order follows M/m alone.  The
contour itself never refuses: its node count is fixed in advance from the
sector.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amm.errors import NumericFailureError
from amm.funcalc import apply_function, choose_contour, dunford_apply, standard_catalog
from amm.linalg import opnorm
from amm.sector import EnsembleSpec, random_sectorial


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(1, 64),
    alpha=st.floats(0.0, 1.5),
    log_ratio=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from(standard_catalog()),
)
def test_contour_agrees_or_measure_refuses(n, alpha, log_ratio, seed, f):
    spec = EnsembleSpec(dim=n, alpha_max=alpha, m=1.0, M=10.0**log_ratio, count=1, seed=seed)
    A = random_sectorial(spec, 0)
    Fd = dunford_apply(f, A, choose_contour(A))
    assert np.all(np.isfinite(Fd))
    try:
        Fm = apply_function(f, A)
    except NumericFailureError as exc:
        assert f.name != "power" and "quadrature not converged" in str(exc)
        return
    assert opnorm(Fd - Fm) <= 1e-8 * (1.0 + opnorm(Fm))
