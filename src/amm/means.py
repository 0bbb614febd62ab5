"""Binary matrix means on accretive pairs.

The arithmetic mean is a closed form and takes any pair of equal shape;
every other public function here raises PreconditionError unless both
operands are accretive.  A mean sigma_f is the measure average of weighted
harmonic means

    A sigma_f B = integral over [0,1] of  A !_t B  d nu_f(t),

computed by funcalc._sigma (A !_t B itself is the single atom at t), which
for f(z) = z^lam reproduces the weighted geometric mean.  Every integral is
funcalc._integrate, the one quadrature of the package, which chooses its
plan, an order and the scale of its variable (the order by doubling from 8
until the result moves by at most 1e-8 relative), from the pencil's
inverses; the caller that owns a pair inverts it once.  The geometric
means have one cross-check: the pair route, A !_t B = A ((1-t) B + t A)^{-1} B,
on (2^e A, B) at the measure route's plan, whose nodes move with e
(Kubo-Ando homogeneity), and one agreement test at TAU_EQ that refuses a
route that is not a number.  Each check route runs on the other side of the
pair's inversion from the route it checks, so a too-low order or an
inaccurate A^{-1} or B^{-1} shows as disagreement.
"""

from __future__ import annotations

import numpy as np

from . import funcalc
from .errors import NumericFailureError, ParameterError
from .funcalc import MeasureSpec, MonotoneFunction, catalog
from .linalg import TAU_EQ, _denman_beavers, as_matrix, require_accretive, solve_stack


def _pair(A, B):
    """The operand pair as matrices of equal shape."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ParameterError(f"operand shapes differ: {A.shape} vs {B.shape}")
    return A, B


def _operands(A, B):
    """The operand pair as accretive matrices of equal shape, each converted and judged once."""
    A, B = _pair(A, B)
    require_accretive(A, "A")
    require_accretive(B, "B")
    return A, B


def harmonic_mean(A, B, t: float) -> np.ndarray:
    """A !_t B = ((1-t) A^{-1} + t B^{-1})^{-1}; endpoints return A or B."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [0, 1], got {t}")
    A, B = _operands(A, B)
    return funcalc._sigma(A, B, MeasureSpec(atoms=((t, 1.0),)))[0]


def arithmetic_mean(A, B, t: float) -> np.ndarray:
    """A nabla_t B = (1-t) A + t B."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [0, 1], got {t}")
    A, B = _pair(A, B)
    return (1.0 - t) * A + t * B


def sigma_mean(A, B, f: MonotoneFunction) -> np.ndarray:
    """A sigma_f B as the measure average of weighted harmonic means.

    The quadrature order is chosen by doubling until the result moves by at
    most 1e-8 relative; pure-atom measures are exact and skip it.
    """
    A, B = _operands(A, B)
    return funcalc._sigma(A, B, f.measure)[0]


def congruence_sigma(A, B, f: MonotoneFunction) -> np.ndarray:
    """A sigma_f B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}, order chosen as in sigma_mean."""
    A, B = _operands(A, B)
    # the inner matrix is generally not accretive, but its spectrum avoids
    # (-inf, 0] whenever A and B are accretive, so the integral for f applies
    S, Sinv = _denman_beavers(A)
    eye = np.eye(A.shape[0], dtype=np.complex128)
    return S @ funcalc._sigma(eye, Sinv @ B @ Sinv, f.measure)[0] @ S


def _pair_routes(X, Y, lam: float, plan, exponents):
    """X #_lam Y as 2^(e lam) X [integral of ((1-t) Y + t 2^e X)^{-1}] Y, for each e, at plan.

    (2^e X) #_lam Y = 2^(e (1-lam)) (X #_lam Y); at e != 0 the pencil's
    eigenvalues move by 2^e, and its Gauss-Jacobi nodes off the plan's own.
    """
    Z = funcalc._integrate(np.stack([Y] * len(exponents)),
                           np.stack([2.0 ** e * X for e in exponents]),
                           catalog("power", lam).measure, plan)[0]
    # the scale goes on before the products, which it keeps from overflowing
    return [X @ (2.0 ** (e * lam) * Zk) @ Y for e, Zk in zip(exponents, Z)]


def _agreed(routes, what: str) -> np.ndarray:
    """The first route, once every two agree within TAU_EQ; a NaN route disagrees."""
    worst = np.max([funcalc._drift(a, b) for i, a in enumerate(routes) for b in routes[i + 1:]])
    if not worst <= TAU_EQ:
        raise NumericFailureError(f"{what} disagree by {worst:.3e}")
    return routes[0]


def geometric_paths(A, B, lam: float):
    """The three geometric-mean evaluations (measure, pair, homogeneity).

    The measure route, funcalc._sigma, chooses the plan; the pair route on
    (A, B) and the homogeneity route on (A/2, B) run at it.  A scale of the
    halved pencil's own could undo the halving and share the measure
    route's nodes.
    """
    measure = catalog("power", lam).measure
    A, B = _operands(A, B)
    via_measure, plan = funcalc._sigma(A, B, measure)
    return (via_measure, *_pair_routes(A, B, lam, plan, (0, -1)))


def geometric_mean(A, B, lam: float) -> np.ndarray:
    """A sharp_lam B, the measure route once the three routes of geometric_paths agree.

    A relative deviation beyond TAU_EQ, or a NaN, raises NumericFailureError,
    as does a measure route that no order up to 512 settles.
    """
    return _agreed(geometric_paths(A, B, lam), "geometric-mean paths")


def drury_half(A, B) -> np.ndarray:
    """A sharp B via the inverted half-line average (2/pi int (tA + B/t)^-1 dt/t)^-1.

    The substitution u = t^2/(1+t^2) turns the average into the integral of
    ((1-u) B + u A)^-1 = B^-1 !_u A^-1 against the arcsine law on [0, 1],
    which is the measure of z^(1/2); the final inversion recovers the mean.
    The plan is chosen as in sigma_mean, from the pair's inverses.  Agrees
    with geometric_mean(A, B, 1/2) within 1e-7.
    """
    A, B = _operands(A, B)
    Ainv, Binv = solve_stack(np.stack([A, B]))
    S, _ = funcalc._integrate(B, A, catalog("power", 0.5).measure, ends=(Binv, Ainv))
    return solve_stack(S[None])[0]


def geometric_neg(A, B, lam: float) -> np.ndarray:
    """A sharp_{-lam} B = A (A^-1 sharp_lam B^-1) A for lam in (0, 1).

    A^-1 #_lam B^-1 is the measure integral of ((1-t) A + t B)^-1, checked
    as in geometric_mean by the homogeneity route on (2 A^-1, B^-1); the
    halved pair's resolvents would overflow at the largest doubles.
    """
    measure = catalog("power", lam).measure
    A, B = _operands(A, B)
    # the pair is inverted once, for the scale and the cross-check
    Ainv, Binv = solve_stack(np.stack([A, B]))
    J, plan = funcalc._integrate(A, B, measure, ends=(Ainv, Binv))
    return A @ _agreed((J, *_pair_routes(Ainv, Binv, lam, plan, (1,))), "sharp_(-lam) routes") @ A


def scalar_sigma(a: complex, b: complex, f: MonotoneFunction) -> complex:
    """sigma_f of two scalars off the cut: a * f(b/a)."""
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ParameterError("scalar mean requires nonzero first operand")
    return a * funcalc.scalar_eval(f, b / a)
