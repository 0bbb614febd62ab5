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
inverses; the caller that owns a pair inverts it once.  The geometric mean
is evaluated along three routes whose mutual agreement is enforced at
TAU_EQ: the measure integral, the pair route,
A !_t B = A ((1-t) B + t A)^{-1} B on the un-inverted pair, and homogeneity,
the pair route on (A/2, B), as A #_lam B = 2^(1-lam) ((A/2) #_lam B)
(Kubo-Ando).  The homogeneity pencil's eigenvalues are halved, which moves
its Gauss-Jacobi nodes to t = u/(2-u) in the measure route's variable, so a
too-low order shows as disagreement.  Both check routes run at the measure
route's plan and, like geometric_neg's check, on the other side of the
inversion from the route they check, so an inaccurate A^{-1} or B^{-1}
shows as disagreement.
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


def geometric_paths(A, B, lam: float):
    """The three geometric-mean evaluations (measure, pair, homogeneity).

    The measure route, funcalc._sigma, chooses the plan (order and scale);
    the other two run at it, in one call on a stack of two.  The pair route
    is A [integral of ((1-t) B + t A)^{-1}] B, the same harmonic means on the
    un-inverted pair, and the homogeneity route 2^(1-lam) ((A/2) #_lam B) is
    it on (A/2, B), whose nodes sit elsewhere on the pencil; a scale of its
    own, a power of two, could undo the halving and put it back on the
    measure route's nodes.
    """
    f = catalog("power", lam)
    A, B = _operands(A, B)
    via_measure, plan = funcalc._sigma(A, B, f.measure)
    # the pencils have B^{-1} A, similar to the measure route's A B^{-1}, and half of it
    X = funcalc._integrate(np.stack([B, B]), np.stack([A, A / 2.0]), f.measure, plan)[0]
    # the scale goes on before the products, which it keeps from overflowing
    return via_measure, A @ X[0] @ B, A @ (2.0 ** -lam * X[1]) @ B


def geometric_mean(A, B, lam: float) -> np.ndarray:
    """A sharp_lam B, cross-validated along three routes.

    Returns the measure-integral value; any pairwise relative deviation
    beyond TAU_EQ among the three routes raises NumericFailureError.  The
    measure route doubles the order until the result moves by at most 1e-8
    and raises NumericFailureError when no order up to 512 gets there; the
    homogeneity route, at the same order but other nodes of the pencil,
    catches an order that settled too early.
    """
    Pa, Pb, Pc = geometric_paths(A, B, lam)
    worst = max(funcalc._drift(Pa, Pb), funcalc._drift(Pa, Pc), funcalc._drift(Pb, Pc))
    if worst > TAU_EQ:
        raise NumericFailureError(f"geometric-mean paths disagree by {worst:.3e}")
    return Pa


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
    """A sharp_{-lam} B for lam in (0, 1).

    Evaluates the sandwiched integral
    A { sin(lam pi)/pi int t^(lam-1) (1-t)^(-lam) (A^-1 !_t B^-1) dt } A
    (where A^-1 !_t B^-1 = ((1-t) A + t B)^-1 needs no pre-inversion) and
    cross-checks it within TAU_EQ against the same integral on the inverted
    pair, ((1-t) A + t B)^-1 = B^-1 ((1-t) B^-1 + t A^-1)^-1 A^-1, at the plan
    the integral chose as in sigma_mean.
    """
    f = catalog("power", lam)
    A, B = _operands(A, B)
    # the pair is inverted once, for the scale and the cross-check
    Ainv, Binv = solve_stack(np.stack([A, B]))
    J, plan = funcalc._integrate(A, B, f.measure, ends=(Ainv, Binv))
    result = A @ J @ A
    # the cross-check's pencil has B A^{-1}, similar to A^{-1} B
    other = A @ Binv @ funcalc._integrate(Binv, Ainv, f.measure, plan)[0]
    dev = funcalc._drift(result, other)
    if dev > TAU_EQ:
        raise NumericFailureError(f"sharp_(-lam) routes disagree by {dev:.3e}")
    return result


def scalar_sigma(a: complex, b: complex, f: MonotoneFunction) -> complex:
    """sigma_f of two scalars off the cut: a * f(b/a)."""
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ParameterError("scalar mean requires nonzero first operand")
    return a * funcalc.scalar_eval(f, b / a)
