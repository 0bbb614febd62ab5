"""Binary matrix means on accretive pairs.

The arithmetic mean is a closed form and takes any pair of equal shape;
every other public function here raises PreconditionError unless both
operands are accretive.  A mean sigma_f is the measure average of weighted
harmonic means

    A sigma_f B = integral over [0,1] of  A !_t B  d nu_f(t),

computed by funcalc._sigma (A !_t B itself is the single atom at t), which
for f(z) = z^lam reproduces the weighted geometric mean.  Every integral
here, drury_half and geometric_neg included, is funcalc._integrate, the one
quadrature of the package, on an inverted pair: ((1-t) P + t Q)^{-1} is
P^{-1} !_t Q^{-1}.  Every integral's plan, its order and the scale of its
variable, is chosen there (the order by doubling from 8 until the result
moves by at most 1e-8 relative); this module only hands a chosen plan on to
the routes that cross-check it.  The geometric mean is evaluated along three
routes whose mutual agreement is enforced at 1e-8: the measure integral,
the congruence through the principal square root, and
homogeneity, A #_lam B = 2^-lam (A #_lam 2B) (Kubo-Ando).  The homogeneity
route integrates the pencil with its eigenvalues doubled, which moves its
Gauss-Jacobi nodes to t = u/(2-u) in the measure route's variable, so its
quadrature error differs from the measure route's and a too-low order shows
as disagreement.  The congruence route checks the algebra; both run at the
plan the measure route chose.
"""

from __future__ import annotations

import numpy as np

from . import funcalc
from .errors import NumericFailureError, ParameterError
from .funcalc import MeasureSpec, MonotoneFunction, catalog
from .linalg import as_matrix, principal_sqrt, require_accretive, solve_stack


# the measure of z^(1/2): the arcsine law 1/pi * u^-1/2 (1-u)^-1/2 du
_HALF = catalog("power", 0.5).measure


def _pair(A, B):
    """The operand pair as matrices of equal shape."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ParameterError(f"operand shapes differ: {A.shape} vs {B.shape}")
    return A, B


def _operands(A, B):
    """The operand pair as accretive matrices of equal shape."""
    A, B = _pair(A, B)
    return require_accretive(A, "A"), require_accretive(B, "B")


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


def _congruence(A, B, f: MonotoneFunction, plan=None):
    """(S, F) = (A^{1/2}, f(A^{-1/2} B A^{-1/2})) of the congruence route.

    The inner matrix is generally not accretive, but its spectrum avoids
    (-inf, 0] whenever A and B are accretive, so the harmonic-mean integral
    for f still applies; a given plan is used as is.
    """
    S = principal_sqrt(A)
    Sinv = solve_stack(S[None])[0]
    M = Sinv @ B @ Sinv
    eye = np.eye(M.shape[0], dtype=np.complex128)
    return S, funcalc._sigma(eye, M, f.measure, plan)[0]


def congruence_sigma(A, B, f: MonotoneFunction) -> np.ndarray:
    """A sigma_f B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}, order chosen as in sigma_mean."""
    A, B = _operands(A, B)
    S, F = _congruence(A, B, f)
    return S @ F @ S


def geometric_paths(A, B, lam: float):
    """The three geometric-mean evaluations (measure, congruence, homogeneity).

    The measure route chooses the plan (order and scale, see
    funcalc._integrate); the other two routes run at it.  The homogeneity
    route is 2^-lam (A #_lam 2B) at that plan, whose nodes sit elsewhere on
    the pencil; a scale of its own, a power of two, could undo the halving
    and put it back on the measure route's nodes.
    """
    f = catalog("power", lam)
    A, B = _operands(A, B)
    # the pair is inverted once, for the measure and homogeneity routes
    Ainv, Binv = solve_stack(np.stack([A, B]))
    via_measure, plan = funcalc._integrate(Ainv, Binv, f.measure, ends=(A, B))
    # A^{1/2} B^{-1} A^{1/2}, the congruence route's pencil, is similar to A B^{-1}
    S, F = _congruence(A, B, f, plan)
    via_homogeneity = 2.0 ** -lam * funcalc._integrate(Ainv, Binv / 2.0, f.measure, plan)[0]
    return via_measure, S @ F @ S, via_homogeneity


def geometric_mean(A, B, lam: float) -> np.ndarray:
    """A sharp_lam B, cross-validated along three routes.

    Returns the measure-integral value; any pairwise relative deviation
    beyond 1e-8 among the three routes raises NumericFailureError.  The
    measure route doubles the order until the result moves by at most 1e-8
    and raises NumericFailureError when no order up to 512 gets there; the
    homogeneity route, at the same order but other nodes of the pencil,
    catches an order that settled too early.
    """
    Pa, Pb, Pc = geometric_paths(A, B, lam)
    worst = max(funcalc._drift(Pa, Pb), funcalc._drift(Pa, Pc), funcalc._drift(Pb, Pc))
    if worst > 1e-8:
        raise NumericFailureError(f"geometric-mean paths disagree by {worst:.3e}")
    return Pa


def drury_half(A, B) -> np.ndarray:
    """A sharp B via the inverted half-line average (2/pi int (tA + B/t)^-1 dt/t)^-1.

    The substitution u = t^2/(1+t^2) turns the average into the integral of
    ((1-u) B + u A)^-1 = B^-1 !_u A^-1 against the arcsine law on [0, 1],
    which is the measure of z^(1/2); the final inversion recovers the mean.
    The plan is chosen as in sigma_mean.  Agrees with
    geometric_mean(A, B, 1/2) within 1e-7.
    """
    A, B = _operands(A, B)
    S, _ = funcalc._integrate(B, A, _HALF)
    return solve_stack(S[None])[0]


def geometric_neg(A, B, lam: float) -> np.ndarray:
    """A sharp_{-lam} B for lam in (0, 1).

    Evaluates the sandwiched integral
    A { sin(lam pi)/pi int t^(lam-1) (1-t)^(-lam) (A^-1 !_t B^-1) dt } A
    (where A^-1 !_t B^-1 = ((1-t) A + t B)^-1 needs no pre-inversion) and
    cross-checks it against A^{1/2} (A^{-1/2} B A^{-1/2})^{-lam} A^{1/2}
    within 1e-8.  The integral chooses its plan as in sigma_mean, and the
    cross-check runs at its order and the matching scale.
    """
    f = catalog("power", lam)
    A, B = _operands(A, B)
    J, (order, c) = funcalc._integrate(A, B, f.measure)
    result = A @ J @ A

    # the congruence route's pencil A^{1/2} B^{-1} A^{1/2} has the reciprocal
    # spectrum of A^{-1} B, so its scale is 1/c
    S, F = _congruence(A, B, f, (order, 1.0 / c))
    other = S @ solve_stack(F[None])[0] @ S
    dev = funcalc._drift(result, other)
    if dev > 1e-8:
        raise NumericFailureError(f"sharp_(-lam) routes disagree by {dev:.3e}")
    return result


def scalar_sigma(a: complex, b: complex, f: MonotoneFunction) -> complex:
    """sigma_f of two scalars off the cut: a * f(b/a)."""
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ParameterError("scalar mean requires nonzero first operand")
    return a * funcalc.scalar_eval(f, b / a)
