"""Binary matrix means on accretive pairs.

The weighted harmonic and arithmetic means are closed forms; every other
mean sigma_f is the measure average of weighted harmonic means

    A sigma_f B = integral over [0,1] of  A !_t B  d nu_f(t),

which for f(z) = z^lam reproduces the weighted geometric mean.  The
geometric mean is evaluated along three routes (measure integral,
congruence through the principal square root, half-line integral) whose
mutual agreement is enforced at 1e-8.  The routes are independent in their
algebra but not in their quadrature: all three evaluate
((1-t) A^-1 + t B^-1)^-1 at the same Gauss-Jacobi nodes, so they share the
quadrature error and agree even when the order is too low.  Only the
doubling check (check_convergence) sees that error.
"""

from __future__ import annotations

import math

import numpy as np

from . import funcalc, linalg
from .errors import NumericFailureError, ParameterError
from .funcalc import MonotoneFunction, catalog, default_order, gauss_jacobi_rule
from .linalg import as_matrix, maxabs, principal_sqrt, solve_stack
from .sector import require_accretive


def _require_accretive_pair(A, B):
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ParameterError(f"operand shapes differ: {A.shape} vs {B.shape}")
    return require_accretive(A, "A"), require_accretive(B, "B")


def _rel_dev(X, Y) -> float:
    return maxabs(X - Y) / (1.0 + max(maxabs(X), maxabs(Y)))


def harmonic_mean(A, B, t: float, validate: bool = True) -> np.ndarray:
    """A !_t B = ((1-t) A^{-1} + t B^{-1})^{-1}; endpoints return A or B."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [0, 1], got {t}")
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    if t == 0.0:
        return A.copy()
    if t == 1.0:
        return B.copy()
    inv = solve_stack(np.stack([A, B]))
    return solve_stack(((1.0 - t) * inv[0] + t * inv[1])[None])[0]


def arithmetic_mean(A, B, t: float) -> np.ndarray:
    """A nabla_t B = (1-t) A + t B."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must be in [0, 1], got {t}")
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ParameterError(f"operand shapes differ: {A.shape} vs {B.shape}")
    return (1.0 - t) * A + t * B


def _sigma_via_measure(A, B, f: MonotoneFunction, order: int) -> np.ndarray:
    inv = solve_stack(np.stack([A, B]))
    Ainv, Binv = inv[0], inv[1]

    def batch(ts):
        stack = (1.0 - ts)[:, None, None] * Ainv + ts[:, None, None] * Binv
        return solve_stack(stack)

    return funcalc._measure_integral(f.measure, order, lambda: A.copy(), lambda: B.copy(), batch)


def sigma_mean(
    A,
    B,
    f: MonotoneFunction,
    order: int | None = None,
    validate: bool = True,
    check_convergence: bool = True,
) -> np.ndarray:
    """A sigma_f B as the measure average of weighted harmonic means."""
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    order = order or default_order()
    if check_convergence and f.measure.density is not None:
        return funcalc._converged(lambda k: _sigma_via_measure(A, B, f, k), order)
    return _sigma_via_measure(A, B, f, order)


def congruence_sigma(
    A, B, f: MonotoneFunction, order: int | None = None, validate: bool = True
) -> np.ndarray:
    """A sigma_f B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}.

    The inner matrix is generally not accretive, but its spectrum avoids
    (-inf, 0] whenever A and B are accretive, so the harmonic-mean integral
    for f still applies (with validation disabled).
    """
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    S = principal_sqrt(A)
    Sinv = linalg.inverse(S)
    M = Sinv @ B @ Sinv
    F = funcalc.apply_function(f, M, order=order, validate=False, check_convergence=False)
    return S @ F @ S


def _geometric_halfline(A, B, lam: float, order: int) -> np.ndarray:
    # sin(lam pi)/pi * integral over (0, inf) of s^(lam-1) (A^-1 + s B^-1)^-1 ds,
    # under s = t/(1-t); the Jacobi weight (lam-1, -lam) absorbs both endpoint
    # singularities and the integrand is evaluated in its half-line form.
    rule = gauss_jacobi_rule(lam - 1.0, -lam, order)
    t = rule.nodes
    s = t / (1.0 - t)
    inv = solve_stack(np.stack([A, B]))
    stack = inv[0][None, :, :] + s[:, None, None] * inv[1][None, :, :]
    resolved = solve_stack(stack)
    weights = (math.sin(lam * math.pi) / math.pi) * rule.weights / (1.0 - t)
    return np.einsum("k,kij->ij", weights, resolved)


def geometric_paths(A, B, lam: float, order: int | None = None, validate: bool = True):
    """The three geometric-mean evaluations (measure, congruence, half-line)."""
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must be in (0, 1), got {lam}")
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    order = order or default_order()
    f = catalog("power", lam)
    via_measure = sigma_mean(A, B, f, order=order, validate=False, check_convergence=False)
    via_congruence = congruence_sigma(A, B, f, order=order, validate=False)
    via_halfline = _geometric_halfline(A, B, lam, order)
    return via_measure, via_congruence, via_halfline


def geometric_mean(
    A,
    B,
    lam: float,
    order: int | None = None,
    validate: bool = True,
    check_convergence: bool = True,
) -> np.ndarray:
    """A sharp_lam B, cross-validated along three routes.

    Returns the measure-integral value; any pairwise relative deviation
    beyond 1e-8 among the three routes raises NumericFailureError.  The
    routes share their quadrature nodes, so their agreement says nothing
    about quadrature error; check_convergence re-runs the measure route at
    twice the order and raises NumericFailureError on a 1e-8 move.
    """
    Pa, Pb, Pc = geometric_paths(A, B, lam, order=order, validate=validate)
    worst = max(_rel_dev(Pa, Pb), _rel_dev(Pa, Pc), _rel_dev(Pb, Pc))
    if worst > 1e-8:
        raise NumericFailureError(f"geometric-mean paths disagree by {worst:.3e}")
    if check_convergence:
        order = order or default_order()
        f = catalog("power", lam)

        def measure_route(k):
            # Pa is this route at the given order; only the doubled order is new
            if k == order:
                return Pa
            return sigma_mean(A, B, f, order=k, validate=False, check_convergence=False)

        funcalc._converged(measure_route, order)
    return Pa


def drury_half(
    A, B, order: int | None = None, validate: bool = True, check_convergence: bool = True
) -> np.ndarray:
    """A sharp B via the inverted half-line average (2/pi int (tA + B/t)^-1 dt/t)^-1.

    The substitution u = t^2/(1+t^2) turns the average into a Chebyshev-weight
    integral on [0, 1]; the final inversion recovers the mean.  Agrees with
    geometric_mean(A, B, 1/2) within 1e-7.
    """
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    order = order or default_order()

    def average(k):
        rule = gauss_jacobi_rule(-0.5, -0.5, k)
        u = rule.nodes
        ratio = u / (1.0 - u)
        stack = B[None, :, :] + ratio[:, None, None] * A[None, :, :]
        resolved = solve_stack(stack)
        weights = rule.weights / (math.pi * (1.0 - u))
        return np.einsum("k,kij->ij", weights, resolved)

    S = funcalc._converged(average, order) if check_convergence else average(order)
    return linalg.inverse(S)


def geometric_neg(
    A, B, lam: float, order: int | None = None, validate: bool = True
) -> np.ndarray:
    """A sharp_{-lam} B for lam in (0, 1).

    Evaluates the sandwiched integral
    A { sin(lam pi)/pi int t^(lam-1) (1-t)^(-lam) (A^-1 !_t B^-1) dt } A
    (where A^-1 !_t B^-1 = ((1-t) A + t B)^-1 needs no pre-inversion) and
    cross-checks it against A^{1/2} (A^{-1/2} B A^{-1/2})^{-lam} A^{1/2}
    within 1e-8.
    """
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must be in (0, 1), got {lam}")
    if validate:
        A, B = _require_accretive_pair(A, B)
    else:
        A, B = as_matrix(A), as_matrix(B)
    order = order or default_order()
    rule = gauss_jacobi_rule(lam - 1.0, -lam, order)
    t = rule.nodes
    stack = (1.0 - t)[:, None, None] * A + t[:, None, None] * B
    resolved = solve_stack(stack)
    weights = (math.sin(lam * math.pi) / math.pi) * rule.weights
    J = np.einsum("k,kij->ij", weights, resolved)
    result = A @ J @ A

    S = principal_sqrt(A)
    Sinv = linalg.inverse(S)
    M = Sinv @ B @ Sinv
    F = funcalc.apply_function(catalog("power", lam), M, order=order,
                               validate=False, check_convergence=False)
    other = S @ linalg.inverse(F) @ S
    dev = _rel_dev(result, other)
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
