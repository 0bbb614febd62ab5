"""Matrix monotone functions and their functional calculus on accretive matrices.

A normalized matrix monotone function f (f(1) = 1) carries a probability
measure nu_f on [0, 1] through which

    f(A) = integral over [0,1] of  I !_t A  d nu_f(t),

where I !_t A = ((1-t) I + t A^{-1})^{-1} is the weighted harmonic mean with
the identity: f(A) = I sigma_f A.  _integrate is the one quadrature of the
package: it integrates the resolvent ((1-t) P + t Q)^{-1} over a measure,
which is the weighted harmonic mean P^{-1} !_t Q^{-1}, and _sigma, every
mean of the means module and f(A) all go through it.  The measure is
represented as point atoms plus a Jacobi-type density t^e0 (1-t)^e1 and is
integrated by Gauss-Jacobi rules matched to the endpoint exponents, built by
Golub-Welsch.  _integrate alone makes the plan of each integral, an order
and a scale: the order is doubled from 8 until the result settles (see
_converged), and the scale c of a Moebius change of variable centres the
spectrum of the pencil on 1 (see _balance), so the order follows M/m and not
where the spectrum lies; in the paper's terms f(A) = f(s) g(A/s) with
s = 1/c, which for a power density is the homogeneity of the mean.  A route
that must share another's nodes is given that plan.  A Dunford contour
integral provides an independent second route to f(A); its contour is an
ellipse in the log plane w = log z fitted to the certified sector of A, with
a node count fixed in advance (see choose_contour).  Agreement of the two is
the module's central cross-check.
"""

from __future__ import annotations


import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import beta

from . import linalg
from .errors import InvalidInputError, NumericFailureError, ParameterError
from .linalg import is_accretive, maxabs, require_accretive, solve_stack
from .sector import certify

_START_ORDER = 8
_MAX_ORDER = 512
_DRIFT_TOL = 1e-8
_CHUNK = 128


def _drift(X: np.ndarray, X2: np.ndarray) -> float:
    return maxabs(X2 - X) / maxabs(X)


def _not_converged(order: int, drift: float) -> NumericFailureError:
    return NumericFailureError(
        f"quadrature not converged at order {order}: doubling moves by {drift:.3e}"
    )


def _converged(
    compute: Callable[[tuple[int, ...]], list], order: int | None = None
) -> tuple[np.ndarray, int]:
    """A quadrature value and the order it was taken at.

    compute(orders) evaluates the quadrature at each of the given orders in
    one batch.  The order is chosen by doubling from _START_ORDER: orders 8
    and 16 share one batch, and the higher-order value is returned once
    doubling moves the result by at most 1e-8 relative to its size (the
    entrywise max norm, so a result far below 1 is held to the same relative
    test as any other); a larger move at _MAX_ORDER, or one that is not a
    number, raises NumericFailureError.  A pinned order is
    computed as given; only routes that must run at the nodes of an order
    already chosen pin one.
    """
    if order:
        return compute((order,))[0], order
    order = 2 * _START_ORDER
    X, X2 = compute((_START_ORDER, order))
    while not (drift := _drift(X, X2)) <= _DRIFT_TOL:
        if order >= _MAX_ORDER:
            raise _not_converged(order // 2, drift)
        order *= 2
        X, X2 = X2, compute((order,))[0]
    return X2, order


@dataclass(frozen=True)
class DensitySpec:
    """Jacobi-type density coeff * t^exp0 * (1-t)^exp1 on [0, 1]."""

    coeff: float
    exp0: float
    exp1: float


@dataclass(frozen=True)
class MeasureSpec:
    """Probability measure on [0, 1]: atoms plus an optional density."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: DensitySpec | None = None


def _validate_measure(measure: MeasureSpec):
    seen = set()
    for t, w in measure.atoms:
        if not 0.0 <= t <= 1.0:
            raise ParameterError(f"atom position {t} outside [0, 1]")
        if w <= 0.0:
            raise ParameterError(f"atom weight {w} must be positive")
        if t in seen:
            raise ParameterError(f"duplicate atom position {t}")
        seen.add(t)
    d = measure.density
    if d is not None:
        if d.coeff <= 0.0:
            raise ParameterError("density coefficient must be positive")
        if d.exp0 <= -1.0 or d.exp1 <= -1.0:
            raise ParameterError("density exponents must exceed -1")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for the weight t^exp0 (1-t)^exp1 on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=256)
def _cached_rule(exp0: float, exp1: float, order: int) -> QuadratureRule:
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    # weight t^exp0 (1-t)^exp1.  The weights are the Christoffel numbers
    # mu0 / sum_k p_k(x)^2 of the orthonormal polynomials p_k at the nodes
    # (mu0 times the squared first eigenvector components, without the
    # eigenvectors).  The three-term recurrence is the one of the Jacobi
    # polynomials on [-1, 1] for the weight (1-x)^a (1+x)^b with a = exp1,
    # b = exp0, shifted to t = (1+x)/2.
    a, b = exp1, exp0
    ab = a + b
    k = np.arange(order + 1, dtype=float)
    s = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        # the general off-diagonal is 0/0 at k = 1 when a + b = -1, as for
        # every power density, so the first entry takes its closed form
        offsq = 4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (ab + 2.0)
    offsq[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((ab + 2.0) ** 2 * (ab + 3.0))
    off = np.sqrt(offsq[1:])
    # The computed nodes are off by about 1e-16, and near a singular endpoint
    # the Christoffel function moves by order^2 times that, so one Newton
    # step on p_order corrects each node and its weight to first order.  The
    # recurrence runs in extended precision (where the platform has it): in
    # double its own rounding moves the moments by up to 2e-14 at order 512.
    x = eigvalsh_tridiagonal(diag[:order], off[:order - 1]).astype(np.longdouble)
    zero = np.zeros(order, dtype=np.longdouble)
    p_prev, p, dp_prev, dp, total, dtotal = zero, zero + 1.0, zero, zero, zero, zero
    for j in range(order):
        total, dtotal = total + p * p, dtotal + 2.0 * p * dp
        u, prev = x - diag[j], off[j - 1] if j else 0.0
        p_prev, p, dp_prev, dp = (p, (u * p - prev * p_prev) / off[j],
                                  dp, (p + u * dp - prev * dp_prev) / off[j])
    step = p / dp
    nodes = ((x + 1.0 - step) / 2.0).astype(float)
    weights = (beta(exp0 + 1.0, exp1 + 1.0) / (total - dtotal * step)).astype(float)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def gauss_jacobi_rule(exp0: float, exp1: float, order: int) -> QuadratureRule:
    """Nodes interior to (0, 1), positive weights, degree 2*order - 1 exact."""
    if exp0 <= -1.0 or exp1 <= -1.0:
        raise ParameterError(f"exponents must exceed -1, got ({exp0}, {exp1})")
    if not 2 <= order <= _MAX_ORDER:
        raise ParameterError(f"order must be in [2, {_MAX_ORDER}], got {order}")
    return _cached_rule(float(exp0), float(exp1), int(order))


def _moment(measure: MeasureSpec, p: int) -> float:
    _validate_measure(measure)
    moment = sum(w * t**p for t, w in measure.atoms)
    d = measure.density
    if d is not None:
        rule = gauss_jacobi_rule(d.exp0, d.exp1, _START_ORDER)
        moment += d.coeff * float(np.dot(rule.weights, rule.nodes**p))
    return float(moment)


def measure_mass(measure: MeasureSpec) -> float:
    """Total mass of the measure (atom weights plus density integral)."""
    return _moment(measure, 0)


def measure_mean(measure: MeasureSpec) -> float:
    """First moment of the measure; equals f'(1) for the represented f."""
    return _moment(measure, 1)


@dataclass(frozen=True)
class MonotoneFunction:
    """A normalized matrix monotone function and its representing measure."""

    name: str
    measure: MeasureSpec
    scalar_form: Callable
    derivative_at_one: float
    param: float | None = None

    def describe(self) -> dict:
        return {"name": self.name, "param": self.param}

    def __str__(self):
        return self.name if self.param is None else f"{self.name}({self.param:g})"


def _power_scalar(lam: float):
    def f(z):
        return np.power(np.asarray(z, dtype=np.complex128), lam)

    return f


def _arithmetic_scalar(t: float):
    def f(z):
        return (1.0 - t) + t * np.asarray(z, dtype=np.complex128)

    return f


def _harmonic_scalar(t: float):
    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        return 1.0 / ((1.0 - t) + t / z)

    return f


def _uniform_scalar(z):
    # z ln z / (z - 1), continued by its Taylor series near z = 1.
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    w = zv - 1.0
    out = np.empty_like(zv)
    near = np.abs(w) < 1e-4
    if np.any(near):
        wn = w[near]
        out[near] = zv[near] * (1.0 - wn / 2.0 + wn**2 / 3.0 - wn**3 / 4.0)
    far = ~near
    if np.any(far):
        out[far] = zv[far] * np.log(zv[far]) / (zv[far] - 1.0)
    return out[0] if scalar else out


def _make_function(name, measure, scalar_form, derivative_at_one, param=None) -> MonotoneFunction:
    mass = measure_mass(measure)
    if abs(mass - 1.0) > 1e-10:
        raise ParameterError(f"measure mass {mass} is not 1")
    mean = measure_mean(measure)
    if abs(mean - derivative_at_one) > 1e-10:
        raise ParameterError(f"measure mean {mean} != f'(1) = {derivative_at_one}")
    f1 = complex(np.asarray(scalar_form(1.0 + 0.0j)).reshape(()))
    if abs(f1 - 1.0) > 1e-12:
        raise ParameterError(f"f(1) = {f1} violates the normalization f(1) = 1")
    return MonotoneFunction(
        name=name,
        measure=measure,
        scalar_form=scalar_form,
        derivative_at_one=float(derivative_at_one),
        param=param,
    )


CATALOG_NAMES = ("power", "arithmetic", "harmonic", "uniform")


def catalog(name: str, param: float | None = None) -> MonotoneFunction:
    """Built-in functions: power(lam), arithmetic(t), harmonic(t), uniform.

    power(lam) carries the density sin(lam pi)/pi * t^(lam-1) (1-t)^(-lam);
    arithmetic(t) the endpoint atoms {(0, 1-t), (1, t)}; harmonic(t) the
    single atom {(t, 1)}; uniform the flat density on [0, 1].
    """
    if name == "power":
        if param is None or not 0.0 < param < 1.0:
            raise ParameterError(f"power requires lambda in (0, 1), got {param}")
        lam = float(param)
        density = DensitySpec(coeff=math.sin(lam * math.pi) / math.pi, exp0=lam - 1.0, exp1=-lam)
        return _make_function("power", MeasureSpec(density=density), _power_scalar(lam), lam, lam)
    if name == "arithmetic":
        if param is None or not 0.0 < param < 1.0:
            raise ParameterError(f"arithmetic requires t in (0, 1), got {param}")
        t = float(param)
        measure = MeasureSpec(atoms=((0.0, 1.0 - t), (1.0, t)))
        return _make_function("arithmetic", measure, _arithmetic_scalar(t), t, t)
    if name == "harmonic":
        if param is None or not 0.0 < param < 1.0:
            raise ParameterError(f"harmonic requires t in (0, 1), got {param}")
        t = float(param)
        measure = MeasureSpec(atoms=((t, 1.0),))
        return _make_function("harmonic", measure, _harmonic_scalar(t), t, t)
    if name == "uniform":
        if param is not None:
            raise ParameterError("uniform takes no parameter")
        measure = MeasureSpec(density=DensitySpec(coeff=1.0, exp0=0.0, exp1=0.0))
        return _make_function("uniform", measure, _uniform_scalar, 0.5)
    raise ParameterError(f"unknown catalog function {name!r}")


def standard_catalog() -> tuple[MonotoneFunction, ...]:
    """The six instances exercised throughout the verification suite."""
    return (
        catalog("power", 0.3),
        catalog("power", 0.5),
        catalog("power", 0.7),
        catalog("uniform"),
        catalog("harmonic", 0.4),
        catalog("arithmetic", 0.6),
    )


def _balance(d: DensitySpec, pencil, inverses) -> float:
    """The scale c of _integrate for density d on pencil = [P, Q]: a power of two, or 1.

    inverses = [P^{-1}, Q^{-1}].  The integrand ((1-t) P + t Q)^{-1} has a
    pole at t = 1/(1 - mu) for each eigenvalue mu of P^{-1} Q, near t = 0
    for a large mu and near t = 1 for a small one, so the order the doubling
    needs grows with the distance of the spectrum from 1.  In u (see
    _integrate) mu moves to mu/c.  The spectrum lies within [2^lo, 2^hi], lo
    and hi from the entrywise max norms of P, Q and their inverses, and c is
    the centre 2^((lo+hi)/2) rounded to a power of two (so Q/c is exact), or
    1 when that centre lies within a factor 4 of 1.  Its exponent is clamped
    to [-1022, 1023], so c stays a finite normal double; a spectrum that
    this c cannot centre is left to the doubling, which refuses it.  Unless
    e0 + e1 = -1 (every power density), the weight factor of _integrate has
    a pole where t is infinite, as an eigenvalue 1 would, so the interval is
    widened to hold 1 first.
    """
    p, q, p_inv, q_inv = np.abs(np.array((*pencil, *inverses))).max(axis=(1, 2)).tolist()
    hi = math.log2(q) + math.log2(p_inv)
    lo = -math.log2(p) - math.log2(q_inv)
    if abs(d.exp0 + d.exp1 + 1.0) > 1e-12:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    centre = (lo + hi) / 2.0
    return 1.0 if abs(centre) <= 2.0 else 2.0 ** min(max(round(centre), -1022), 1023)


def _integrate(P, Q, measure: MeasureSpec, plan=None, ends=None):
    """(integral of ((1-t) P + t Q)^{-1} over the measure, its plan (order, scale)).

    The one quadrature of the package, and the one place its plan is made.
    The density is integrated in u = c t / (1 - t + c t), the Moebius map of
    [0, 1] with t = u / D and D = c (1-u) + u: the density
    t^e0 (1-t)^e1 dt becomes u^e0 (1-u)^e1 c^(e1+1) D^-(e0+e1+2) du and the
    resolvent (D/c) ((1-u) P + u Q/c)^{-1}, so the same Gauss-Jacobi rules
    apply to the pencil (P, Q/c), each weight times c^e1 D^-(e0+e1+1).  For a
    power density (e0 + e1 = -1) that factor is the constant c^e1, the
    homogeneity of the mean.  At c = 1 every factor is exactly 1.
    Without a plan the scale c is _balance's for the pencil, from ends when
    given and otherwise from one inversion of [P, Q], and the order is the
    doubling's (see _converged); a route that must run at the nodes of
    another passes that route's plan, which is used as is.  The resolvents
    at the density nodes of every order _converged asks for go to
    solve_stack in one batch (an interior atom is a batch of one).
    ends = (P^{-1}, Q^{-1}), when given, are the exact values of atoms at
    t = 0 and t = 1.  Summation order is fixed: atoms in declaration order,
    then nodes by index.  Pure-atom measures are exact: they are evaluated
    once, unchecked, and report the plan (0, 1.0).
    """
    def resolvents(a, b):
        return solve_stack(a[:, None, None] * P + b[:, None, None] * Q)

    total = None
    for t, w in measure.atoms:
        if ends is not None and t in (0.0, 1.0):
            term = w * ends[int(t)]
        else:
            term = w * resolvents(np.array([1.0 - t]), np.array([t]))[0]
        total = term if total is None else total + term
    d = measure.density
    if d is None:
        return total, (0, 1.0)
    if plan is None:
        inverses = solve_stack(np.stack([P, Q])) if ends is None else ends
        plan = (None, _balance(d, (P, Q), inverses))
    order, c = plan

    def weights(rule):
        w = d.coeff * rule.weights
        if c == 1.0:
            return w
        u = rule.nodes
        return w * (c ** d.exp1 * (c * (1.0 - u) + u) ** -(d.exp0 + d.exp1 + 1.0))

    def compute(orders):
        rules = [gauss_jacobi_rule(d.exp0, d.exp1, k) for k in orders]
        u = np.concatenate([rule.nodes for rule in rules])
        # u/c Q = u (Q/c) to the bit: c is a power of two
        stack = resolvents(1.0 - u, u / c)
        values, start = [], 0
        for rule in rules:
            part = np.einsum("k,kij->ij", weights(rule), stack[start:start + rule.order])
            values.append(part if total is None else total + part)
            start += rule.order
        return values

    X, order = _converged(compute, order)
    return X, (order, c)


def _sigma(A: np.ndarray, B: np.ndarray, measure: MeasureSpec, plan=None):
    """(integral of A !_t B over the measure, the quadrature plan taken).

    A !_t B = ((1-t) A^{-1} + t B^{-1})^{-1}, exactly A and B at t = 0, 1:
    _integrate on the inverted pair, with A and B as its ends, so the plan
    is chosen there unless one is given.  sigma_mean is this at (A, B), f(A)
    at (I, A), and the weighted harmonic mean at a single atom.  A and B
    come accretive: checked by the public means and f(A), or accretive by
    construction in the suite engine.
    """
    P, Q = solve_stack(np.stack([A, B]))
    return _integrate(P, Q, measure, plan, ends=(A, B))


def apply_function(f: MonotoneFunction, A) -> np.ndarray:
    """f(A) = I sigma_f A, the harmonic-mean integral of the measure at (I, A).

    The input must be accretive and the result is checked to be accretive in
    turn.  The quadrature order is chosen by doubling until the result moves
    by at most 1e-8 relative (pure-atom measures are exact and skip it).
    """
    A = require_accretive(A)
    eye = np.eye(A.shape[0], dtype=np.complex128)
    F, _ = _sigma(eye, A, f.measure)
    ok, margin = is_accretive(F)
    if not ok:
        raise NumericFailureError(
            f"f(A) lost accretivity (margin {margin:.3e}); input likely ill-conditioned"
        )
    return F


@dataclass(frozen=True)
class DunfordContour:
    """Ellipse w = c + d cos(theta - i eta) in the log plane w = log z.

    Its image z = exp(w) is a closed curve in C \\ (-inf, 0] while
    d sinh(eta) < pi; ``nodes`` equispaced theta sample it.
    """

    c: float
    d: float
    eta: float
    nodes: int


def choose_contour(A) -> DunfordContour:
    """Ellipse in the log plane around the numerical range of accretive A.

    W(A) lies in {Re z >= m, |z| <= ||A||, |arg z| <= alpha} (m and alpha
    from sector.certify), whose logarithm lies in the rectangle
    [log m, log ||A||] x [-alpha, alpha] of center c and half-width h.  The
    confocal ellipses c + d cos(theta - i eta) contain the rectangle from
    eta_in on, where C = cosh^2 eta_in is the larger root of
    d^2 C^2 - (d^2 + h^2 + alpha^2) C + h^2 = 0, and stay in |Im w| < pi,
    where every catalog f is analytic, below d sinh eta_out = pi (Hale,
    Higham & Trefethen, SIAM J. Numer. Anal. 46, 2008).  A scan over d
    maximises eta_out - eta_in and the contour sits at the middle eta, so
    the trapezoid rule's error decays like exp(-nodes (eta_out - eta_in) / 2)
    (Trefethen & Weideman, SIAM Review 56, 2014); nodes is 10% above the
    count where that reaches 1e-12, rounded up to a multiple of 8.
    """
    cert = certify(A)
    lo, hi = math.log(cert.m), math.log(linalg.opnorm(A))
    c, h, a = (lo + hi) / 2.0, (hi - lo) / 2.0, cert.alpha
    d = np.geomspace(1e-3, 1e3, 241) * max(h, a, 1e-3)
    # the discriminant (d^2 + h^2 + a^2)^2 - 4 d^2 h^2, written without cancellation
    disc = (d * d - h * h) ** 2 + a * a * (2.0 * (d * d + h * h) + a * a)
    C = np.maximum((d * d + h * h + a * a + np.sqrt(disc)) / (2.0 * d * d), 1.0)
    eta_in = np.arccosh(np.sqrt(C))
    eta_out = np.arcsinh(math.pi / d)
    k = int(np.argmax(eta_out - eta_in))
    nodes = 8 * math.ceil(1.1 * 2.0 * math.log(1e12) / (eta_out[k] - eta_in[k]) / 8.0)
    eta = float(eta_in[k] + eta_out[k]) / 2.0
    return DunfordContour(c=c, d=float(d[k]), eta=eta, nodes=max(16, nodes))


def dunford_apply(f: MonotoneFunction, A, contour: DunfordContour) -> np.ndarray:
    """f(A) = (1/2 pi i) * contour integral of f(z) (zI - A)^{-1} dz for accretive A.

    On z = exp(c + d cos(theta - i eta)) the integrand is periodic and
    analytic in theta, so the trapezoid rule converges geometrically; the
    independent cross-check against apply_function.  The resolvents go
    through solve_stack _CHUNK nodes at a time, so memory stays
    O(_CHUNK n^2) whatever the node count.
    """
    A = require_accretive(A)
    if contour.nodes < 16:
        raise ParameterError("contour needs at least 16 nodes")
    d, eta = contour.d, contour.eta
    if not (d > 0.0 and eta > 0.0 and d * math.sinh(eta) < math.pi):
        raise ParameterError("contour ellipse must stay in |Im log z| < pi")
    n, N = A.shape[0], contour.nodes
    phase = 2.0 * math.pi * np.arange(N) / N - 1j * eta
    z = np.exp(contour.c + d * np.cos(phase))
    fz = np.asarray(f.scalar_form(z), dtype=np.complex128)
    # dz = z w'(theta) dtheta with w' = -d sin(phase), and 2 pi / N per node over 2 pi i
    weights = 1j * d * np.sin(phase) * z * fz / N
    F = np.zeros((n, n), dtype=np.complex128)
    eye = np.eye(n)
    for k in range(0, N, _CHUNK):
        resolvents = solve_stack(z[k:k + _CHUNK, None, None] * eye - A)
        F += np.tensordot(weights[k:k + _CHUNK], resolvents, 1)
    return F


def scalar_eval(f: MonotoneFunction, z: complex) -> complex:
    """Closed-form principal-branch evaluation of f at z off (-inf, 0]."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise InvalidInputError(f"z = {z} lies on the branch cut (-inf, 0]")
    return complex(np.asarray(f.scalar_form(z)).reshape(()))
