"""Matrix monotone functions and their functional calculus on accretive matrices.

A normalized matrix monotone function f (f(1) = 1) carries a probability
measure nu_f on [0, 1] through which

    f(A) = integral over [0,1] of  I !_t A  d nu_f(t),

where I !_t A = ((1-t) I + t A^{-1})^{-1} is the weighted harmonic mean with
the identity: f(A) = I sigma_f A.  _integrate is the one quadrature of the
package: it integrates the resolvent ((1-t) P + t Q)^{-1}, the weighted
harmonic mean P^{-1} !_t Q^{-1}, over a measure.  _sigma, the one entry
point for A sigma_f B, inverts its pair once and hands it on; a caller that
integrates a pencil of its own inverts it itself.  The measure is
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
the module's central cross-check.  Both are weighted sums of resolvents
(a P + b Q)^{-1} of one pencil, at the atoms and nodes of the measure and at
the contour nodes, and one kernel, _resolvent_sums, builds, batches and sums
all of them.
"""

from __future__ import annotations


import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from . import linalg
from .errors import InvalidInputError, NumericFailureError, ParameterError, integer
from .linalg import (
    as_matrix,
    read_only,
    require_accretive,
    solve_stack,
    stack_maxabs,
)
from .sector import certify

_START_ORDER = 8
_MAX_ORDER = 512
_DRIFT_TOL = 1e-8
# complex entries of one resolvent batch of _resolvent_sums (1 MiB); a batch
# holds whole samples while one fits, and else part of one sample's nodes, so
# only a single n x n matrix can exceed it
_STACK_ENTRIES = 2**16
_batches = threading.local()


def _batch_buffer(shape) -> np.ndarray:
    """An uninitialised complex array of the given shape in this thread's batch buffer.

    The pencils of _resolvent_sums are built here, so every batch reuses
    the same pages.  Freed instead, they would go back to the kernel and
    fault in again for the next batch: glibc trims its heap once twice its
    largest freed block is free, which 1 MiB batches reach.  The buffer
    grows to the largest batch so far, and a shape of more than
    _STACK_ENTRIES entries (one matrix past the budget) gets an array of its
    own.  The buffer is per thread, so threads never share a pencil.
    """
    size = math.prod(shape)
    if size > _STACK_ENTRIES:
        return np.empty(shape, dtype=np.complex128)
    buf = getattr(_batches, "buf", None)
    if buf is None or buf.size < size:
        buf = _batches.buf = np.empty(size, dtype=np.complex128)
    return buf[:size].reshape(shape)


def _drift(X: np.ndarray, X2: np.ndarray):
    """The relative move max|X2 - X| / max|X| of a matrix, or of each matrix of a stack."""
    return stack_maxabs(X2 - X) / stack_maxabs(X)


def _not_converged(order: int, drift: float) -> NumericFailureError:
    return NumericFailureError(
        f"quadrature not converged at order {order}: doubling moves by {drift:.3e}"
    )


def _converged(compute: Callable, order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature values of a stack of samples, and the order each was taken at.

    compute(orders, rows) evaluates the quadrature of the samples at the
    index array ``rows`` (all of them by default) at each of the given
    orders in one batch and returns one stack per order.  Each sample's
    order is chosen by doubling from _START_ORDER: orders 8 and 16 share one
    batch, and a sample's higher-order value is returned once doubling
    moves it by at most 1e-8 relative to its size (the entrywise max norm,
    so a result far below 1 is held to the same relative test as any
    other).  The pending samples are tracked as an index array from the
    first step: a sample that has settled drops out of it, and only the
    pending ones are evaluated at the next order, so every sample gets the
    order it would get alone.  A larger move at _MAX_ORDER, or one that is
    not a number, raises NumericFailureError for the first such sample.
    The orders come back as an array, one per sample.  A pinned order is
    computed as given, for every sample; only routes that must run at the
    nodes of an order already chosen pin one.
    """
    if order:
        X = compute((order,))[0]
        return X, np.full(len(X), order)
    order = 2 * _START_ORDER
    X, X2 = compute((_START_ORDER, order))
    values, orders, rows = X2, np.full(len(X2), order), np.arange(len(X2))
    while True:
        drift = _drift(X, X2)
        late = ~(drift <= _DRIFT_TOL)
        if not late.any():
            return values, orders
        if order >= _MAX_ORDER:
            raise _not_converged(order // 2, drift[late][0])
        rows, X, order = rows[late], X2[late], 2 * order
        X2 = compute((order,), rows)[0]
        values[rows], orders[rows] = X2, order


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
        if not 0.0 < w < math.inf:
            raise ParameterError(f"atom weight {w} must be positive and finite")
        if t in seen:
            raise ParameterError(f"duplicate atom position {t}")
        seen.add(t)
    # a density's exponents are checked by gauss_jacobi_rule, which _moment calls on them
    d = measure.density
    if d is not None and not 0.0 < d.coeff < math.inf:
        raise ParameterError(f"density coefficient {d.coeff} must be positive and finite")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for the weight t^exp0 (1-t)^exp1 on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), by lgamma where Gamma(a + b) overflows."""
    if a + b < 171.0:
        return math.gamma(a) / math.gamma(a + b) * math.gamma(b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@lru_cache(maxsize=256)
def _cached_rule(exp0: float, exp1: float, order: int) -> QuadratureRule:
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    # weight t^exp0 (1-t)^exp1, taken by numpy's dense Hermitian eigensolver
    # from its lower triangle (as fast as a tridiagonal solver at the orders
    # up to 64 that the suite builds).  The weights are the Christoffel
    # numbers mu0 / sum_k p_k(x)^2 of the orthonormal polynomials p_k at the
    # nodes (mu0 times the squared first eigenvector components, without the
    # eigenvectors), with mu0 = B(exp0 + 1, exp1 + 1).  The three-term
    # recurrence is the one of the Jacobi polynomials on [-1, 1] for the
    # weight (1-x)^a (1+x)^b with a = exp1, b = exp0, shifted to t = (1+x)/2.
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
    J = np.diag(diag[:order]) + np.diag(off[:order - 1], -1)
    x = np.linalg.eigvalsh(J).astype(np.longdouble)
    # y = (p_j, p_j') at every node, and sums = (sum p_k^2, sum p_k p_k') up
    # to the current j; the derivative of sum p_k^2 is twice the second sum
    y_prev, y, sums = np.zeros((3, 2, order), dtype=np.longdouble)
    y[0] = 1.0
    for j in range(order):
        sums += y[0] * y
        y_next = (x - diag[j]) * y
        y_next[1] += y[0]
        if j:
            y_next -= off[j - 1] * y_prev
        y_prev, y = y, y_next / off[j]
    (p, dp), (total, dtotal) = y, (sums[0], 2.0 * sums[1])
    step = p / dp
    nodes = ((x + 1.0 - step) / 2.0).astype(float)
    weights = (_beta(exp0 + 1.0, exp1 + 1.0) / (total - dtotal * step)).astype(float)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def gauss_jacobi_rule(exp0: float, exp1: float, order: int) -> QuadratureRule:
    """Nodes interior to (0, 1), positive weights, degree 2*order - 1 exact."""
    if not (-1.0 < exp0 < math.inf and -1.0 < exp1 < math.inf):
        raise ParameterError(f"exponents must be finite and exceed -1, got ({exp0}, {exp1})")
    if not 2 <= integer(order, "order") <= _MAX_ORDER:
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
    """A normalized matrix monotone function and its measure, which construction checks."""

    name: str
    measure: MeasureSpec
    scalar_form: Callable
    derivative_at_one: float
    param: float | None = None

    def __post_init__(self):
        mass = measure_mass(self.measure)
        if abs(mass - 1.0) > 1e-10:
            raise ParameterError(f"measure mass {mass} is not 1")
        mean = measure_mean(self.measure)
        if abs(mean - self.derivative_at_one) > 1e-10:
            raise ParameterError(f"measure mean {mean} != f'(1) = {self.derivative_at_one}")
        f1 = complex(np.asarray(self.scalar_form(1.0 + 0.0j)).reshape(()))
        if abs(f1 - 1.0) > 1e-12:
            raise ParameterError(f"f(1) = {f1} violates the normalization f(1) = 1")

    def describe(self) -> dict:
        return {"name": self.name, "param": self.param}

    def __str__(self):
        return self.name if self.param is None else f"{self.name}({self.param:g})"


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


CATALOG_NAMES = ("power", "arithmetic", "harmonic", "uniform")


def catalog(name: str, param: float | None = None) -> MonotoneFunction:
    """Built-in functions: power(lam), arithmetic(t), harmonic(t), uniform.

    power(lam) carries the density sin(lam pi)/pi * t^(lam-1) (1-t)^(-lam);
    arithmetic(t) the endpoint atoms {(0, 1-t), (1, t)}; harmonic(t) the
    single atom {(t, 1)}; uniform the flat density on [0, 1].  Each
    (name, param) is built and checked once: the same object comes back for
    it, and for a numpy scalar or 0-d array of the same value.  A param
    that is not a real number raises ParameterError.
    """
    if param is not None and (np.ndim(param) or np.asarray(param).dtype.kind not in "iuf"):
        raise ParameterError(f"{name} parameter must be a real number, got {param!r}")
    return _catalog(name, np.asarray(param).item())


@lru_cache(maxsize=256)
def _catalog(name: str, param) -> MonotoneFunction:
    if name == "uniform":
        if param is not None:
            raise ParameterError("uniform takes no parameter")
        measure = MeasureSpec(density=DensitySpec(coeff=1.0, exp0=0.0, exp1=0.0))
        return MonotoneFunction("uniform", measure, _uniform_scalar, 0.5)
    if name not in CATALOG_NAMES:
        raise ParameterError(f"unknown catalog function {name!r}")
    if param is None or not 0.0 < param < 1.0:
        symbol = "lambda" if name == "power" else "t"
        raise ParameterError(f"{name} requires {symbol} in (0, 1), got {param}")
    p = float(param)
    if name == "power":
        density = DensitySpec(coeff=math.sin(p * math.pi) / math.pi, exp0=p - 1.0, exp1=-p)
        return MonotoneFunction("power", MeasureSpec(density=density),
                                lambda z: np.power(np.asarray(z, dtype=np.complex128), p), p, p)
    if name == "arithmetic":
        return MonotoneFunction("arithmetic", MeasureSpec(atoms=((0.0, 1.0 - p), (1.0, p))),
                                lambda z: (1.0 - p) + p * np.asarray(z, dtype=np.complex128), p, p)
    return MonotoneFunction("harmonic", MeasureSpec(atoms=((p, 1.0),)),
                            lambda z: 1.0 / ((1.0 - p) + p / np.asarray(z, dtype=np.complex128)),
                            p, p)


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


def _balance(densities, pencil, inverses):
    """The scale c of _integrate for each sample of pencil = (P, Q): a power of two, or 1.

    densities holds each sample's density and inverses = (P^{-1}, Q^{-1});
    the scales come in an array of the leading shape of P and Q.  The
    integrand ((1-t) P + t Q)^{-1} has a pole at t = 1/(1 - mu) for each
    eigenvalue mu of P^{-1} Q, near t = 0 for a large mu and near t = 1 for
    a small one, so the order the doubling needs grows with the distance of
    the spectrum from 1.  In u (see
    _integrate) mu moves to mu/c.  The spectrum lies within [2^lo, 2^hi],
    lo and hi from the entrywise max norms of P, Q and their inverses, and
    c is the centre 2^((lo+hi)/2) rounded to a power of two (so Q/c is
    exact), or 1 when that centre lies within a factor 4 of 1.  Its
    exponent is clamped to [-1022, 1023], so c stays a finite normal
    double; a spectrum that this c cannot centre is left to the doubling,
    which refuses it.  Unless e0 + e1 = -1 (every power density), the
    weight factor of _integrate has a pole where t is infinite, as an
    eigenvalue 1 would, so the interval is widened to hold 1 first.
    """
    shape = pencil[0].shape[:-2]
    samples = stack_maxabs(np.array((*pencil, *inverses))).reshape(4, -1).T.tolist()

    def scale(d, p, q, p_inv, q_inv):
        hi = math.log2(q) + math.log2(p_inv)
        lo = -math.log2(p) - math.log2(q_inv)
        if abs(d.exp0 + d.exp1 + 1.0) > 1e-12:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        centre = (lo + hi) / 2.0
        return 1.0 if abs(centre) <= 2.0 else 2.0 ** min(max(round(centre), -1022), 1023)

    return np.array([scale(d, *sample) for d, sample in zip(densities, samples)]).reshape(shape)


def _resolvent_sums(P, Q, a, b, W, bounds) -> list:
    """Each group's sum of w_k (a_k P + b_k Q)^{-1}, for each sample of the stacks P and Q.

    The one place resolvents are built and solved: the density nodes and
    the atoms of _integrate and the contour nodes of dunford_apply all come
    here.  a, b and W hold the coefficients and weights of K nodes, one row
    per sample, and bounds = [0, ..., K] cuts the nodes into groups: one
    stack of sums, shaped as P, comes back per group.  The resolvents go to
    solve_stack in batches of at most _STACK_ENTRIES complex entries (or one
    matrix): a batch holds as many whole samples as fit, and a sample whose
    nodes alone do not fit is split by node, each part's weighted sum added
    to its group's.  So memory is O(_STACK_ENTRIES + samples n^2) at any
    node count and n, and a split by sample only keeps every bit.  Each
    group is summed over its nodes by index.
    """
    n, K = P.shape[-1], a.shape[1]
    sums = [np.empty(P.shape, dtype=np.complex128) for _ in bounds[1:]]
    # samples per batch, and nodes per batch: all K unless one sample overflows
    step = max(1, _STACK_ENTRIES // (K * n * n))
    width = min(K, max(1, _STACK_ENTRIES // (n * n)))
    for lo in range(0, len(P), step):
        part = slice(lo, lo + step)
        Pp, Qp = P[part, None], Q[part, None]
        for k in range(0, K, width):
            nodes = slice(k, k + width)
            # stack: the pencil, built in the batch buffer, then its
            # resolvents, deleted after use: besides the buffer, one
            # batch-sized array (the second product, then the resolvents) is
            # live at a time.  The coefficients are made complex first, as
            # the product would cast them anyway, so the products take
            # numpy's complex loop without a buffered cast.
            ak, bk = (x[part, nodes].astype(np.complex128)[:, :, None, None] for x in (a, b))
            stack = _batch_buffer((len(Pp), ak.shape[1], n, n))
            np.multiply(ak, Pp, out=stack)
            stack += bk * Qp
            stack = solve_stack(stack.reshape(-1, n, n)).reshape(stack.shape)
            # each group's nodes [b0, b1) that fall in this batch's [k, k + width)
            for X, b0, b1 in zip(sums, bounds, bounds[1:]):
                k0, k1 = max(b0, k), min(b1, k + width)
                if k0 < k1:
                    term = np.einsum("...k,...kij->...ij", W[part, k0:k1], stack[:, k0 - k:k1 - k])
                    if k0 == b0:
                        X[part] = term
                    else:
                        X[part] += term
            del stack
    return sums


@lru_cache(maxsize=256)
def _nodes(d: DensitySpec, orders: tuple, c: float) -> tuple:
    """Nodes u and weights W of _integrate for density d at scale c, read-only.

    u holds the nodes of the given orders' rules in one row, and W their
    weights, those of the rule times the factor c^e1 D^-(e0+e1+1) of the
    change of variable (see _integrate), exactly 1 at c = 1.
    """
    rules = [gauss_jacobi_rule(d.exp0, d.exp1, k) for k in orders]
    u = np.concatenate([rule.nodes for rule in rules])
    W = d.coeff * np.concatenate([rule.weights for rule in rules])
    if c != 1.0:
        W = W * (c ** d.exp1 * (c * (1.0 - u) + u) ** -(d.exp0 + d.exp1 + 1.0))
    return read_only(u[None]), read_only(W[None])


def _integrate(P, Q, measure, plan=None, ends=None):
    """(integral of ((1-t) P + t Q)^{-1} over the measure, its plan (orders, scales)).

    The one quadrature of the package, and the one place its plan is made.
    P and Q are matrices or (..., n, n) stacks of them, integrated sample by
    sample (a matrix is a stack of one), and measure is one MeasureSpec or
    one per sample.  The measures of a stack must agree on their atom count
    and on carrying a density.  Each sample gets its own plan, an order and
    a scale, returned as two arrays of the leading shape (0-d for a
    matrix).  A plan given to be used as is is one order and one scale, for
    every sample.  Every resolvent is summed by _resolvent_sums, its
    positions, nodes and weights one row per sample: the atoms of all
    samples in one call, and the density nodes in one call per step of the
    doubling.  ends = (P^{-1}, Q^{-1}), from the caller, are the exact
    values of an atom that lies at t = 0, or at t = 1, in every sample,
    which is then not solved.  The density is integrated in
    u = c t / (1 - t + c t), the Moebius map of [0, 1] with t = u / D and
    D = c (1-u) + u: the density t^e0 (1-t)^e1 dt becomes
    u^e0 (1-u)^e1 c^(e1+1) D^-(e0+e1+2) du and the resolvent
    (D/c) ((1-u) P + u Q/c)^{-1}, so the same Gauss-Jacobi rules apply to
    the pencil (P, Q/c), each weight times c^e1 D^-(e0+e1+1).  For a power
    density (e0 + e1 = -1) that factor is the constant c^e1, the homogeneity
    of the mean, and u/c Q = u (Q/c) to the bit, c being a power of two.
    At c = 1 every factor is exactly 1.  Without a plan the scale c is
    _balance's for the pencil and its ends, which a density then needs, and
    the order is the doubling's (see _converged); a route that must run at
    the nodes of another passes that route's plan, which is used as is.
    Summation order is fixed: the atoms taken from ends, the solved atoms,
    then the density nodes, each by index.
    Pure-atom measures are exact: they are evaluated once, unchecked, at
    order 0 and scale 1.
    """
    shape, n = P.shape, P.shape[-1]
    P, Q = P.reshape(-1, n, n), Q.reshape(-1, n, n)
    count = len(P)
    if ends is not None:
        ends = (ends[0].reshape(-1, n, n), ends[1].reshape(-1, n, n))
    measures = [measure] * count if isinstance(measure, MeasureSpec) else list(measure)
    if len({(len(m.atoms), m.density is None) for m in measures}) > 1:
        raise ParameterError("the measures of a stack must agree on their atom count "
                             "and on carrying a density")
    total, lead = None, shape[:-2]
    if measures[0].atoms:
        t, w = np.array([m.atoms for m in measures], dtype=float).transpose(2, 0, 1)
        # with ends, an atom at 0 or at 1 in every sample is taken from them
        solved = []
        for j, tj in enumerate(t.T.tolist()):
            if ends is not None and tj[0] in (0.0, 1.0) and tj.count(tj[0]) == len(tj):
                term = w[:, j, None, None] * ends[int(tj[0])]
                total = term if total is None else total + term
            else:
                solved.append(j)
        if solved:
            t, w = t[:, solved], w[:, solved]
            term = _resolvent_sums(P, Q, 1.0 - t, t, w, (0, len(solved)))[0]
            total = term if total is None else total + term
    if measures[0].density is None:
        return total.reshape(shape), (np.zeros(lead, dtype=int), np.ones(lead))
    # an array, so that compute's rows (a slice or an index array) select from it
    densities = np.array([m.density for m in measures], dtype=object)
    if plan is None:
        order, scales = None, _balance(densities, (P, Q), ends)
    else:
        order, scales = int(plan[0]), np.full(count, float(plan[1]))

    def compute(orders, rows=slice(None)):
        """Each order's value for the samples rows (all of them by default)."""
        c = scales[rows]
        tables = [_nodes(d, orders, ck) for d, ck in zip(densities[rows], c.tolist())]
        u, W = (np.concatenate(x) for x in zip(*tables))
        values = _resolvent_sums(P[rows], Q[rows], 1.0 - u, u / c[:, None], W,
                                 [0, *accumulate(orders)])
        return values if total is None else [total[rows] + X for X in values]

    X, orders = _converged(compute, order)
    return X.reshape(shape), (orders.reshape(lead), scales.reshape(lead))


def _sigma(A: np.ndarray, B: np.ndarray, measure):
    """(integral of A !_t B over the measure, its plan (orders, scales)).

    A !_t B = ((1-t) A^{-1} + t B^{-1})^{-1}, exactly A and B at t = 0, 1:
    _integrate on the pair inverted once here, with A and B as its ends, so
    the plan is chosen there and comes back in its arrays.  A and B are
    matrices or stacks of them, taken sample by sample, and measure one
    MeasureSpec or one per sample, which agree on their atom count and on
    carrying a density (see _integrate).  sigma_mean is this at (A, B), f(A)
    at (I, A), and the weighted harmonic mean at a single atom, one per
    sample for a weight drawn per sample; the suite engine calls it on the
    stacks of an ensemble.  A and B come accretive: checked by the public
    means and f(A), or accretive by construction in the suite engine.
    """
    n = A.shape[-1]
    P, Q = solve_stack(np.array((A, B)).reshape(-1, n, n)).reshape(2, *A.shape)
    return _integrate(P, Q, measure, ends=(A, B))


def apply_function(f: MonotoneFunction, A) -> np.ndarray:
    """f(A) = I sigma_f A, the harmonic-mean integral of the measure at (I, A).

    The input must be accretive and the result is checked to be accretive in
    turn.  The quadrature order is chosen by doubling until the result moves
    by at most 1e-8 relative (pure-atom measures are exact and skip it).
    """
    A = as_matrix(A)
    require_accretive(A)
    F, _ = _sigma(np.eye(A.shape[0], dtype=np.complex128), A, f.measure)
    ok, margin, _ = linalg._accretivity(F)
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

    W(A) lies in {Re z >= m, |z| <= ||A||, |arg z| <= alpha} (m, ||A|| and
    alpha from sector.certify), whose logarithm lies in the rectangle
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
    cert = certify(as_matrix(A))
    lo, hi = math.log(cert.m), math.log(cert.norm)
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
    independent cross-check against apply_function.  The ellipse must
    stay in |Im w| < pi and hold the rectangle [log m, log ||A||] x
    [-alpha, alpha] that holds log W(A) (see choose_contour): all four
    corners inside its semi-axes d cosh eta and d sinh eta, which a centre
    c that is not finite fails.  The sum is _resolvent_sums' on the pencil
    (I, A) with coefficients (z, -1), so memory stays bounded whatever the
    node count.
    """
    A = as_matrix(A)
    cert = certify(A)
    N = integer(contour.nodes, "contour nodes")
    if N < 16:
        raise ParameterError("contour needs at least 16 nodes")
    d, eta = contour.d, contour.eta
    if not (d > 0.0 and eta > 0.0 and d * math.sinh(eta) < math.pi):
        raise ParameterError("contour ellipse must stay in |Im log z| < pi")
    # the corners (x, +-alpha) for x = log m and log ||A||
    x = np.array([math.log(cert.m), math.log(cert.norm)]) - contour.c
    y = cert.alpha / (d * math.sinh(eta))
    if not np.all((x / (d * math.cosh(eta))) ** 2 + y * y < 1.0):
        raise ParameterError(f"contour ellipse centred at {contour.c} does not enclose "
                             "the sector of A")
    phase = 2.0 * math.pi * np.arange(N) / N - 1j * eta
    z = np.exp(contour.c + d * np.cos(phase))
    fz = np.asarray(f.scalar_form(z), dtype=np.complex128)
    # dz = z w'(theta) dtheta with w' = -d sin(phase), and 2 pi / N per node over 2 pi i
    weights = 1j * d * np.sin(phase) * z * fz / N
    eye = np.eye(A.shape[0], dtype=np.complex128)
    return _resolvent_sums(eye[None], A[None], z[None], np.full((1, N), -1.0), weights[None],
                           (0, N))[0][0]


def scalar_eval(f: MonotoneFunction, z: complex) -> complex:
    """Closed-form principal-branch evaluation of f at z off (-inf, 0]."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise InvalidInputError(f"z = {z} lies on the branch cut (-inf, 0]")
    return complex(np.asarray(f.scalar_form(z)).reshape(()))
