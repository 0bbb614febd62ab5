"""Named numerical checks, one per inequality or identity in the catalog.

Every check draws operand ensembles deterministically from (seed, index),
certifies the sector data per sample, evaluates both sides of its statement
and reports the worst normalized margin.  A check is evaluated over the
whole ensemble at once: its operands are (S, n, n) stacks, one matrix per
sample, and every kernel works sample by sample along the leading axis, so
each sample's margin is the one it would get alone, to the bit.  Loewner
comparisons go through ``linalg.loewner_leq`` on Hermitian parts; scalar and
norm comparisons use (rhs - lhs) / (1 + |rhs| + |lhs|); identities report
the negated relative deviation.  A check passes when the minimum margin
survives -TAU_LOEWNER (order checks) or -TAU_EQ (identity checks).
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import funcalc, linalg, sector
from .errors import InvalidInputError, NumericFailureError, ParameterError
from .funcalc import MeasureSpec, MonotoneFunction, catalog, scalar_eval, standard_catalog
from .linalg import (
    NormKind,
    TAU_EQ,
    TAU_LOEWNER,
    diag_matrix,
    kyfan,
    loewner_leq,
    opnorm,
    read_only,
    solve_stack,
    stack_maxabs,
    uinorm,
)
from .maps import PositiveLinearMap, apply_map, is_unital, random_map
from .means import scalar_sigma
from .sector import EnsembleSpec, random_sectorial


def kantorovich_constant(m: float, M: float) -> float:
    """K(m, M) = (M + m)^2 / (4 M m) for 0 < m <= M."""
    if not 0.0 < m <= M:
        raise ParameterError(f"need 0 < m <= M, got m={m}, M={M}")
    return (M + m) ** 2 / (4.0 * M * m)


# Margins and operands of a stack: every function below works sample by
# sample along the leading axis and returns one margin per sample.

def _lm(X, Y) -> np.ndarray:
    """Loewner margin of X <= Y."""
    return loewner_leq(X, Y).margin


def _sm(lhs, rhs):
    """Scalar margin of lhs <= rhs, normalized scale-free."""
    return (rhs - lhs) / (1.0 + abs(rhs) + abs(lhs))


def _dev(X, Y) -> np.ndarray:
    """Identity margin: negated relative deviation between X and Y."""
    return -stack_maxabs(X - Y) / (1.0 + stack_maxabs(X) + stack_maxabs(Y))


_H = linalg.hermitian


def _scaled(k, X) -> np.ndarray:
    """k X for a scalar k or one k per sample."""
    return np.asarray(k)[..., None, None] * X


def _nabla(X, Y, t) -> np.ndarray:
    """The arithmetic mean X nabla_t Y = (1-t) X + t Y, one t or one per sample."""
    return _scaled(1.0 - np.asarray(t), X) + _scaled(t, Y)


def _each(fn, *columns) -> np.ndarray:
    """fn of Python scalars, sample by sample, as an array over the stack.

    Scalar formulas (powers, logs, complex division) run here as they run on
    one sample, so their bits do not depend on numpy's vector kernels.
    """
    return np.array([fn(*row) for row in zip(*(np.asarray(c).tolist() for c in columns))])


_T_GRID = np.arange(1, 10) / 10.0


class _Ensemble:
    """Samples ``indices`` (all of the spec's by default) of a spec: their
    operand pairs as read-only (S, n, n) stacks A, B, Re A, Re B and I (the
    roles), each pair's certified m and M and the cos/sec factors of its
    angle as read-only arrays over the samples, computed once for every
    check of the ensemble, and a memo of whole stacks: the shared kernel's
    value on two roles at one measure, read-only, under (role, role,
    measure).  Sample i is the same pair in any subset: its draws depend on
    (spec.seed, i) only."""

    def __init__(self, spec: EnsembleSpec, indices=None):
        self.seed = spec.seed
        self.indices = list(range(spec.count)) if indices is None else list(indices)
        wide, S = replace(spec, count=2 * spec.count), len(self.indices)
        # members 2i, then members 2i + 1, drawn and certified as one stack
        AB = random_sectorial(wide, [2 * i + k for k in (0, 1) for i in self.indices])
        cert = sector.certify(AB)
        A, B = AB[:S], AB[S:]
        eye = np.broadcast_to(np.eye(spec.dim, dtype=np.complex128), A.shape)
        self.roles = tuple(read_only(X) for X in (A, B, _H(A), _H(B), eye))
        self.role_of = {id(X): k for k, X in enumerate(self.roles)}  # identity, not bytes
        # m, M and the factors of the larger angle, in _Stack's order; the
        # powers are taken on Python floats (see _each)
        cosa = [math.cos(a) for a in np.maximum(cert.alpha[:S], cert.alpha[S:]).tolist()]
        seca = [1.0 / c for c in cosa]
        self.factors = tuple(read_only(np.array(x)) for x in (
            np.minimum(cert.m[:S], cert.m[S:]), np.maximum(cert.M[:S], cert.M[S:]), cosa,
            [c * c for c in cosa], [s * s for s in seca], [c**3 for c in cosa], [s**3 for s in seca]))
        self.memo: dict = {}


@lru_cache(maxsize=2)
def _ensemble(spec: EnsembleSpec) -> _Ensemble:
    """All samples of one spec.  Only the last two specs stay cached, memos
    included, so memory is bounded by two ensembles whatever the caller;
    run_suite walks each spec's checks together, so it draws every pair once."""
    return _Ensemble(spec)


class _Stack:
    """One check's evaluation context over an ensemble: its role stacks, its
    per-sample sector factors, and each sample's random stream, seeded
    (spec seed, crc32(check id), sample index)."""

    def __init__(self, ens: _Ensemble, check_id, f, g, phi, norm):
        self._ens = e = ens
        self.A, self.B, self.ReA, self.ReB, self.eye = e.roles
        self.m, self.M, self.cosa, self.cos2, self.sec2, self.cos3, self.sec3 = e.factors
        self.f, self.g, self.phi, self.norm = f, g, phi, norm
        crc = zlib.crc32(check_id.encode())
        self._seeds = [(e.seed, crc, i) for i in e.indices]
        self._rngs = None

    @property
    def rngs(self) -> list:
        if self._rngs is None:
            self._rngs = [np.random.default_rng(seed) for seed in self._seeds]
        return self._rngs

    # Means and f(A) straight on the shared kernel: every operand here is
    # accretive by construction, so the public functions' checks are skipped.
    # Only whole stacks are memoized: a mean on two of the ensemble's roles at
    # one measure is computed once over all samples and kept, read-only, in
    # the ensemble's memo.  Anything else, an operand that is not a role or
    # one measure per sample (a weight t drawn per sample), goes to the kernel
    # as one stack every time and is not kept.
    def _kernel(self, X, Y, measure) -> np.ndarray:
        e = self._ens
        key = (e.role_of.get(id(X)), e.role_of.get(id(Y)), measure)
        if None in key[:2] or not isinstance(measure, MeasureSpec):
            return funcalc._sigma(X, Y, measure)[0]
        if key not in e.memo:
            e.memo[key] = read_only(funcalc._sigma(X, Y, measure)[0])
        return e.memo[key]

    def sigma(self, X, Y, fn=None):
        return self._kernel(X, Y, (fn or self.f).measure)

    def apply(self, fn, X):
        eye = self.eye if X.shape == self.eye.shape else np.broadcast_to(
            np.eye(X.shape[-1], dtype=np.complex128), X.shape)
        return self._kernel(eye, X, fn.measure)

    def harm(self, X, Y, t):
        """X !_t Y, for one t or one t per sample."""
        return self._kernel(X, Y, _per_sample(t, lambda v: MeasureSpec(atoms=((v, 1.0),))))

    def sharp(self, X, Y, t):
        """X #_t Y, the weighted geometric mean, for one t or one t per sample."""
        return self._kernel(X, Y, _per_sample(t, lambda v: catalog("power", v).measure))

    # Per-sample randomness: each call draws once from every sample's stream,
    # in sample order, so a sample sees the draws it would see alone.
    def draw_t(self) -> np.ndarray:
        return np.array([float(_T_GRID[rng.integers(0, len(_T_GRID))]) for rng in self.rngs])

    def unit_vector(self) -> np.ndarray:
        n = self.A.shape[-1]
        xs = [sector.ginibre(n, rng) for rng in self.rngs]
        return np.array([x / np.linalg.norm(x) for x in xs])

    def psd_bump(self) -> np.ndarray:
        # Hermitian PSD perturbation; keeps the perturbed operand in the
        # same sector since only the real part grows.
        n = self.A.shape[-1]
        G, d = [], []
        for rng, M in zip(self.rngs, self.M.tolist()):
            G.append(sector.ginibre((n, n), rng))
            d.append(rng.uniform(0.0, M, size=n))
        U = sector.haar_from(np.array(G))
        return _H(U @ diag_matrix(np.array(d)) @ U.conj().swapaxes(-1, -2))

    def conditioned_invertible(self) -> np.ndarray:
        # Invertible with singular values in [1/2, 2] so identity checks are
        # not polluted by conditioning noise.
        n = self.A.shape[-1]
        G, H, d = [], [], []
        for rng in self.rngs:
            G.append(sector.ginibre((n, n), rng))
            H.append(sector.ginibre((n, n), rng))
            d.append(rng.uniform(0.5, 2.0, size=n))
        U, V = sector.haar_from(np.array(G)), sector.haar_from(np.array(H))
        return U @ diag_matrix(np.array(d)) @ V.conj().swapaxes(-1, -2)

    def inner(self, X, x) -> np.ndarray:
        """x* X x for each sample."""
        return (x.conj()[:, None, :] @ X @ x[:, :, None])[:, 0, 0]

    def gumus_factor(self, t) -> np.ndarray:
        def factor(t, m, M):
            lam = min(t, 1.0 - t)
            return ((1.0 - lam) * m + lam * M) / (m ** (1.0 - lam) * M ** lam)

        return _each(factor, t, self.m, self.M)


def _per_sample(t, make):
    """make(t) for one t, or the list of make(t_i) for one t per sample."""
    return make(float(t)) if np.ndim(t) == 0 else [make(v) for v in np.asarray(t).tolist()]


# ---------------------------------------------------------------------------
# check evaluators: each returns the margin of every sample of the stack
# ---------------------------------------------------------------------------

def _ev_real_superadditive(c):
    return _lm(c.sigma(c.ReA, c.ReB), _H(c.sigma(c.A, c.B)))


def _ev_real_sector_reverse(c):
    return _lm(_H(c.sigma(c.A, c.B)), _scaled(c.sec2, c.sigma(c.ReA, c.ReB)))


def _ev_amgmhm(c):
    t = c.f.derivative_at_one
    S = _H(c.sigma(c.A, c.B))
    lo = _lm(_scaled(c.cos2, _H(c.harm(c.A, c.B, t))), S)
    hi = _lm(S, _scaled(c.sec2, _H(_nabla(c.A, c.B, t))))
    return np.minimum(lo, hi)


def _ev_mean_monotone(c):
    C = c.A + c.psd_bump()
    D = c.B + c.psd_bump()
    return _lm(_H(c.sigma(c.A, c.B)), _scaled(c.sec2, _H(c.sigma(C, D))))


def _ev_transformer(c):
    C = c.conditioned_invertible()
    Ch = C.conj().swapaxes(-1, -2)
    X = Ch @ c.sigma(c.A, c.B) @ C
    Y = c.sigma(Ch @ c.A @ C, Ch @ c.B @ C)
    return _dev(X, Y)


def _ev_kantorovich(c):
    # Requires f'(1) = g'(1): both means then sit between the same weighted
    # harmonic and arithmetic means, whose ratio K(m, M) bounds.  Mismatched
    # derivatives break the bound already for 1x1 positive inputs
    # ((a, b) = (2, 1), f = z^0.3, g = z^0.5 gives 2^0.2 > K(1, 2)).
    Pf = apply_map(c.phi, _H(c.sigma(c.A, c.B, c.f)))
    Pg = apply_map(c.phi, _H(c.sigma(c.A, c.B, c.g)))
    lhs = opnorm(Pf @ solve_stack(Pg))
    rhs = _each(lambda s, m, M: s**3 * kantorovich_constant(m, M), c.sec2, c.m, c.M)
    return _sm(lhs, rhs)


def _ev_har_ando(c):
    t = c.draw_t()
    L = apply_map(c.phi, c.harm(c.ReA, c.ReB, t))
    R = c.harm(apply_map(c.phi, c.A), apply_map(c.phi, c.B), t)
    return _lm(_H(L), _H(R))


def _ev_ando_sector(c):
    L = _H(apply_map(c.phi, c.sigma(c.A, c.B)))
    R = _H(c.sigma(apply_map(c.phi, c.A), apply_map(c.phi, c.B)))
    return _lm(L, _scaled(c.sec2, R))


def _ev_sigma_inner(c):
    x = c.unit_vector()
    lhs = c.inner(c.sigma(c.A, c.B), x).real
    rhs = c.sec2 * _each(lambda a, b: scalar_sigma(a, b, c.f).real,
                         c.inner(c.A, x), c.inner(c.B, x))
    return _sm(lhs, rhs)


def _ev_sigma_nabla_phi(c):
    t = c.f.derivative_at_one
    L = _H(apply_map(c.phi, c.sigma(c.A, c.B)))
    R = _H(apply_map(c.phi, _nabla(c.A, c.B, t)))
    return _lm(L, _scaled(c.sec2, R))


def _ev_f_real_super(c):
    return _lm(_H(c.apply(c.f, c.ReA)), _H(c.apply(c.f, c.A)))


def _ev_f_real_reverse(c):
    return _lm(_H(c.apply(c.f, c.A)), _scaled(c.sec2, _H(c.apply(c.f, c.ReA))))


def _ev_choi_sector(c):
    L = _H(apply_map(c.phi, c.apply(c.f, c.A)))
    R = _H(c.apply(c.f, apply_map(c.phi, c.A)))
    return _lm(_scaled(c.cos2, L), R)


def _ev_f_inner(c):
    x = c.unit_vector()
    lhs = c.inner(c.apply(c.f, c.A), x).real
    rhs = c.sec2 * _each(lambda z: scalar_eval(c.f, z).real, c.inner(c.A, x))
    return _sm(lhs, rhs)


def _ev_f_nabla(c):
    t = c.draw_t()
    L = _nabla(c.apply(c.f, c.A), c.apply(c.f, c.B), t)
    R = c.apply(c.f, _nabla(c.A, c.B, t))
    return _lm(_H(L), _scaled(c.sec2, _H(R)))


def _ev_f_sharp_nabla(c):
    FA = c.apply(c.f, c.A)
    FB = c.apply(c.f, c.B)
    L = _H(c.sharp(FA, FB, 0.5))
    R = _H(c.apply(c.f, _nabla(c.A, c.B, 0.5)))
    return _lm(L, _scaled(c.sec2 * c.sec2, R))


def _ev_sharp_real_super(c):
    t = c.draw_t()
    return _lm(c.sharp(c.ReA, c.ReB, t), _H(c.sharp(c.A, c.B, t)))


def _ev_sharp_sector_reverse(c):
    t = c.draw_t()
    return _lm(_H(c.sharp(c.A, c.B, t)), _scaled(c.sec2, c.sharp(c.ReA, c.ReB, t)))


def _ev_har_real_super(c):
    t = c.draw_t()
    return _lm(c.harm(c.ReA, c.ReB, t), _H(c.harm(c.A, c.B, t)))


def _ev_har_sector_reverse(c):
    t = c.draw_t()
    return _lm(_H(c.harm(c.A, c.B, t)), _scaled(c.sec2, c.harm(c.ReA, c.ReB, t)))


def _ev_inv_real(c):
    Ainv, ReAinv = np.split(solve_stack(np.concatenate([c.A, c.ReA])), 2)
    return _lm(_H(Ainv), ReAinv)


def _ev_inv_sector(c):
    Ainv, ReAinv = np.split(solve_stack(np.concatenate([c.A, c.ReA])), 2)
    return _lm(ReAinv, _scaled(c.sec2, _H(Ainv)))


def _ev_gumus_a(c):
    t = c.draw_t()
    K = c.gumus_factor(t)
    return _lm(_H(_nabla(c.A, c.B, t)), _scaled(K, _H(c.sharp(c.A, c.B, t))))


def _ev_gumus_b(c):
    t = c.draw_t()
    K = c.gumus_factor(t)
    return _lm(_H(c.sharp(c.A, c.B, t)), _scaled(c.sec2 * K, _H(c.harm(c.A, c.B, t))))


def _ev_gumus_c(c):
    t = c.draw_t()
    K = c.gumus_factor(t)
    shift = _scaled(c.M * (K - 1.0), c.eye)
    S = _H(c.sharp(c.A, c.B, t))
    lo = _lm(_H(_nabla(c.A, c.B, t)) - shift, S)
    hi = _lm(S, _scaled(c.sec2, shift + _H(c.harm(c.A, c.B, t))))
    return np.minimum(lo, hi)


def _ev_mixed_gm(c):
    G = _H(c.sharp(_nabla(c.A, c.B, 0.5), c.harm(c.A, c.B, 0.5), 0.5))
    S = _H(c.sharp(c.A, c.B, 0.5))
    lo = _lm(_scaled(c.cos3, G), S)
    hi = _lm(S, _scaled(c.sec2, G))
    return np.minimum(lo, hi)


def _ev_mixed_ns(c):
    # Re(A nabla_t (A sharp_s B)) <= sec^2 Re(A sharp_s (A nabla_t B)).
    # The positive-case interchange runs nabla-of-sharp below sharp-of-nabla
    # (joint concavity of sharp_s); the 1x1 case (1, 4, s=t=1/2) decides the
    # orientation: 1.5 against sqrt(2.5).
    s, t = c.draw_t(), c.draw_t()
    L = _H(_nabla(c.A, c.sharp(c.A, c.B, s), t))
    R = _H(c.sharp(c.A, _nabla(c.A, c.B, t), s))
    return _lm(L, _scaled(c.sec2, R))


def _ev_norm_real_sandwich(c):
    a = uinorm(c.A, c.norm)
    b = uinorm(c.ReA, c.norm)
    return np.minimum(_sm(c.cosa * a, b), _sm(b, a))


def _ev_f_norm_lower(c):
    lhs = _each(lambda v: scalar_eval(c.f, v).real, uinorm(c.ReA, c.norm))
    rhs = uinorm(_H(c.apply(c.f, c.A)), c.norm)
    return _sm(lhs, rhs)


def _ev_f_opnorm_sandwich(c):
    v = _each(lambda v: scalar_eval(c.f, v).real, opnorm(c.ReA))
    w = opnorm(_H(c.apply(c.f, c.A)))
    return np.minimum(_sm(v, w), _sm(w, c.sec2 * v))


def _ev_phi_sigma_norm(c):
    L = uinorm(apply_map(c.phi, c.sigma(c.A, c.B)), c.norm)
    R = uinorm(c.sigma(apply_map(c.phi, c.A), apply_map(c.phi, c.B)), c.norm)
    return _sm(c.cos3 * L, R)


def _ev_phi_nabla_norm(c):
    t = c.f.derivative_at_one
    L = uinorm(apply_map(c.phi, c.sigma(c.A, c.B)), c.norm)
    R = uinorm(_nabla(apply_map(c.phi, c.A), apply_map(c.phi, c.B), t), c.norm)
    return _sm(c.cos3 * L, R)


def _ev_ando_zhan(c):
    lhs = uinorm(c.apply(c.f, c.A + c.B), c.norm)
    rhs = c.sec3 * uinorm(c.apply(c.f, c.A) + c.apply(c.f, c.B), c.norm)
    return _sm(lhs, rhs)


def _ev_f_nabla_norm(c):
    t = c.draw_t()
    L = uinorm(_nabla(c.apply(c.f, c.A), c.apply(c.f, c.B), t), c.norm)
    R = uinorm(c.apply(c.f, _nabla(c.A, c.B, t)), c.norm)
    return _sm(c.cos3 * L, R)


def _ev_norm_of_sigma(c):
    lhs = uinorm(c.sigma(c.A, c.B), c.norm)
    rhs = c.sec3 * _each(lambda a, b: scalar_sigma(a, b, c.f).real,
                         uinorm(c.A, c.norm), uinorm(c.B, c.norm))
    return _sm(lhs, rhs)


# --- classical checks with no sectorial twin -------------------------------

def _ev_pos_sharpando(c):
    G = c.sharp(_nabla(c.A, c.B, 0.5), c.harm(c.A, c.B, 0.5), 0.5)
    S = c.sharp(c.A, c.B, 0.5)
    return _dev(G, S)


def _ev_pos_ab_norm(c):
    lhs = uinorm(c.A @ c.B, c.norm)
    rhs = 0.25 * uinorm((c.A + c.B) @ (c.A + c.B), c.norm)
    return _sm(lhs, rhs)


@dataclass(frozen=True)
class CheckDef:
    id: str
    evaluate: Callable
    kind: str = "order"            # "order" or "identity"
    ensemble: str = "sectorial"    # "sectorial" or "positive"
    needs_f: bool = False
    needs_g: bool = False
    map_kind: str | None = None    # None, "unital" or "positive"
    needs_norm: bool = False


_SECTORIAL = {d.id: d for d in (
    CheckDef("real_superadditive", _ev_real_superadditive, needs_f=True),
    CheckDef("real_sector_reverse", _ev_real_sector_reverse, needs_f=True),
    CheckDef("amgmhm", _ev_amgmhm, needs_f=True),
    CheckDef("mean_monotone", _ev_mean_monotone, needs_f=True),
    CheckDef("transformer", _ev_transformer, kind="identity", needs_f=True),
    CheckDef("kantorovich", _ev_kantorovich, needs_f=True, needs_g=True, map_kind="unital"),
    CheckDef("har_ando", _ev_har_ando, map_kind="unital"),
    CheckDef("ando_sector", _ev_ando_sector, needs_f=True, map_kind="positive"),
    CheckDef("sigma_inner", _ev_sigma_inner, needs_f=True),
    CheckDef("sigma_nabla_phi", _ev_sigma_nabla_phi, needs_f=True, map_kind="positive"),
    CheckDef("f_real_super", _ev_f_real_super, needs_f=True),
    CheckDef("f_real_reverse", _ev_f_real_reverse, needs_f=True),
    CheckDef("choi_sector", _ev_choi_sector, needs_f=True, map_kind="unital"),
    CheckDef("f_inner", _ev_f_inner, needs_f=True),
    CheckDef("f_nabla", _ev_f_nabla, needs_f=True),
    CheckDef("f_sharp_nabla", _ev_f_sharp_nabla, needs_f=True),
    CheckDef("sharp_real_super", _ev_sharp_real_super),
    CheckDef("sharp_sector_reverse", _ev_sharp_sector_reverse),
    CheckDef("har_real_super", _ev_har_real_super),
    CheckDef("har_sector_reverse", _ev_har_sector_reverse),
    CheckDef("inv_real", _ev_inv_real),
    CheckDef("inv_sector", _ev_inv_sector),
    CheckDef("gumus_a", _ev_gumus_a),
    CheckDef("gumus_b", _ev_gumus_b),
    CheckDef("gumus_c", _ev_gumus_c),
    CheckDef("mixed_gm", _ev_mixed_gm),
    CheckDef("mixed_ns", _ev_mixed_ns),
    CheckDef("norm_real_sandwich", _ev_norm_real_sandwich, needs_norm=True),
    CheckDef("f_norm_lower", _ev_f_norm_lower, needs_f=True, needs_norm=True),
    CheckDef("f_opnorm_sandwich", _ev_f_opnorm_sandwich, needs_f=True),
    CheckDef("phi_sigma_norm", _ev_phi_sigma_norm, needs_f=True, map_kind="unital",
             needs_norm=True),
    CheckDef("phi_nabla_norm", _ev_phi_nabla_norm, needs_f=True, map_kind="positive",
             needs_norm=True),
    CheckDef("ando_zhan", _ev_ando_zhan, needs_f=True, needs_norm=True),
    CheckDef("f_nabla_norm", _ev_f_nabla_norm, needs_f=True, needs_norm=True),
    CheckDef("norm_of_sigma", _ev_norm_of_sigma, needs_f=True, needs_norm=True),
)}


def _classical(check_id: str, twin: str) -> CheckDef:
    """The sectorial check twin, read on an alpha = 0 ensemble where every sec/cos factor is 1."""
    return replace(_SECTORIAL[twin], id=check_id, ensemble="positive")


# Classical checks: all but pos_sharpando and pos_ab_norm are a sectorial twin.
_DEFS = (
    *_SECTORIAL.values(),
    _classical("pos_jensen", "f_inner"),
    _classical("pos_sigma_inner", "sigma_inner"),
    _classical("pos_sigma_norm", "norm_of_sigma"),
    _classical("pos_amgmhm", "amgmhm"),
    _classical("pos_ando", "ando_sector"),
    _classical("pos_choi", "choi_sector"),
    _classical("pos_ando_hiai", "f_sharp_nabla"),
    _classical("pos_f_norm", "f_norm_lower"),
    _classical("pos_ando_zhan", "ando_zhan"),
    _classical("pos_gumus", "gumus_a"),
    CheckDef("pos_sharpando", _ev_pos_sharpando, kind="identity", ensemble="positive"),
    _classical("pos_ts", "mixed_ns"),
    CheckDef("pos_ab_norm", _ev_pos_ab_norm, ensemble="positive", needs_norm=True),
    _classical("pos_concave", "f_nabla"),
)

REGISTRY: dict[str, CheckDef] = {d.id: d for d in _DEFS}
CHECK_IDS: tuple[str, ...] = tuple(d.id for d in _DEFS)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over a seeded ensemble."""

    check: str
    ensemble: dict
    samples: int
    min_margin: float
    worst_index: int
    passed: bool
    elapsed_ms: float
    params: dict = field(default_factory=dict)

    def to_dict(self, with_timing: bool = False) -> dict:
        return {
            "id": self.check,
            "params": self.params,
            "ensemble": self.ensemble,
            "samples": self.samples,
            "min_margin": self.min_margin,
            "worst_index": self.worst_index,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms if with_timing else 0.0,
        }


def _effective_spec(check_id: str, spec: EnsembleSpec) -> EnsembleSpec:
    """The ensemble a check is evaluated on: a positive check flattens alpha_max to 0."""
    d = REGISTRY.get(check_id)
    if d is not None and d.ensemble == "positive" and spec.alpha_max != 0.0:
        return replace(spec, alpha_max=0.0)
    return spec


def run_check(
    check_id: str,
    spec: EnsembleSpec,
    f: MonotoneFunction | None = None,
    g: MonotoneFunction | None = None,
    phi: PositiveLinearMap | None = None,
    norm: NormKind | None = None,
) -> CheckReport:
    """Evaluate one check over ``spec.count`` samples and report the margin.

    The check is evaluated once, over the (S, n, n) stacks of the ensemble,
    and gives one margin per sample; the report takes the least and the
    first sample that attains it.  A NaN margin (naming its sample) or a
    non-finite intermediate raises NumericFailureError naming the check.
    Every sec/cos factor uses the per-sample certified max(alpha_A, alpha_B).
    Deterministic in (spec.seed, check_id).
    """
    try:
        d = REGISTRY[check_id]
    except KeyError:
        raise ParameterError(f"unknown check id {check_id!r}") from None
    if d.needs_f and f is None:
        raise ParameterError(f"check {check_id} requires a monotone function f")
    if d.needs_g and g is None:
        raise ParameterError(f"check {check_id} requires a second function g")
    if d.map_kind is not None:
        if phi is None:
            raise ParameterError(f"check {check_id} requires a positive linear map")
        if phi.dim_in != spec.dim:
            raise ParameterError(
                f"map expects dimension {phi.dim_in}, ensemble has {spec.dim}"
            )
        if d.map_kind == "unital" and not is_unital(phi):
            raise ParameterError(f"check {check_id} requires a unital map")
    if d.needs_norm and norm is None:
        raise ParameterError(f"check {check_id} requires a norm kind")
    if d.needs_f and not 0.0 < f.derivative_at_one < 1.0:
        raise ParameterError("f'(1) must lie in (0, 1)")
    if d.needs_g and abs(f.derivative_at_one - g.derivative_at_one) > 1e-12:
        raise ParameterError(
            "kantorovich requires f'(1) = g'(1); the ratio bound fails "
            "for mismatched derivatives already at dimension 1"
        )

    eff_spec = _effective_spec(check_id, spec)
    start = time.perf_counter()
    c = _Stack(_ensemble(eff_spec), check_id, f, g, phi, norm)
    try:
        margins = np.asarray(d.evaluate(c), dtype=float)
    except InvalidInputError as exc:
        # the stacks are the ensemble's own: a non-finite matrix is an intermediate
        raise NumericFailureError(f"check {check_id}: {exc}") from exc
    nan = np.flatnonzero(np.isnan(margins))
    if nan.size:
        raise NumericFailureError(f"check {check_id}: sample {nan[0]} has margin nan")
    worst = int(np.argmin(margins))
    min_margin = float(margins[worst])
    elapsed = (time.perf_counter() - start) * 1e3

    threshold = TAU_EQ if d.kind == "identity" else TAU_LOEWNER
    params = {
        "function": f.describe() if f is not None else None,
        "function_g": g.describe() if g is not None else None,
        "map": phi.describe() if phi is not None else None,
        "norm": str(norm) if norm is not None else None,
        "alpha_mode": "certified",  # the only angle mode; kept so reports stay byte-stable
    }
    return CheckReport(
        check=check_id,
        ensemble={f.name: getattr(eff_spec, f.name) for f in fields(eff_spec)},
        samples=eff_spec.count,
        min_margin=min_margin,
        worst_index=worst,
        passed=bool(min_margin >= -threshold),
        elapsed_ms=elapsed,
        params=params,
    )


@dataclass(frozen=True)
class SuiteItem:
    check: str
    spec: EnsembleSpec
    f: MonotoneFunction | None = None
    g: MonotoneFunction | None = None
    phi: PositiveLinearMap | None = None
    norm: NormKind | None = None


def run_suite(items: list[SuiteItem]) -> list[CheckReport]:
    """Run every item through run_check and return the reports in input order.

    Items are walked grouped by the spec they are evaluated on (alpha = 0 for
    a positive check), groups in order of first appearance.  A group is one
    ensemble: its operand stacks and the means memoized on them are shared,
    each computed once in the elapsed_ms of the first check that needs it,
    and each check is evaluated over the whole stack at once.  Every sample
    keeps its own random stream for each check, so neither the walk nor the
    stacking changes a report.
    """
    group: dict[EnsembleSpec, int] = {}
    keys = [group.setdefault(_effective_spec(item.check, item.spec), len(group))
            for item in items]
    reports: list = [None] * len(items)
    for k in sorted(range(len(items)), key=keys.__getitem__):
        item = items[k]
        reports[k] = run_check(item.check, item.spec, f=item.f, g=item.g, phi=item.phi,
                               norm=item.norm)
    return reports


DEFAULT_DIMS = (1, 2, 3, 5, 8)
DEFAULT_ALPHAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
DEFAULT_SEED = 20260810
_UNITAL_VARIANTS = ("compression", "kraus", "pinching", "vector_state", "normalized_trace")
_POSITIVE_VARIANTS = _UNITAL_VARIANTS + ("kraus_nonunital",)


def matched_partner(f: MonotoneFunction) -> MonotoneFunction:
    """A different catalog function with the same derivative at 1."""
    t = f.derivative_at_one
    if f.name == "power":
        return catalog("harmonic", t)
    return catalog("power", t)


def _map_for(dim: int, variant: str, seed: int) -> PositiveLinearMap:
    if variant == "compression":
        return random_map(dim, max(1, dim - 1), variant, seed)
    if variant in ("kraus", "kraus_nonunital", "pinching"):
        return random_map(dim, dim, variant, seed)
    return random_map(dim, 1, variant, seed)


def default_suite(samples: int = 200, seed: int = DEFAULT_SEED) -> list[SuiteItem]:
    """The full built-in catalog over the DEFAULT_DIMS x DEFAULT_ALPHAS grid, m = 1, M = 2.

    Catalog functions, map variants and norm kinds cycle deterministically
    across the grid, so each check meets every function/variant/kind while
    keeping 200 samples per configuration.  Ensemble seeds depend only on
    (seed, dim, alpha), letting checks share cached operand draws.
    """
    functions = standard_catalog()
    norms = [linalg.OPERATOR, linalg.FROBENIUS, linalg.TRACE]
    items: list[SuiteItem] = []
    for d in REGISTRY.values():
        grid_alphas = DEFAULT_ALPHAS if d.ensemble == "sectorial" else (0.0,)
        ordinal = 0
        for ai, alpha in enumerate(grid_alphas):
            for di, dim in enumerate(DEFAULT_DIMS):
                spec = EnsembleSpec(
                    dim=dim, alpha_max=alpha, m=1.0, M=2.0, count=samples,
                    seed=(seed + 7919 * di + 104729 * ai) % 2**63,
                )
                f = functions[ordinal % len(functions)] if d.needs_f else None
                g = matched_partner(f) if d.needs_g else None
                phi = None
                if d.map_kind == "unital":
                    variant = _UNITAL_VARIANTS[ordinal % len(_UNITAL_VARIANTS)]
                    phi = _map_for(dim, variant, seed + ordinal)
                elif d.map_kind == "positive":
                    variant = _POSITIVE_VARIANTS[ordinal % len(_POSITIVE_VARIANTS)]
                    phi = _map_for(dim, variant, seed + ordinal)
                norm = None
                if d.needs_norm:
                    # kyfan's k must fit the smallest matrix the norm meets,
                    # which is the map's output side when a map is involved
                    norm_dim = phi.dim_out if phi is not None else dim
                    cycle = norms + [kyfan((norm_dim + 1) // 2)]
                    norm = cycle[ordinal % len(cycle)]
                items.append(SuiteItem(check=d.id, spec=spec, f=f, g=g, phi=phi, norm=norm))
                ordinal += 1
    return items
