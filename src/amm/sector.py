"""Sector certification, plus seeded random ensembles.

A matrix is accretive when its Hermitian part is positive definite; it is
sectorial with half-angle alpha when its numerical range sits inside
S_alpha = {z : Re z > 0, |Im z| <= tan(alpha) Re z}.  This module certifies
(alpha, m, M) for a given matrix and generates reproducible ensembles with
those quantities controlled exactly.  The accretivity predicate
(is_accretive, require_accretive) is linalg's, re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .linalg import hermitian_part, imaginary_part, is_accretive, require_accretive  # noqa: F401


@dataclass(frozen=True)
class SectorCertificate:
    """Certified sector data: half-angle alpha and real-part bounds m <= M."""

    alpha: float
    m: float
    M: float


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a seeded random ensemble of sectorial matrices."""

    dim: int
    alpha_max: float
    m: float
    M: float
    count: int
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.alpha_max < math.pi / 2:
            raise ParameterError(f"alpha_max must be in [0, pi/2), got {self.alpha_max}")
        if not 0.0 < self.m <= self.M:
            raise ParameterError(f"need 0 < m <= M, got m={self.m}, M={self.M}")
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")


def certify(A) -> SectorCertificate:
    """Full (alpha, m, M) certificate for an accretive matrix.

    One eigendecomposition of Re A gives both: its extreme values are m and
    M, and its vectors form (Re A)^{-1/2}.  alpha is arctan of the largest
    |eigenvalue| of (Re A)^{-1/2} (Im A) (Re A)^{-1/2}, which is exactly the
    smallest alpha with tan(alpha) Re A +- Im A >= 0.
    """
    A = require_accretive(A)
    vals, vecs = np.linalg.eigh(hermitian_part(A))
    W = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    H = W @ imaginary_part(A) @ W
    H = (H + H.conj().T) / 2.0
    rho = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    return SectorCertificate(alpha=math.atan(rho), m=float(vals[0]), M=float(vals[-1]))


def sectorial_angle(A) -> float:
    """Least alpha with W(A) inside S_alpha, for accretive A (see certify)."""
    return certify(A).alpha


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre draw."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R).copy()
    d = d / np.abs(d)
    return Q * d.conj()


def random_sectorial(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Member ``index`` of the ensemble described by ``spec``.

    Construction: A = P^{1/2} (I + iT) P^{1/2} with P Hermitian of spectrum
    uniform in [m, M] and T Hermitian rescaled to ||T||_op = u tan(alpha_max),
    u uniform in [0, 1].  Then Re A = P exactly (so m I <= Re A <= M I) and
    the sectorial angle is arctan(||T||_op) <= alpha_max.
    """
    if index < 0 or index >= spec.count:
        raise ParameterError(f"index {index} outside [0, {spec.count})")
    # Counter-style seeding: a pure function of (seed, index), so ensemble
    # members are independent of iteration order and safe to parallelize.
    # The middle 0 keeps the draws of every existing ensemble.
    rng = np.random.default_rng((spec.seed, 0, index))
    n = spec.dim
    p = rng.uniform(spec.m, spec.M, size=n)
    U = haar_unitary(n, rng)
    S = U @ np.diag(np.sqrt(p)) @ U.conj().T
    S = (S + S.conj().T) / 2.0  # exact Hermitian square root of P
    P = S @ S
    P = (P + P.conj().T) / 2.0
    if spec.alpha_max == 0.0:
        return P.astype(np.complex128)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = (G + G.conj().T) / 2.0
    u = rng.uniform(0.0, 1.0)
    tnorm = float(np.max(np.abs(np.linalg.eigvalsh(T))))
    if tnorm > 0.0:
        T = T * (u * math.tan(spec.alpha_max) / tnorm)
    Im = S @ T @ S
    Im = (Im + Im.conj().T) / 2.0
    return P + 1j * Im


def random_pd(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Hermitian positive definite member: random_sectorial at alpha_max = 0."""
    return random_sectorial(replace(spec, alpha_max=0.0), index)
