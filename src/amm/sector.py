"""Sector certification, plus seeded random ensembles.

A matrix is accretive when its Hermitian part is positive definite; it is
sectorial with half-angle alpha when its numerical range sits inside
S_alpha = {z : Re z > 0, |Im z| <= tan(alpha) Re z}.  This module certifies
(alpha, m, M) for a given matrix and generates reproducible ensembles with
those quantities controlled exactly.  The accretivity predicate
is_accretive is linalg's, re-exported here (require_accretive is not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, integer
from .linalg import as_stack, diag_matrix, hermitian, require_accretive
from .linalg import is_accretive  # noqa: F401


@dataclass(frozen=True)
class SectorCertificate:
    """Certified sector data: half-angle alpha, real-part bounds m <= M and ||A||_op."""

    alpha: float
    m: float
    M: float
    norm: float


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
        if integer(self.dim, "dim") < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.alpha_max < math.pi / 2:
            raise ParameterError(f"alpha_max must be in [0, pi/2), got {self.alpha_max}")
        if not 0.0 < self.m <= self.M < math.inf:
            raise ParameterError(f"need 0 < m <= M < inf, got m={self.m}, M={self.M}")
        if integer(self.count, "count") < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if not 0 <= integer(self.seed, "seed") < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")


def certify(A) -> SectorCertificate:
    """Full (alpha, m, M, norm) certificate for an accretive matrix, or for each matrix of a stack.

    One eigendecomposition of Re A gives m, M and the accretivity test's
    lambda_min (its extreme values) and (Re A)^{-1/2} (its vectors); the
    test's SVD gives norm = ||A||_op.  alpha is arctan of the largest
    |eigenvalue| of (Re A)^{-1/2} (Im A) (Re A)^{-1/2}, which is exactly the
    smallest alpha with tan(alpha) Re A +- Im A >= 0.  For a stack the
    fields are arrays of its leading shape, each entry the matrix's own.
    """
    A = as_stack(A)
    vals, vecs = np.linalg.eigh(hermitian(A))
    norm = require_accretive(A, lowest=vals[..., 0])
    W = vecs @ diag_matrix(vals**-0.5) @ vecs.conj().swapaxes(-1, -2)
    # Im A of the converted array; imaginary_part would convert it again
    Im = (A - A.conj().swapaxes(-1, -2)) / 2.0j
    rho = np.abs(np.linalg.eigvalsh(hermitian(W @ Im @ W))).max(axis=-1)
    alpha = np.array([math.atan(r) for r in np.ravel(rho).tolist()]).reshape(rho.shape)
    return SectorCertificate(alpha=alpha[()], m=vals[..., 0][()], M=vals[..., -1][()], norm=norm)


def sectorial_angle(A) -> float:
    """Least alpha with W(A) inside S_alpha, for accretive A (see certify)."""
    return certify(A).alpha


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """A complex Gaussian array of the given shape: standard normal real, then imaginary, parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_from(G: np.ndarray) -> np.ndarray:
    """The phase-fixed Q of G = QR, per matrix for a stack; Haar-distributed for Ginibre G."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d)).conj()[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre draw."""
    return haar_from(ginibre((n, n), rng))


def random_sectorial(spec: EnsembleSpec, index) -> np.ndarray:
    """Member ``index`` of the ensemble described by ``spec``, or the (k, n, n)
    stack of the members at a sequence of k indices.

    Construction: A = P^{1/2} (I + iT) P^{1/2} with P Hermitian of spectrum
    uniform in [m, M] and T Hermitian rescaled to ||T||_op = u tan(alpha_max),
    u uniform in [0, 1].  Then Re A = P exactly (so m I <= Re A <= M I) and
    the sectorial angle is arctan(||T||_op) <= alpha_max.  Each member draws
    its numbers from its own stream; the algebra then runs once on the stack,
    matrix by matrix, so a member is the same to the bit alone or stacked.
    """
    indices = [index] if np.ndim(index) == 0 else list(index)
    if not indices:
        raise ParameterError("random_sectorial needs at least one index")
    for i in indices:
        if not 0 <= integer(i, "index") < spec.count:
            raise ParameterError(f"index {i} outside [0, {spec.count})")
    # Counter-style seeding: a pure function of (seed, index), so ensemble
    # members are independent of iteration order and safe to parallelize.
    # The middle 0 keeps the draws of every existing ensemble.
    rngs = [np.random.default_rng((spec.seed, 0, i)) for i in indices]
    n = spec.dim
    p = np.array([rng.uniform(spec.m, spec.M, size=n) for rng in rngs])
    U = haar_from(np.array([ginibre((n, n), rng) for rng in rngs]))
    # exact Hermitian square root of P
    S = hermitian(U @ diag_matrix(np.sqrt(p)) @ U.conj().swapaxes(-1, -2))
    A = hermitian(S @ S)
    if spec.alpha_max != 0.0:
        T = hermitian(np.array([ginibre((n, n), rng) for rng in rngs]))
        u = [rng.uniform(0.0, 1.0) for rng in rngs]
        tnorm = np.abs(np.linalg.eigvalsh(T)).max(axis=-1).tolist()
        scale = [ui * math.tan(spec.alpha_max) / t if t > 0.0 else 1.0 for ui, t in zip(u, tnorm)]
        A = A + 1j * hermitian(S @ (T * np.array(scale)[:, None, None]) @ S)
    return A if np.ndim(index) else A[0]


def random_pd(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Hermitian positive definite member: random_sectorial at alpha_max = 0."""
    return random_sectorial(replace(spec, alpha_max=0.0), index)
