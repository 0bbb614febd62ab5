"""Dense complex linear algebra kernels.

Everything downstream (sector certification, functional calculus, means,
verification) is built on the handful of operations defined here: Hermitian
split, linear solves, singular values, unitarily invariant norms,
Loewner-order tests, the accretivity predicate and the principal matrix
square root.  Eigen/solve work is delegated to LAPACK through numpy;
the contracts (ordering, residuals, error reporting) are pinned here and in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NumericFailureError,
    ParameterError,
    PreconditionError,
    SingularMatrixError,
    integer,
)

# Normalized Loewner slack.  Quadrature and eigensolver noise stays below
# 1e-8 at desk scale; one extra order avoids false negatives.
TAU_LOEWNER = 1e-7

# Relative deviation threshold for identity-type cross checks.
TAU_EQ = 1e-8


def as_stack(a) -> np.ndarray:
    """Coerce to a square complex matrix or a (..., n, n) stack of them.

    The public functions that take stacks check their input here: a
    non-square shape or a non-finite entry raises InvalidInputError.
    """
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    A = as_stack(a)
    if A.ndim != 2:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    return A


def maxabs(A: np.ndarray) -> float:
    """Largest entry magnitude (the entrywise max norm)."""
    return float(np.abs(A).max())


def stack_maxabs(A: np.ndarray) -> np.ndarray:
    """maxabs of each matrix of a (..., n, n) stack."""
    return np.abs(A).max(axis=(-2, -1))


def read_only(X: np.ndarray) -> np.ndarray:
    """X, flagged read-only: for arrays that are cached and shared."""
    X.setflags(write=False)
    return X


def diag_matrix(d: np.ndarray) -> np.ndarray:
    """np.diag of a vector, or of each vector of a stack."""
    n = d.shape[-1]
    D = np.zeros(d.shape + (n,), dtype=d.dtype)
    D[..., range(n), range(n)] = d
    return D


def hermitian(A: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix of a stack, unchecked.

    Each term is halved before the sum, so it cannot overflow; halving a
    normal double is exact, so the result is (A + A*)/2 to the bit wherever
    that does not overflow.
    """
    return A / 2.0 + A.conj().swapaxes(-1, -2) / 2.0


def hermitian_part(A) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix of a stack (see hermitian)."""
    return hermitian(as_stack(A))


def imaginary_part(A) -> np.ndarray:
    """(A - A*)/(2i), the Hermitian matrix with A = Re A + i Im A; per matrix for a stack."""
    A = as_stack(A)
    return (A - A.conj().swapaxes(-1, -2)) / 2.0j


def lu_solve(A, B) -> np.ndarray:
    """Solve AX = B, for a vector or a matrix B, by Gaussian elimination with partial pivoting.

    Each step pivots on the largest |Re| + |Im| of its column, as LAPACK's
    izamax does, and raises SingularMatrixError carrying the step's index
    at the first pivot of modulus at most 1e-13 * max|A|.  Public only: the
    package inverts through solve_stack.
    """
    U = as_matrix(A).copy()
    X = np.array(B, dtype=np.complex128)
    if X.ndim not in (1, 2) or X.shape[0] != U.shape[0]:
        raise InvalidInputError(f"dimension mismatch: {U.shape} vs {X.shape}")
    tol = 1e-13 * maxabs(U)
    for k in range(len(U)):
        p = k + int(np.argmax(abs(U[k:, k].real) + abs(U[k:, k].imag)))
        if not abs(U[p, k]) > tol:
            raise SingularMatrixError(k)
        U[[k, p]], X[[k, p]] = U[[p, k]], X[[p, k]]
        lk = U[k + 1:, k] / U[k, k]
        U[k + 1:, k + 1:] -= np.outer(lk, U[k, k + 1:])
        X[k + 1:] -= np.multiply.outer(lk, X[k])
    for k in reversed(range(len(U))):
        X[k] = (X[k] - U[k, k + 1:] @ X[k + 1:]) / U[k, k]
    return X


def inverse(A) -> np.ndarray:
    """A^{-1} via lu_solve(A, I); public only, like lu_solve."""
    A = as_matrix(A)
    return lu_solve(A, np.eye(A.shape[0], dtype=np.complex128))


def solve_stack(stack: np.ndarray) -> np.ndarray:
    """Invert a (K, n, n) stack of matrices in one LAPACK sweep.

    The package's one internal inversion path (one matrix is a stack of
    one); lu_solve/inverse are the public contract with the pivot index.
    """
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular matrix in batched solve: {exc}") from exc


def singular_values(A) -> np.ndarray:
    """Ascending singular values by LAPACK's SVD, along the last axis for a stack.

    Working on A itself, not on A*A, keeps small singular values accurate
    to about eps * ||A||, instead of sqrt(eps) * ||A|| through the squared
    condition number.
    """
    return np.linalg.svd(as_stack(A), compute_uv=False)[..., ::-1]


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: operator, frobenius, trace or kyfan(k).

    Every kind is a symmetric gauge function of the singular values and is
    normalized (value 1 on a rank-one orthogonal projection).
    """

    tag: str
    k: int = 0

    def __post_init__(self):
        if self.tag not in ("operator", "frobenius", "trace", "kyfan"):
            raise ParameterError(f"unknown norm kind: {self.tag!r}")
        if self.tag == "kyfan" and integer(self.k, "kyfan k") < 1:
            raise ParameterError(f"kyfan k must be >= 1, got {self.k}")
        if self.tag != "kyfan" and self.k != 0:
            raise ParameterError(f"{self.tag} norm takes no k, got {self.k!r}")

    def __str__(self):
        return f"kyfan({self.k})" if self.tag == "kyfan" else self.tag

    @staticmethod
    def parse(text: str) -> "NormKind":
        text = text.strip()
        if text.startswith("kyfan(") and text.endswith(")"):
            return NormKind("kyfan", int(text[6:-1]))
        return NormKind(text)


OPERATOR = NormKind("operator")
FROBENIUS = NormKind("frobenius")
TRACE = NormKind("trace")


def kyfan(k: int) -> NormKind:
    return NormKind("kyfan", k)


def uinorm(A, kind: NormKind = OPERATOR):
    """Unitarily invariant norm of A, or of each matrix of a stack, for the requested kind."""
    sv = singular_values(A)
    n = sv.shape[-1]
    if kind.tag == "operator":
        return sv[..., -1][()]
    if kind.tag == "frobenius":
        return np.sqrt(np.sum(sv * sv, axis=-1))
    if kind.tag == "trace":
        return np.sum(sv, axis=-1)
    # the kyfan norm, whose k >= 1 NormKind has checked
    if kind.k > n:
        raise ParameterError(f"kyfan k={kind.k} outside [1, {n}]")
    return np.sum(sv[..., n - kind.k:], axis=-1)


def opnorm(A):
    return uinorm(A, OPERATOR)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order test X <= Y, or of one per pair of two stacks.

    margin is the smallest eigenvalue of the Hermitian gap, normalized by
    1 + ||X||_op + ||Y||_op; holds iff margin >= -TAU_LOEWNER.  For stacks
    both are arrays over the leading axes.
    """

    margin: float | np.ndarray
    holds: bool | np.ndarray


def loewner_leq(X, Y) -> LoewnerVerdict:
    """Test X <= Y in the Loewner order for (near-)Hermitian X, Y, or stacks of them.

    The Hermitian parts, the gap and the scale 1 + ||X|| + ||Y|| are each
    taken from halved terms, so entries up to the largest double do not
    overflow; halving a normal double is exact, so wherever the unhalved
    form stays finite the margin is the same to the bit.
    """
    X = as_stack(X)
    Y = as_stack(Y)
    if X.shape != Y.shape:
        raise InvalidInputError("Loewner comparison needs equal shapes")
    for Z in (X, Y):
        skew = stack_maxabs(Z - Z.conj().swapaxes(-1, -2))
        if np.any(skew > 1e-10 * (1.0 + stack_maxabs(Z))):
            raise InvalidInputError("Loewner comparison needs Hermitian operands")
    Hx, Hy = hermitian(X), hermitian(Y)
    ex, ey, half_gap = np.linalg.eigvalsh(np.stack([Hx, Hy, Hy / 2.0 - Hx / 2.0]))
    nx = np.maximum(abs(ex[..., 0]), abs(ex[..., -1]))
    ny = np.maximum(abs(ey[..., 0]), abs(ey[..., -1]))
    margin = half_gap[..., 0] / (0.5 + nx / 2.0 + ny / 2.0)
    return LoewnerVerdict(margin=margin, holds=margin >= -TAU_LOEWNER)


def _accretivity(A, lowest=None):
    """(verdict, margin, ||A||_op) of a converted matrix or stack: the one accretivity test.

    margin = lambda_min(Re A) / (1 + ||A||_op), lambda_min from one eigvalsh of
    Re A unless the caller's own is given as lowest, and ||A||_op from one SVD;
    accretive iff the margin exceeds the Loewner slack.  Arrays for a stack.
    """
    if lowest is None:
        lowest = np.linalg.eigvalsh(hermitian(A))[..., 0]
    norm = np.linalg.svd(A, compute_uv=False)[..., 0]
    margin = lowest / (1.0 + norm)
    return margin > TAU_LOEWNER, margin, norm[()]


def is_accretive(A):
    """Whether Re A is positive definite, with the margin of _accretivity; arrays for a stack."""
    return _accretivity(as_stack(A))[:2]


def require_accretive(A, name: str = "matrix", lowest=None):
    """||A||_op of a converted matrix or stack; PreconditionError naming ``name`` unless accretive."""
    ok, margin, norm = _accretivity(A, lowest)
    if not ok.all():
        raise PreconditionError(f"{name} is not accretive (margin {np.min(margin):.3e})")
    return norm


def principal_sqrt(A) -> np.ndarray:
    """Principal square root of an accretive matrix (see _denman_beavers)."""
    A = as_matrix(A)
    require_accretive(A, "principal_sqrt operand")
    return _denman_beavers(A)[0]


def _denman_beavers(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}), principal, of a converted matrix judged accretive, unchecked.

    Denman-Beavers iteration on A s^2, where s = 2^-k and
    k = floor(log2(max|A|)/2 + 1/2) put max|A s^2| in [1/2, 2): X0 = A s^2,
    Y0 = I, X' = (X + Y^-1)/2, Y' = (Y + X^-1)/2, stopping when the X-step
    falls below 1e-13 * max|X| (at most 100 iterations).  X tends to the root
    of A s^2 and Y to its inverse (Higham 2008, section 6.3), so (X/s, Y s)
    is returned.  Unscaled, the step count grows like log2 sqrt(max|A|).  The
    root satisfies max|X^2 - A| <= 1e-9 * (1 + max|A|), tested times s^2 so
    that it cannot overflow, and has spectrum in the open right half-plane.
    """
    k = math.floor(math.log2(maxabs(A)) / 2.0 + 0.5)
    s2 = 2.0 ** (-2 * k)
    X = As = A * s2
    Y = np.eye(A.shape[0], dtype=np.complex128)
    for _ in range(100):
        Xi, Yi = solve_stack(np.stack([X, Y]))
        Xn = (X + Yi) / 2.0
        Yn = (Y + Xi) / 2.0
        step = maxabs(Xn - X)
        X, Y = Xn, Yn
        if step <= 1e-13 * maxabs(X):
            break
    residual = maxabs(X @ X - As) / (s2 + maxabs(As))
    if not residual <= 1e-9:
        raise NumericFailureError(
            f"square-root iteration did not converge: relative residual {residual:.3e}"
        )
    return X * 2.0 ** k, Y * 2.0 ** -k
