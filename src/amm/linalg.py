"""Dense complex linear algebra kernels.

Everything downstream (sector certification, functional calculus, means,
verification) is built on the handful of operations defined here: Hermitian
split, linear solves, singular values, unitarily invariant norms,
Loewner-order tests, the accretivity predicate and the principal matrix
square root.  Eigen/solve work is delegated to LAPACK through numpy/scipy;
the contracts (ordering, residuals, error reporting) are pinned here and in
the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    InvalidInputError,
    NumericFailureError,
    ParameterError,
    PreconditionError,
    SingularMatrixError,
)

# Normalized Loewner slack.  Quadrature and eigensolver noise stays below
# 1e-8 at desk scale; one extra order avoids false negatives.
TAU_LOEWNER = 1e-7

# Relative deviation threshold for identity-type cross checks.
TAU_EQ = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def maxabs(A: np.ndarray) -> float:
    """Largest entry magnitude (the entrywise max norm)."""
    return float(np.abs(A).max())


def hermitian_part(A) -> np.ndarray:
    """(A + A*)/2, Hermitian by construction; halving each term first cannot overflow."""
    A = as_matrix(A)
    return A / 2.0 + A.conj().T / 2.0


def imaginary_part(A) -> np.ndarray:
    """(A - A*)/(2i), the Hermitian matrix with A = Re A + i Im A."""
    A = as_matrix(A)
    return (A - A.conj().T) / 2.0j


def lu_solve(A, B) -> np.ndarray:
    """Solve AX = B by partially pivoted LU.

    Raises SingularMatrixError carrying the failing pivot index when a
    pivot falls below 1e-13 * max|A|.  Public only: the package inverts
    through solve_stack.
    """
    A = as_matrix(A)
    B = np.asarray(B, dtype=np.complex128)
    if B.shape[0] != A.shape[0]:
        raise InvalidInputError(f"dimension mismatch: {A.shape} vs {B.shape}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    tol = 1e-13 * maxabs(A)
    bad = np.nonzero(pivots <= tol)[0]
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)


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
    """Ascending singular values by LAPACK's SVD.

    Working on A itself, not on A*A, keeps small singular values accurate
    to about eps * ||A||, instead of sqrt(eps) * ||A|| through the squared
    condition number.
    """
    return np.linalg.svd(as_matrix(A), compute_uv=False)[::-1]


@dataclass(frozen=True)
class NormKind:
    """A unitarily invariant norm: operator, frobenius, trace or kyfan(k).

    Every kind is a symmetric gauge function of the singular values and is
    normalized (value 1 on a rank-one orthogonal projection).
    """

    tag: str
    k: int = 0

    def __str__(self):
        return f"kyfan({self.k})" if self.tag == "kyfan" else self.tag

    @staticmethod
    def parse(text: str) -> "NormKind":
        text = text.strip()
        if text in ("operator", "frobenius", "trace"):
            return NormKind(text)
        if text.startswith("kyfan(") and text.endswith(")"):
            return NormKind("kyfan", int(text[6:-1]))
        raise ParameterError(f"unknown norm kind: {text!r}")


OPERATOR = NormKind("operator")
FROBENIUS = NormKind("frobenius")
TRACE = NormKind("trace")


def kyfan(k: int) -> NormKind:
    return NormKind("kyfan", int(k))


def uinorm(A, kind: NormKind = OPERATOR) -> float:
    """Unitarily invariant norm of A for the requested kind."""
    sv = singular_values(A)
    n = sv.shape[0]
    if kind.tag == "operator":
        return float(sv[-1])
    if kind.tag == "frobenius":
        return float(np.sqrt(np.sum(sv * sv)))
    if kind.tag == "trace":
        return float(np.sum(sv))
    if kind.tag == "kyfan":
        if not 1 <= kind.k <= n:
            raise ParameterError(f"kyfan k={kind.k} outside [1, {n}]")
        return float(np.sum(sv[n - kind.k:]))
    raise ParameterError(f"unknown norm kind: {kind.tag!r}")


def opnorm(A) -> float:
    return uinorm(A, OPERATOR)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order test X <= Y.

    margin is the smallest eigenvalue of the Hermitian gap, normalized by
    1 + ||X||_op + ||Y||_op; holds iff margin >= -TAU_LOEWNER.
    """

    margin: float
    holds: bool


def loewner_leq(X, Y) -> LoewnerVerdict:
    """Test X <= Y in the Loewner order for (near-)Hermitian X, Y."""
    X = as_matrix(X)
    Y = as_matrix(Y)
    if X.shape != Y.shape:
        raise InvalidInputError("Loewner comparison needs equal shapes")
    for Z in (X, Y):
        if maxabs(Z - Z.conj().T) > 1e-10 * (1.0 + maxabs(Z)):
            raise InvalidInputError("Loewner comparison needs Hermitian operands")
    Hx = (X + X.conj().T) / 2.0
    Hy = (Y + Y.conj().T) / 2.0
    ex, ey, gap = np.linalg.eigvalsh(np.stack([Hx, Hy, Hy - Hx]))
    gap_min = float(gap[0])
    scale = 1.0 + max(abs(ex[0]), abs(ex[-1])) + max(abs(ey[0]), abs(ey[-1]))
    margin = gap_min / scale
    return LoewnerVerdict(margin=margin, holds=margin >= -TAU_LOEWNER)


def is_accretive(A) -> tuple[bool, float]:
    """Whether Re A is positive definite, with a normalized margin.

    margin = lambda_min(Re A) / (1 + ||A||_op); accretive iff the margin
    exceeds the Loewner slack (strict positivity).  The package's one
    accretivity predicate.
    """
    A = as_matrix(A)
    lam_min = float(np.linalg.eigvalsh(hermitian_part(A))[0])
    margin = lam_min / (1.0 + opnorm(A))
    return margin > TAU_LOEWNER, margin


def require_accretive(A, name: str = "matrix") -> np.ndarray:
    """A as a complex matrix; PreconditionError naming ``name`` unless accretive."""
    A = as_matrix(A)
    ok, margin = is_accretive(A)
    if not ok:
        raise PreconditionError(f"{name} is not accretive (margin {margin:.3e})")
    return A


def principal_sqrt(A) -> np.ndarray:
    """Principal square root of an accretive matrix.

    Denman-Beavers iteration on A s^2, where s = 2^-k and
    k = floor(log2(max|A|)/2 + 1/2) put max|A s^2| in [1/2, 2): X0 = A s^2,
    Y0 = I, X' = (X + Y^-1)/2, Y' = (Y + X^-1)/2, stopping when the X-step
    falls below 1e-13 * max|X| (at most 100 iterations); X/s is returned.
    Unscaled, the step count grows like log2 sqrt(max|A|).  The result
    satisfies max|X^2 - A| <= 1e-9 * (1 + max|A|), tested times s^2 so that
    it cannot overflow, and has spectrum in the open right half-plane.
    """
    A = require_accretive(A, "principal_sqrt operand")
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
    return X * 2.0 ** k
