"""Positive linear maps between matrix algebras.

Every map is stored as Kraus factors, Phi(A) = sum_k V_k* A V_k, so it is
completely positive and preserves adjoints by construction.  Six generator
variants cover the structural extremes the inequality catalog needs:
compressions V*AV, Kraus sums (unital or deliberately scaled off unital),
block pinchings, vector states and the normalized trace.  Unitality is a
property of the variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, integer
from .linalg import as_stack, maxabs
from .sector import ginibre

VARIANTS = (
    "compression",
    "kraus",
    "kraus_nonunital",
    "pinching",
    "vector_state",
    "normalized_trace",
)


@dataclass(frozen=True, eq=False)
class PositiveLinearMap:
    """A completely positive map Phi: M_n -> M_r given by its Kraus factors, checked as built."""

    variant: str
    dim_in: int
    dim_out: int
    operators: tuple   # Kraus factors V_k, each dim_in x dim_out

    def __post_init__(self):
        if min(integer(self.dim_in, "dim_in"), integer(self.dim_out, "dim_out")) < 1:
            raise ParameterError("map dimensions must be positive")
        shapes = sorted({np.shape(V) for V in self.operators})
        if shapes != [(self.dim_in, self.dim_out)]:
            raise ParameterError(f"Kraus factors must be {self.dim_in} x {self.dim_out}, "
                                 f"got shapes {shapes}")

    def describe(self) -> dict:
        return {"variant": self.variant, "dim_in": self.dim_in, "dim_out": self.dim_out}


def apply_map(phi: PositiveLinearMap, A) -> np.ndarray:
    """Evaluate Phi(A) = sum_k V_k* A V_k, for a matrix or each matrix of a stack.

    Re Phi(A) = Phi(Re A) holds by construction.
    """
    A = as_stack(A)
    if A.shape[-1] != phi.dim_in:
        raise ParameterError(f"map expects dimension {phi.dim_in}, got {A.shape[-1]}")
    V = np.asarray(phi.operators)
    return (V.conj().swapaxes(1, 2) @ A[..., None, :, :] @ V).sum(axis=-3)


def is_unital(phi: PositiveLinearMap) -> bool:
    """Whether Phi(I) = I within 1e-12."""
    eye_in = np.eye(phi.dim_in, dtype=np.complex128)
    eye_out = np.eye(phi.dim_out, dtype=np.complex128)
    return maxabs(apply_map(phi, eye_in) - eye_out) <= 1e-12


def random_map(dim_in: int, dim_out: int, variant: str, seed: int) -> PositiveLinearMap:
    """Seeded construction of one map variant.

    kraus splits orthonormal columns (QR of a Ginibre block) into two
    factors so the unitality sum telescopes to the identity; compression
    is the same construction with one factor; kraus_nonunital rescales the
    kraus factors; pinching takes the diagonal projectors onto two
    contiguous index blocks; vector_state draws a random unit vector x as
    one factor; normalized_trace takes the columns e_i / sqrt(n).
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown map variant {variant!r}")
    if min(integer(dim_in, "dim_in"), integer(dim_out, "dim_out")) < 1:
        raise ParameterError("map dimensions must be positive")
    rng = np.random.default_rng((integer(seed, "seed"), 0x6D61, dim_in, dim_out))
    if variant in ("compression", "kraus", "kraus_nonunital"):
        k = 1 if variant == "compression" else 2
        if dim_out > k * dim_in:
            raise ParameterError(f"{variant} requires dim_out <= {k} * dim_in")
        W, _ = np.linalg.qr(ginibre((k * dim_in, dim_out), rng))
        ops = tuple(W[i * dim_in:(i + 1) * dim_in, :] for i in range(k))
        if variant == "kraus_nonunital":
            scale = np.sqrt(rng.uniform(0.25, 0.75))
            ops = tuple(scale * V for V in ops)
    elif variant == "pinching":
        if dim_out != dim_in:
            raise ParameterError("pinching preserves the dimension")
        first = np.arange(dim_in) < (dim_in + 1) // 2
        ops = tuple(np.diag(block).astype(np.complex128) for block in (first, ~first)
                    if block.any())
    else:
        if dim_out != 1:
            raise ParameterError(f"{variant} maps to 1x1 matrices")
        if variant == "vector_state":
            x = ginibre(dim_in, rng)
            ops = ((x / np.linalg.norm(x))[:, None],)
        else:
            ops = tuple(np.eye(dim_in, dtype=np.complex128)[:, :, None] / np.sqrt(dim_in))
    return PositiveLinearMap(variant, dim_in, dim_out, operators=ops)
