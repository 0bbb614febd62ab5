import cmath
import math

import numpy as np
import pytest

from amm import linalg
from amm.errors import (
    InvalidInputError,
    NumericFailureError,
    ParameterError,
    PreconditionError,
    SingularMatrixError,
)


def rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    G = rand_complex(rng, n)
    return (G + G.conj().T) / 2.0


class TestHermitianSplit:
    def test_scalar(self):
        np.testing.assert_allclose(linalg.hermitian_part([[1 + 2j]]), [[1.0]])
        np.testing.assert_allclose(linalg.imaginary_part([[1 + 2j]]), [[2.0]])

    def test_symmetrization(self):
        A = np.array([[0, 2], [0, 0]], dtype=complex)
        np.testing.assert_allclose(linalg.hermitian_part(A), [[0, 1], [1, 0]])

    def test_hermitian_fixed_point(self):
        H = rand_hermitian(np.random.default_rng(3), 4)
        np.testing.assert_allclose(linalg.hermitian_part(H), H)
        np.testing.assert_allclose(linalg.imaginary_part(H), np.zeros((4, 4)), atol=1e-15)

    def test_imaginary_diag(self):
        A = np.diag([1j, -1j])
        np.testing.assert_allclose(linalg.imaginary_part(A), np.diag([1.0, -1.0]))

    def test_reconstruction(self):
        A = rand_complex(np.random.default_rng(5), 6)
        R = linalg.hermitian_part(A) + 1j * linalg.imaginary_part(A)
        assert linalg.maxabs(R - A) <= 1e-14 * (1 + linalg.maxabs(A))

    def test_largest_doubles(self):
        # each term is halved before the sum, so entries near the largest
        # double do not overflow
        A = np.array([[1e308, 1.7e308], [-1e308, 1.7e308j]])
        want = np.array([[1e308, 0.35e308], [0.35e308, 0.0]])
        np.testing.assert_allclose(linalg.hermitian_part(A), want, rtol=1e-15)
        linalg.require_accretive(1e308 * np.eye(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            linalg.hermitian_part([[np.nan]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            linalg.hermitian_part(np.ones((2, 3)))


class TestSolve:
    def test_identity(self):
        B = rand_complex(np.random.default_rng(0), 3)
        np.testing.assert_allclose(linalg.lu_solve(np.eye(3), B), B)

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_frozen_inverse(self):
        # adjugate of [[1, i], [-i, 2]] over det = 1
        A = np.array([[1, 1j], [-1j, 2]], dtype=complex)
        Ainv = linalg.inverse(A)
        np.testing.assert_allclose(Ainv, [[2, -1j], [1j, 1]], atol=1e-13)
        np.testing.assert_allclose(A @ Ainv, np.eye(2), atol=1e-13)

    def test_residual(self):
        rng = np.random.default_rng(11)
        A = rand_complex(rng, 8) + 4 * np.eye(8)
        B = rand_complex(rng, 8)
        X = linalg.lu_solve(A, B)
        res = linalg.maxabs(A @ X - B)
        assert res <= 1e-10 * (1 + linalg.maxabs(A) * linalg.maxabs(X))

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            linalg.lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
        assert err.value.pivot_index == 1

    def test_accretive_inverse_stays_accretive(self):
        from amm.sector import is_accretive

        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rand_complex(rng, 4) + 5 * np.eye(4)
            assert is_accretive(A)[0]
            assert is_accretive(linalg.inverse(A))[0]


class TestSingularValues:
    def test_unitary(self):
        from amm.sector import haar_unitary

        U = haar_unitary(4, np.random.default_rng(1))
        np.testing.assert_allclose(linalg.singular_values(U), np.ones(4), atol=1e-12)

    def test_diag_sign(self):
        np.testing.assert_allclose(linalg.singular_values(np.diag([-3.0, 4.0])), [3.0, 4.0])

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        sv = linalg.singular_values(np.outer(x, y.conj()))
        expect = np.linalg.norm(x) * np.linalg.norm(y)
        assert sv[-1] == pytest.approx(expect, rel=1e-10)
        # the gram route loses half the digits on the null space
        np.testing.assert_allclose(sv[:-1], np.zeros(4), atol=1e-6 * expect)

    def test_near_singular_relative_accuracy(self):
        from amm.sector import haar_unitary

        rng = np.random.default_rng(3)
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        A = U @ np.diag([1.0, 1e-10]) @ V.conj().T
        np.testing.assert_allclose(linalg.singular_values(A), [1e-10, 1.0], rtol=1e-6)


ALL_KINDS = [linalg.OPERATOR, linalg.FROBENIUS, linalg.TRACE, linalg.kyfan(2)]


class TestNorms:
    def test_trace_identity(self):
        assert linalg.uinorm(np.eye(3), linalg.TRACE) == pytest.approx(3.0)

    def test_operator_complex_diag(self):
        A = np.diag([1 + 1j, 0.0])
        assert linalg.uinorm(A, linalg.OPERATOR) == pytest.approx(math.sqrt(2))

    def test_gauge_ordering(self):
        A = rand_complex(np.random.default_rng(9), 5)
        op = linalg.uinorm(A, linalg.OPERATOR)
        fro = linalg.uinorm(A, linalg.FROBENIUS)
        tr = linalg.uinorm(A, linalg.TRACE)
        assert op <= fro + 1e-12 <= tr + 2e-12

    def test_normalized_on_projection(self):
        P = np.zeros((4, 4), dtype=complex)
        P[0, 0] = 1.0
        for kind in ALL_KINDS:
            assert linalg.uinorm(P, kind) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unitary_invariance(self, kind):
        from amm.sector import haar_unitary

        rng = np.random.default_rng(13)
        A = rand_complex(rng, 4)
        U = haar_unitary(4, rng)
        V = haar_unitary(4, rng)
        base = linalg.uinorm(A, kind)
        assert abs(linalg.uinorm(U @ A @ V, kind) - base) <= 1e-10 * base

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_real_part_contraction(self, kind):
        A = rand_complex(np.random.default_rng(17), 4)
        assert linalg.uinorm(linalg.hermitian_part(A), kind) <= linalg.uinorm(A, kind) + 1e-12

    def test_kyfan_range(self):
        with pytest.raises(ParameterError):
            linalg.uinorm(np.eye(2), linalg.kyfan(3))
        assert linalg.uinorm(np.eye(2), linalg.kyfan(2)) == pytest.approx(
            linalg.uinorm(np.eye(2), linalg.TRACE)
        )

    def test_parse(self):
        assert linalg.NormKind.parse("kyfan(3)") == linalg.kyfan(3)
        assert linalg.NormKind.parse("operator") == linalg.OPERATOR
        with pytest.raises(ParameterError):
            linalg.NormKind.parse("nuclear")


class TestLoewner:
    def test_strict(self):
        v = linalg.loewner_leq(np.eye(2), 2 * np.eye(2))
        assert v.holds and v.margin > 0

    def test_fails(self):
        v = linalg.loewner_leq(2 * np.eye(2), np.eye(2))
        assert not v.holds and v.margin < 0

    def test_equal(self):
        H = rand_hermitian(np.random.default_rng(4), 3)
        v = linalg.loewner_leq(H, H)
        assert v.holds and abs(v.margin) <= 1e-15

    def test_antisymmetry_bound(self):
        rng = np.random.default_rng(21)
        X = rand_hermitian(rng, 4)
        Y = X + 1e-9 * rand_hermitian(rng, 4)
        fwd = linalg.loewner_leq(X, Y)
        bwd = linalg.loewner_leq(Y, X)
        if fwd.holds and bwd.holds:
            scale = 1 + linalg.opnorm(X) + linalg.opnorm(Y)
            assert linalg.opnorm(X - Y) <= 2 * linalg.TAU_LOEWNER * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            linalg.loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestPrincipalSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(linalg.principal_sqrt(np.eye(3)), np.eye(3), atol=1e-13)

    def test_scalar_polar_oracle(self):
        # principal root of 1+i: modulus 2^(1/4), argument pi/8
        want = cmath.rect(2 ** 0.25, math.pi / 8)
        got = linalg.principal_sqrt(np.array([[1 + 1j]]))[0, 0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_ensemble_square_and_accretive(self):
        from amm.sector import EnsembleSpec, is_accretive, random_sectorial

        spec = EnsembleSpec(dim=5, alpha_max=math.pi / 3, m=1.0, M=2.0, count=20, seed=99)
        for i in range(spec.count):
            A = random_sectorial(spec, i)
            X = linalg.principal_sqrt(A)
            assert linalg.maxabs(X @ X - A) <= 1e-9 * (1 + linalg.maxabs(A))
            assert is_accretive(X)[0]

    @pytest.mark.parametrize("j", [-3, 5, 50, 100, 498])
    def test_power_of_four_scaling(self, j):
        # the iteration runs on A scaled by a power of two into [1/2, 2), so
        # the root of 4^j A is 2^j times the root of A to the bit; unscaled,
        # it needed about log2 sqrt(max|A|) steps and gave up at 1e60
        from amm.sector import EnsembleSpec, random_sectorial

        spec = EnsembleSpec(dim=4, alpha_max=1.0, m=1.0, M=10.0, count=2, seed=3)
        A = random_sectorial(spec, 0)
        np.testing.assert_array_equal(linalg.principal_sqrt(4.0**j * A),
                                      2.0**j * linalg.principal_sqrt(A))

    def test_rejects_non_accretive(self):
        with pytest.raises(PreconditionError):
            linalg.principal_sqrt(np.array([[-1.0]]))
        with pytest.raises(PreconditionError):
            linalg.principal_sqrt(np.array([[1j]]))

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_same_verdict_as_require_accretive(self, factor):
        # A normal with eigenvalues c(1 + i/2), 1 + i/2, 0.8: ||A||_op = |1 + i/2|
        # and lambda_min(Re A) = c, so the margin is factor * TAU_LOEWNER
        rng = np.random.default_rng(4)
        U, _ = np.linalg.qr(rand_complex(rng, 3))
        c = factor * linalg.TAU_LOEWNER * (1.0 + abs(1 + 0.5j))
        A = U @ np.diag([c * (1 + 0.5j), 1 + 0.5j, 0.8]) @ U.conj().T
        assert linalg.is_accretive(A)[0] == (factor > 1.0)

        def accepts(guarded):
            try:
                guarded(A)
            except PreconditionError:
                return False
            return True

        assert accepts(linalg.principal_sqrt) == accepts(linalg.require_accretive) == (factor > 1.0)
