import math
import re

import numpy as np
import pytest

from amm import linalg, sector
from amm.errors import ParameterError, PreconditionError
from amm.linalg import hermitian_part, imaginary_part
from amm.sector import (
    EnsembleSpec,
    haar_unitary,
    is_accretive,
    random_pd,
    random_sectorial,
    sectorial_angle,
)

GRID = [(d, a) for d in (1, 2, 3, 5, 8) for a in (0.0, math.pi / 6, math.pi / 4, math.pi / 3)]


def spec_for(dim, alpha, count=200, seed=314159, m=1.0, M=2.0):
    return EnsembleSpec(dim=dim, alpha_max=alpha, m=m, M=M, count=count, seed=seed)


class TestAccretive:
    def test_identity(self):
        ok, margin = is_accretive(np.eye(2))
        assert ok and margin > 0

    def test_skew(self):
        ok, margin = is_accretive(np.array([[1j]]))
        assert not ok and margin == pytest.approx(0.0, abs=1e-15)

    def test_diag_pair(self):
        assert is_accretive(np.diag([1 + 1j, 1 - 1j]))[0]


class TestAngle:
    def test_hermitian_pd_is_exactly_zero(self):
        spec = spec_for(4, 0.0, count=5)
        for i in range(5):
            assert sectorial_angle(random_pd(spec, i)) == 0.0

    def test_normal_quarter_pi(self):
        assert sectorial_angle(np.diag([1 + 1j, 1 - 1j])) == pytest.approx(math.pi / 4)

    def test_constructed_operator_norm(self):
        # A = P^(1/2) (I + iT) P^(1/2) has angle arctan ||T||_op regardless of P
        rng = np.random.default_rng(8)
        n = 4
        U = haar_unitary(n, rng)
        P = U @ np.diag(rng.uniform(0.5, 3.0, n)) @ U.conj().T
        P = (P + P.conj().T) / 2
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = (G + G.conj().T) / 2
        T *= 0.5 / np.max(np.abs(np.linalg.eigvalsh(T)))
        S = linalg.principal_sqrt(P)
        A = S @ (np.eye(n) + 1j * T) @ S
        assert sectorial_angle(A) == pytest.approx(math.atan(0.5), abs=1e-10)

    def test_numerical_range_oracle(self):
        # the certified angle dominates every Rayleigh ratio, and the
        # extremal vector of the congruenced imaginary part attains it
        spec = spec_for(4, math.pi / 4, count=3, seed=5150)
        rng = np.random.default_rng(0)
        for i in range(3):
            A = random_sectorial(spec, i)
            alpha = sectorial_angle(A)
            Re, Im = hermitian_part(A), imaginary_part(A)
            for _ in range(500):
                x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                ratio = abs(x.conj() @ Im @ x) / (x.conj() @ Re @ x).real
                assert ratio <= math.tan(alpha) + 1e-9
            vals, vecs = np.linalg.eigh(Re)
            W = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
            H = W @ Im @ W
            hv, hU = np.linalg.eigh((H + H.conj().T) / 2)
            k = int(np.argmax(np.abs(hv)))
            x = W @ hU[:, k]
            ratio = abs(x.conj() @ Im @ x) / (x.conj() @ Re @ x).real
            assert ratio == pytest.approx(math.tan(alpha), abs=1e-9)

    def test_unitary_invariance(self):
        spec = spec_for(5, math.pi / 3, count=5, seed=271828)
        rng = np.random.default_rng(1)
        for i in range(5):
            A = random_sectorial(spec, i)
            U = haar_unitary(5, rng)
            assert sectorial_angle(U @ A @ U.conj().T) == pytest.approx(
                sectorial_angle(A), abs=1e-9
            )

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            sectorial_angle(np.array([[1j]]))
        with pytest.raises(PreconditionError):
            sector.certify(np.array([[-1.0]]))


class TestCertifyReBounds:
    # certify's (m, M) are lambda_min and lambda_max of Re A
    def test_identity(self):
        cert = sector.certify(np.eye(3))
        assert (cert.m, cert.M) == pytest.approx((1.0, 1.0))

    def test_diag(self):
        cert = sector.certify(np.diag([1.0, 4.0]))
        assert (cert.m, cert.M) == pytest.approx((1.0, 4.0))

    def test_analytic_2x2(self):
        cert = sector.certify(np.array([[2, 1j], [-1j, 2]], dtype=complex))
        assert (cert.m, cert.M) == pytest.approx((1.0, 3.0))


class TestCertifyNorm:
    # the certificate's norm is ||A||_op from the SVD of its accretivity test
    def test_matrix(self):
        A = random_sectorial(spec_for(4, 1.2, count=1, seed=7), 0)
        cert = sector.certify(A)
        assert cert.norm == linalg.opnorm(A)
        # a numpy scalar, like alpha, m and M
        for value in (cert.norm, cert.alpha, cert.m, cert.M):
            assert isinstance(value, np.floating)

    def test_each_matrix_of_a_stack(self):
        stack = random_sectorial(spec_for(3, 1.0, count=5, seed=8), range(5))
        norms = sector.certify(stack).norm
        assert norms.shape == (5,)
        for A, norm in zip(stack, norms):
            assert norm == linalg.opnorm(A)


class TestGenerator:
    @pytest.mark.parametrize("dim,alpha", GRID)
    def test_soundness(self, dim, alpha):
        spec = spec_for(dim, alpha)
        for i in range(spec.count):
            A = random_sectorial(spec, i)
            assert is_accretive(A)[0]
            assert sectorial_angle(A) <= alpha + 1e-10
            cert = sector.certify(A)
            assert spec.m - 1e-10 <= cert.m <= cert.M <= spec.M + 1e-10

    def test_flat_ensembles_are_exactly_hermitian(self):
        spec = spec_for(4, 0.0, count=10)
        for i in range(10):
            A = random_sectorial(spec, i)
            assert np.array_equal(A, A.conj().T)
            assert linalg.maxabs(imaginary_part(A)) == 0.0

    def test_scalar_form(self):
        spec = spec_for(1, math.pi / 4, count=50, m=1.0, M=1.0)
        for i in range(50):
            a = random_sectorial(spec, i)[0, 0]
            assert a.real == pytest.approx(1.0)
            assert abs(a.imag) <= math.tan(math.pi / 4) + 1e-12

    def test_pd_spectrum_in_bounds(self):
        spec = spec_for(6, 0.0, count=20, m=0.5, M=8.0)
        for i in range(20):
            vals = np.linalg.eigvalsh(random_pd(spec, i))
            assert vals[0] >= spec.m - 1e-10
            assert vals[-1] <= spec.M + 1e-10

    def test_deterministic_and_index_independent(self):
        spec = spec_for(3, math.pi / 6, count=4)
        first = [random_sectorial(spec, i) for i in range(4)]
        again = [random_sectorial(spec, i) for i in (2, 0, 3, 1)]
        for i, j in enumerate((2, 0, 3, 1)):
            np.testing.assert_array_equal(first[j], again[i])
        assert not np.array_equal(first[0], first[1])

    def test_index_bounds(self):
        spec = spec_for(2, 0.0, count=3)
        with pytest.raises(ParameterError):
            random_sectorial(spec, 3)

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.0), ("dim", True), ("count", 3.5), ("seed", 1.5), ("seed", "7")])
    def test_non_integer_spec_field_is_named(self, field, value):
        # refused when the spec is made, not by a TypeError in the draw or the check
        with pytest.raises(ParameterError,
                           match=rf"{field} must be an integer, got {re.escape(repr(value))}"):
            EnsembleSpec(**{"dim": 2, "alpha_max": 0.5, "m": 1.0, "M": 2.0, "count": 3,
                            "seed": 1, field: value})

    def test_numpy_integer_spec_fields_draw(self):
        spec = EnsembleSpec(dim=np.int64(2), alpha_max=0.5, m=1.0, M=2.0, count=np.int32(3),
                            seed=np.uint64(1))
        assert np.array_equal(random_sectorial(spec, 2), random_sectorial(spec_for(2, 0.5, 3, 1), 2))

    @pytest.mark.parametrize("M", [math.inf, math.nan])
    def test_non_finite_M_refused(self, M):
        # M = inf used to pass and overflow in the draw
        with pytest.raises(ParameterError, match="need 0 < m <= M < inf"):
            spec_for(2, 0.5, M=M)

    def test_pd_scalar(self):
        spec = spec_for(1, 0.0, count=1, m=2.0, M=2.0)
        np.testing.assert_allclose(random_pd(spec, 0), [[2.0]])


def _bits(X):
    return np.ascontiguousarray(X).view(np.uint64)


def _one_matrix_draw(spec, index):
    """The construction of random_sectorial written out for one matrix (np.diag,
    .conj().T, a scalar T scale): the reference a stacked draw must match to the bit."""
    rng = np.random.default_rng((spec.seed, 0, index))
    n = spec.dim
    p = rng.uniform(spec.m, spec.M, size=n)
    U = haar_unitary(n, rng)
    S = linalg.hermitian(U @ np.diag(np.sqrt(p)) @ U.conj().T)
    P = linalg.hermitian(S @ S)
    if spec.alpha_max == 0.0:
        return P
    T = linalg.hermitian(sector.ginibre((n, n), rng))
    u = rng.uniform(0.0, 1.0)
    T = T * (u * math.tan(spec.alpha_max) / float(np.max(np.abs(np.linalg.eigvalsh(T)))))
    return P + 1j * linalg.hermitian(S @ T @ S)


class TestStackedDraw:
    @pytest.mark.parametrize("mM", [(1.0, 2.0), (1e-3, 1e5)])
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 6, 1.4, 1.55])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
    def test_stack_is_the_stack_of_single_draws(self, n, alpha, mM):
        spec = spec_for(n, alpha, count=6, seed=2718 + n, m=mM[0], M=mM[1])
        single = np.array([random_sectorial(spec, i) for i in range(6)])
        for i in range(6):
            assert np.array_equal(_bits(single[i]), _bits(_one_matrix_draw(spec, i)))
        assert np.array_equal(_bits(random_sectorial(spec, range(6))), _bits(single))
        subset = [4, 1, 4, 0]  # shuffled, with a repeat
        assert np.array_equal(_bits(random_sectorial(spec, subset)), _bits(single[subset]))
        assert np.array_equal(_bits(random_sectorial(spec, [3])), _bits(single[3:4]))
        assert random_sectorial(spec, 3).shape == (n, n)

    @pytest.mark.parametrize("indices", [[7], [0, 1, 7], [2, -1, 0], [5, 3, 9, 1]])
    def test_bad_index_anywhere_is_named(self, indices):
        bad = next(i for i in indices if not 0 <= i < 6)
        with pytest.raises(ParameterError, match=rf"index {bad} outside \[0, 6\)"):
            random_sectorial(spec_for(3, math.pi / 6, count=6), indices)

    @pytest.mark.parametrize("indices, bad", [(1.5, "1.5"), ([1, 2.0], "2.0"),
                                              (np.float64(3.0), "np.float64(3.0)"),
                                              ([0, True], "True"), ("1", "'1'")])
    def test_non_integer_index_is_named(self, indices, bad):
        with pytest.raises(ParameterError, match=rf"index must be an integer, got {re.escape(bad)}"):
            random_sectorial(spec_for(3, math.pi / 6, count=6), indices)

    def test_numpy_integer_indices_draw(self):
        spec = spec_for(3, math.pi / 6, count=6)
        single = random_sectorial(spec, [1, 4])
        assert np.array_equal(_bits(random_sectorial(spec, np.array([1, 4]))), _bits(single))
        assert np.array_equal(_bits(random_sectorial(spec, np.int32(4))), _bits(single[1]))

    def test_empty_index_list_is_refused(self):
        with pytest.raises(ParameterError, match="at least one index"):
            random_sectorial(spec_for(3, math.pi / 6, count=6), [])


class TestConeClosure:
    def test_sum_and_inverse_stay_in_sector(self):
        spec = spec_for(4, math.pi / 4, count=20, seed=161803)
        for i in range(0, 20, 2):
            A = random_sectorial(spec, i)
            B = random_sectorial(spec, i + 1)
            alpha = max(sectorial_angle(A), sectorial_angle(B))
            assert sectorial_angle(A + B) <= alpha + 1e-9
            assert sectorial_angle(linalg.inverse(A)) <= alpha + 1e-9


class TestSpecValidation:
    def test_bad_params(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(dim=0, alpha_max=0.0, m=1.0, M=2.0, count=1, seed=0)
        with pytest.raises(ParameterError):
            EnsembleSpec(dim=2, alpha_max=math.pi / 2, m=1.0, M=2.0, count=1, seed=0)
        with pytest.raises(ParameterError):
            EnsembleSpec(dim=2, alpha_max=0.0, m=2.0, M=1.0, count=1, seed=0)
        with pytest.raises(ParameterError):
            EnsembleSpec(dim=2, alpha_max=0.0, m=0.0, M=1.0, count=1, seed=0)
        with pytest.raises(ParameterError):
            EnsembleSpec(dim=2, alpha_max=0.0, m=1.0, M=2.0, count=0, seed=0)

    def test_certificate(self):
        cert = sector.certify(np.diag([1 + 1j, 1 - 1j]))
        assert cert.alpha == pytest.approx(math.pi / 4)
        assert (cert.m, cert.M) == pytest.approx((1.0, 1.0))

    def test_certificate_loewner_invariants(self):
        # tan(alpha) Re A +- Im A >= 0 and m I <= Re A <= M I as verdicts
        spec = spec_for(4, math.pi / 3, count=10, seed=606)
        for i in range(10):
            A = random_sectorial(spec, i)
            cert = sector.certify(A)
            Re, Im = hermitian_part(A), imaginary_part(A)
            n = A.shape[0]
            tan_re = math.tan(cert.alpha) * Re
            assert linalg.loewner_leq(-tan_re, Im).holds
            assert linalg.loewner_leq(Im, tan_re).holds
            assert linalg.loewner_leq(cert.m * np.eye(n), Re).holds
            assert linalg.loewner_leq(Re, cert.M * np.eye(n)).holds
