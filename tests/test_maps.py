

import numpy as np
import pytest

from amm import maps
from amm.errors import ParameterError
from amm.funcalc import standard_catalog
from amm.linalg import hermitian_part, loewner_leq, maxabs, opnorm
from amm.maps import VARIANTS, apply_map, is_unital, random_map
from amm.means import sigma_mean
from amm.sector import EnsembleSpec, random_pd

UNITAL = ("compression", "kraus", "pinching", "vector_state", "normalized_trace")


def map_for(dim, variant, seed=0):
    if variant == "compression":
        return random_map(dim, max(1, dim - 1), variant, seed)
    if variant in ("kraus", "kraus_nonunital", "pinching"):
        return random_map(dim, dim, variant, seed)
    return random_map(dim, 1, variant, seed)


class TestApply:
    def test_full_compression_is_identity_like(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V = np.eye(3, dtype=complex)
        phi = maps.PositiveLinearMap("compression", 3, 3, operators=(V,))
        np.testing.assert_allclose(apply_map(phi, A), A)

    def test_vector_state_basis(self):
        x = np.zeros(2, dtype=complex)
        x[0] = 1.0
        phi = maps.PositiveLinearMap("vector_state", 2, 1, operators=(x[:, None],))
        np.testing.assert_allclose(apply_map(phi, np.diag([3.0, 5.0])), [[3.0]])

    def test_normalized_trace(self):
        phi = random_map(2, 1, "normalized_trace", 3)
        np.testing.assert_allclose(apply_map(phi, np.diag([1.0, 3.0])), [[2.0]])

    def test_pinching_blocks(self):
        rng = np.random.default_rng(31)
        cases = [np.arange(16, dtype=float).reshape(4, 4) + 0j]
        cases += [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for d in (1, 2, 5, 8)]
        for A in cases:
            dim = A.shape[0]
            half = (dim + 1) // 2
            expected = np.zeros_like(A)
            expected[:half, :half] = A[:half, :half]
            expected[half:, half:] = A[half:, half:]
            np.testing.assert_array_equal(apply_map(map_for(dim, "pinching"), A), expected)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stack_is_per_matrix(self, variant):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        phi = map_for(5, variant, 2)
        out = apply_map(phi, A)
        assert out.shape == (4, phi.dim_out, phi.dim_out)
        for k in range(4):
            np.testing.assert_array_equal(out[k], apply_map(phi, A[k]))

    def test_dimension_mismatch(self):
        phi = map_for(3, "compression")
        with pytest.raises(ParameterError):
            apply_map(phi, np.eye(4))


class TestUnitality:
    @pytest.mark.parametrize("variant", UNITAL)
    def test_unital_variants(self, variant):
        for dim in (1, 2, 5):
            assert is_unital(map_for(dim, variant, seed=dim))

    def test_scaled_kraus_not_unital(self):
        phi = map_for(4, "kraus_nonunital", seed=9)
        assert not is_unital(phi)

    def test_compression_orthonormal(self):
        phi = random_map(4, 2, "compression", 5)
        V = phi.operators[0]
        assert maxabs(V.conj().T @ V - np.eye(2)) <= 1e-12


class TestStructure:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_positivity_preservation(self, variant):
        spec = EnsembleSpec(dim=4, alpha_max=0.0, m=0.1, M=5.0, count=500, seed=303)
        phi = map_for(4, variant, seed=11)
        for i in range(spec.count):
            P = random_pd(spec, i)
            out = hermitian_part(apply_map(phi, P))
            scale = 1 + opnorm(P)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * scale

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_adjoint_compatibility(self, variant):
        rng = np.random.default_rng(23)
        phi = map_for(3, variant, seed=23)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = apply_map(phi, A.conj().T)
        rhs = apply_map(phi, A).conj().T
        assert maxabs(lhs - rhs) <= 1e-14 * (1 + maxabs(A))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_real_part_commutes(self, variant):
        rng = np.random.default_rng(29)
        phi = map_for(4, variant, seed=29)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = hermitian_part(apply_map(phi, A))
        rhs = apply_map(phi, hermitian_part(A))
        assert maxabs(lhs - rhs) <= 1e-13 * (1 + maxabs(A))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_complete_positivity(self, variant, dim):
        # Choi: Phi is completely positive iff sum_ij E_ij (x) Phi(E_ij) >= 0
        phi = map_for(dim, variant, seed=dim)
        units = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
        choi = np.block([[apply_map(phi, units[i, j]) for j in range(dim)]
                         for i in range(dim)])
        assert np.linalg.eigvalsh(choi)[0] >= -1e-12

    def test_determinism(self):
        a = random_map(4, 2, "compression", 77)
        b = random_map(4, 2, "compression", 77)
        np.testing.assert_array_equal(a.operators[0], b.operators[0])

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            random_map(2, 3, "compression", 0)
        with pytest.raises(ParameterError):
            random_map(3, 2, "pinching", 0)
        with pytest.raises(ParameterError):
            random_map(3, 2, "vector_state", 0)
        with pytest.raises(ParameterError):
            random_map(3, 1, "haar", 0)

    @pytest.mark.parametrize("dim_in, dim_out, operators, message", [
        (2, 3, (np.ones((2, 2)),), r"must be 2 x 3, got shapes \[\(2, 2\)\]"),
        (2, 2, (np.eye(2), np.ones((2, 3))), "must be 2 x 2"),
        (2, 1, (), r"got shapes \[\]"),
        (0, 1, (np.ones((0, 1)),), "dimensions must be positive"),
        (2.0, 1, (np.ones((2, 1)),), "dim_in must be an integer"),
    ], ids=["shape", "second-factor", "empty", "dim-zero", "dim-float"])
    def test_constructor_checks_factors(self, dim_in, dim_out, operators, message):
        # a 2 x 2 factor was accepted as 2 -> 3: apply_map gave 2 x 2
        # results while describe() reported dim_out 3
        with pytest.raises(ParameterError, match=message):
            maps.PositiveLinearMap("kraus", dim_in, dim_out, operators=operators)

    @pytest.mark.parametrize("args, name", [
        ((2, 2, "kraus", 1.5), "seed"), ((2.0, 2, "kraus", 1), "dim_in"),
        ((2, True, "pinching", 1), "dim_out"), ((3, 1, "vector_state", "0"), "seed")])
    def test_non_integer_argument_is_named(self, args, name):
        # random_map(2, 2, "kraus", 1.5) was a TypeError from the generator
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            random_map(*args)


class TestClassicalInequalities:
    def test_choi_on_pd(self):
        # Phi(A)^-1 <= Phi(A^-1) for unital Phi and positive definite A
        from amm.linalg import inverse

        spec = EnsembleSpec(dim=4, alpha_max=0.0, m=0.5, M=4.0, count=20, seed=404)
        for variant in UNITAL:
            phi = map_for(4, variant, seed=41)
            for i in range(spec.count):
                A = random_pd(spec, i)
                lhs = inverse(hermitian_part(apply_map(phi, A)))
                rhs = hermitian_part(apply_map(phi, inverse(A)))
                assert loewner_leq(lhs, rhs).holds

    def test_ando_on_pd_pairs(self):
        # Phi(A sigma_f B) <= Phi(A) sigma_f Phi(B) for every variant
        spec = EnsembleSpec(dim=4, alpha_max=0.0, m=0.5, M=4.0, count=12, seed=505)
        for variant in VARIANTS:
            phi = map_for(4, variant, seed=43)
            for f in standard_catalog():
                for i in range(0, spec.count, 2):
                    A, B = random_pd(spec, i), random_pd(spec, i + 1)
                    lhs = hermitian_part(apply_map(phi, sigma_mean(A, B, f)))
                    rhs = hermitian_part(
                        sigma_mean(apply_map(phi, A), apply_map(phi, B), f)
                    )
                    assert loewner_leq(lhs, rhs).holds, (variant, str(f))
