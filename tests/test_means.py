import math

import numpy as np
import pytest

from amm import funcalc, linalg, means
from amm.errors import NumericFailureError, ParameterError, PreconditionError
from amm.funcalc import apply_function, catalog, standard_catalog
from amm.linalg import hermitian_part, inverse, loewner_leq, maxabs, opnorm
from amm.means import (
    arithmetic_mean,
    congruence_sigma,
    drury_half,
    geometric_mean,
    geometric_neg,
    geometric_paths,
    harmonic_mean,
    scalar_sigma,
    sigma_mean,
)
from amm.sector import EnsembleSpec, random_pd, random_sectorial


def pair(dim, alpha, seed, m=1.0, M=2.0):
    spec = EnsembleSpec(dim=dim, alpha_max=alpha, m=m, M=M, count=2, seed=seed)
    return random_sectorial(spec, 0), random_sectorial(spec, 1)


class TestHarmonic:
    def test_scalar(self):
        got = harmonic_mean(np.array([[2.0]]), np.array([[8.0]]), 0.5)
        assert got[0, 0] == pytest.approx(3.2)

    def test_endpoints(self):
        A, B = pair(3, math.pi / 6, 10)
        np.testing.assert_array_equal(harmonic_mean(A, B, 0.0), A)
        np.testing.assert_array_equal(harmonic_mean(A, B, 1.0), B)

    def test_idempotent(self):
        A, _ = pair(3, math.pi / 4, 11)
        for t in (0.2, 0.5, 0.9):
            assert maxabs(harmonic_mean(A, A, t) - A) <= 1e-12

    def test_validation(self):
        with pytest.raises(ParameterError):
            harmonic_mean(np.eye(2), np.eye(2), 1.5)
        with pytest.raises(PreconditionError):
            harmonic_mean(np.array([[1j]]), np.array([[1.0]]), 0.5)


class TestArithmetic:
    def test_simple(self):
        got = arithmetic_mean(np.eye(2), 3 * np.eye(2), 0.5)
        np.testing.assert_allclose(got, 2 * np.eye(2))

    def test_endpoint(self):
        A, B = pair(2, 0.0, 12)
        np.testing.assert_array_equal(arithmetic_mean(A, B, 1.0), B)

    def test_real_part_linearity(self):
        A, B = pair(3, math.pi / 4, 13)
        lhs = hermitian_part(arithmetic_mean(A, B, 0.3))
        rhs = arithmetic_mean(hermitian_part(A), hermitian_part(B), 0.3)
        assert maxabs(lhs - rhs) <= 1e-15

    def test_shape_mismatch_rejected_without_validation(self):
        with pytest.raises(ParameterError, match="shapes differ"):
            arithmetic_mean(np.eye(2), np.eye(3), 0.5)
        # the shape check runs before the accretivity check
        with pytest.raises(ParameterError, match="shapes differ"):
            sigma_mean(np.eye(2), np.eye(3), catalog("power", 0.5))


# Spectrum {1}, off the cut, but Re has eigenvalue -1: not accretive.
_NOT_ACCRETIVE = np.array([[1.0, 4.0], [0.0, 1.0]])
_ROOT = catalog("power", 0.5)
_BINARY = {
    "harmonic_mean": lambda A, B: harmonic_mean(A, B, 0.5),
    "sigma_mean": lambda A, B: sigma_mean(A, B, _ROOT),
    "congruence_sigma": lambda A, B: congruence_sigma(A, B, _ROOT),
    "geometric_paths": lambda A, B: geometric_paths(A, B, 0.5),
    "geometric_mean": lambda A, B: geometric_mean(A, B, 0.5),
    "drury_half": drury_half,
    "geometric_neg": lambda A, B: geometric_neg(A, B, 0.5),
}
# f(A) has the one operand A
_UNARY = {
    "apply_function": lambda A: apply_function(_ROOT, A),
    "dunford_apply": lambda A: funcalc.dunford_apply(
        _ROOT, A, funcalc.choose_contour(np.eye(2))),
}
_REFUSAL_CASES = [(name, "A") for name in _UNARY] + [
    (name, operand) for name in _BINARY for operand in ("A", "B")
]


class TestRefusal:
    # every public mean and f(A) checks its own operands
    @pytest.mark.parametrize("name, operand", _REFUSAL_CASES)
    def test_refuses_non_accretive_operand(self, name, operand):
        good, _ = pair(2, math.pi / 6, 40)
        A, B = (_NOT_ACCRETIVE, good) if operand == "A" else (good, _NOT_ACCRETIVE)
        if name in _UNARY:
            with pytest.raises(PreconditionError, match="^matrix is not accretive"):
                _UNARY[name](A)
        else:
            with pytest.raises(PreconditionError, match=f"^{operand} is not accretive"):
                _BINARY[name](A, B)


class TestSigma:
    def test_arithmetic_is_exact(self):
        A, B = pair(3, math.pi / 6, 14)
        S = sigma_mean(A, B, catalog("arithmetic", 0.3))
        np.testing.assert_allclose(S, 0.7 * A + 0.3 * B, atol=1e-14)

    def test_idempotence_all_catalog(self):
        A, _ = pair(4, math.pi / 4, 15)
        for f in standard_catalog():
            assert maxabs(sigma_mean(A, A, f) - A) <= 1e-9 * (1 + maxabs(A))

    def test_scalar_geometric(self):
        S = sigma_mean(np.array([[4.0]]), np.array([[9.0]]), catalog("power", 0.5))
        assert S[0, 0] == pytest.approx(6.0, rel=1e-11)

    def test_congruence_identity_left(self):
        _, B = pair(3, math.pi / 4, 16)
        f = catalog("power", 0.3)
        got = congruence_sigma(np.eye(3), B, f)
        from amm.funcalc import apply_function

        assert maxabs(got - apply_function(f, B)) <= 1e-10 * (1 + maxabs(B))

    def test_congruence_commuting_diagonal(self):
        got = congruence_sigma(
            np.diag([1.0, 4.0]).astype(complex),
            np.diag([4.0, 1.0]).astype(complex),
            catalog("power", 0.5),
        )
        np.testing.assert_allclose(got, np.diag([2.0, 2.0]), atol=1e-10)

    def test_scalar_congruence_oracle(self):
        # (1+i) sharp (1-i) = sqrt((1+i)(1-i)) = sqrt(2) for commuting scalars
        got = congruence_sigma(
            np.array([[1 + 1j]]), np.array([[1 - 1j]]), catalog("power", 0.5)
        )
        assert got[0, 0] == pytest.approx(math.sqrt(2), abs=1e-11)

    def test_transformer_identity(self):
        rng = np.random.default_rng(17)
        A, B = pair(4, math.pi / 4, 17)
        from amm.sector import haar_unitary

        C = haar_unitary(4, rng) @ np.diag(rng.uniform(0.5, 2, 4)) @ haar_unitary(4, rng)
        f = catalog("uniform")
        lhs = C.conj().T @ sigma_mean(A, B, f) @ C
        rhs = sigma_mean(C.conj().T @ A @ C, C.conj().T @ B @ C, f)
        scale = 1 + opnorm(lhs)
        assert opnorm(lhs - rhs) <= 1e-7 * scale


class TestGeometric:
    def test_scalar(self):
        G = geometric_mean(np.array([[4.0]]), np.array([[9.0]]), 0.5)
        assert G[0, 0] == pytest.approx(6.0, rel=1e-11)

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_three_paths_agree(self, lam):
        A, B = pair(4, math.pi / 3, 18)
        Pa, Pb, Pc = geometric_paths(A, B, lam)
        scale = 1 + max(opnorm(Pa), opnorm(Pb), opnorm(Pc))
        assert opnorm(Pa - Pb) <= 1e-8 * scale
        assert opnorm(Pa - Pc) <= 1e-8 * scale
        assert opnorm(Pb - Pc) <= 1e-8 * scale

    def test_weight_flip(self):
        A, B = pair(3, math.pi / 4, 19)
        for lam in (0.25, 0.5, 0.8):
            X = geometric_mean(A, B, lam)
            Y = geometric_mean(B, A, 1 - lam)
            assert opnorm(X - Y) <= 1e-8 * (1 + opnorm(X))

    def test_inversion(self):
        A, B = pair(3, math.pi / 4, 20)
        X = inverse(geometric_mean(A, B, 0.3))
        Y = geometric_mean(inverse(A), inverse(B), 0.3)
        assert opnorm(X - Y) <= 1e-8 * (1 + opnorm(X))

    def test_lambda_range(self):
        with pytest.raises(ParameterError):
            geometric_mean(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ParameterError):
            geometric_mean(np.eye(2), np.eye(2), 1.0)

    # Kubo-Ando homogeneity: A #_lam (cB) = c^lam (A #_lam B)
    @pytest.mark.parametrize("dim, alpha, M", [
        (1, 0.0, 2.0), (3, math.pi / 6, 2.0), (5, math.pi / 3, 10.0), (8, 1.2, 100.0),
    ])
    def test_homogeneity(self, dim, alpha, M):
        A, B = pair(dim, alpha, 25, M=M)
        for lam in (0.3, 0.7):
            G = geometric_mean(A, B, lam)
            for c in (3.0, 0.3):
                scaled = geometric_mean(A, c * B, lam)
                assert maxabs(scaled - c ** lam * G) <= 1e-8 * maxabs(scaled)

    def test_too_low_order_disagrees(self, monkeypatch):
        # every quadrature pinned to order 4: the measure route is 1.2e-4 off
        # here, and the homogeneity route, at other nodes of the pencil,
        # must show it although the pair route agrees to rounding; the
        # route test is relative, so it sees the error at every scale
        converged = funcalc._converged
        monkeypatch.setattr(funcalc, "_converged",
                            lambda compute, order=None: converged(compute, 4))
        A, B = pair(4, 1.2, 3, M=100.0)
        via_measure, _, via_homogeneity = geometric_paths(A, B, 0.3)
        assert maxabs(via_measure - via_homogeneity) > 1e-8 * (1 + maxabs(via_measure))
        for s in (1.0, 1e-3, 1e-5, 1e-7):
            with pytest.raises(NumericFailureError, match="paths disagree"):
                geometric_mean(s * A, s * B, 0.3)


class TestDrury:
    def test_equal_operands(self):
        A, _ = pair(3, math.pi / 6, 21)
        assert maxabs(drury_half(A, A) - A) <= 1e-9 * (1 + maxabs(A))

    def test_scalar(self):
        got = drury_half(np.array([[4.0]]), np.array([[9.0]]))
        assert got[0, 0] == pytest.approx(6.0, rel=1e-10)

    def test_matches_geometric_half(self):
        for seed in (22, 23, 24):
            A, B = pair(3, math.pi / 3, seed)
            D = drury_half(A, B)
            G = geometric_mean(A, B, 0.5)
            assert opnorm(D - G) <= 1e-7 * (1 + opnorm(G))


class TestGeometricNeg:
    def test_equal_operands(self):
        A, _ = pair(3, math.pi / 6, 25)
        got = geometric_neg(A, A, 0.4)
        assert maxabs(got - A) <= 1e-8 * (1 + maxabs(A))

    def test_scalar_power_formula(self):
        got = geometric_neg(np.array([[4.0]]), np.array([[9.0]]), 0.5)
        assert got[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_diagonal_elementwise(self):
        a = np.array([1.5, 3.0])
        b = np.array([2.0, 0.8])
        lam = 0.3
        got = geometric_neg(np.diag(a).astype(complex), np.diag(b).astype(complex), lam)
        want = np.diag(a ** (1 + lam) * b ** (-lam))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_lambda_range(self):
        with pytest.raises(ParameterError):
            geometric_neg(np.eye(2), np.eye(2), 1.2)


class TestPositiveDegeneration:
    def test_harmonic_sigma_arithmetic_chain(self):
        spec = EnsembleSpec(dim=4, alpha_max=0.0, m=1.0, M=2.0, count=10, seed=2024)
        for f in standard_catalog():
            t = f.derivative_at_one
            for i in range(0, 10, 2):
                A, B = random_pd(spec, i), random_pd(spec, i + 1)
                S = hermitian_part(sigma_mean(A, B, f))
                assert loewner_leq(hermitian_part(harmonic_mean(A, B, t)), S).holds
                assert loewner_leq(S, arithmetic_mean(A, B, t)).holds

    def test_mixed_mean_identity(self):
        spec = EnsembleSpec(dim=3, alpha_max=0.0, m=1.0, M=2.0, count=10, seed=2025)
        for i in range(0, 10, 2):
            A, B = random_pd(spec, i), random_pd(spec, i + 1)
            N = arithmetic_mean(A, B, 0.5)
            H = harmonic_mean(A, B, 0.5)
            lhs = geometric_mean(N, H, 0.5)
            rhs = geometric_mean(A, B, 0.5)
            assert opnorm(lhs - rhs) <= 1e-8 * (1 + opnorm(rhs))


class TestScalarSigma:
    def test_positive(self):
        assert scalar_sigma(4.0, 9.0, catalog("power", 0.5)) == pytest.approx(6.0)

    def test_complex(self):
        f = catalog("harmonic", 0.5)
        got = scalar_sigma(1.0, 1 + 1j, f)
        # 1 !_0.5 (1+i) = ((1/2) + (1/2)/(1+i))^-1
        want = 1.0 / (0.5 + 0.5 / (1 + 1j))
        assert got == pytest.approx(want, abs=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            scalar_sigma(0.0, 1.0, catalog("power", 0.5))


class TestConvergenceFailure:
    # a wide sector with M/m = 100 and the order cap lowered to 16: doubling
    # from 8 to 16 still moves each result by more than 1e-8, so each public
    # routine must refuse at the cap instead of return
    @pytest.mark.parametrize("compute", [
        lambda A, B: apply_function(catalog("power", 0.3), A),
        lambda A, B: sigma_mean(A, B, catalog("uniform")),
        lambda A, B: geometric_mean(A, B, 0.3),
        lambda A, B: drury_half(A, B),
    ], ids=["apply_function", "sigma_mean", "geometric_mean", "drury_half"])
    def test_doubling_drift_raises(self, compute, monkeypatch):
        monkeypatch.setattr(funcalc, "_MAX_ORDER", 16)
        A, B = pair(4, 1.4, 3, M=100.0)
        with pytest.raises(NumericFailureError, match="not converged at order 8"):
            compute(A, B)


class TestAdaptiveOrder:
    def test_matches_pinned_max_order_at_wide_sector(self):
        # at a fixed order of 80 all three sit 2.7e-10 from the order-512
        # value, which the suite never saw; a chosen order must not
        from amm.verify import _Ensemble, _Stack

        spec = EnsembleSpec(dim=4, alpha_max=1.2, m=1.0, M=100.0, count=2, seed=3)
        A, B = random_sectorial(spec, 0), random_sectorial(spec, 1)
        f = catalog("power", 0.3)

        def close(X, Y):
            return maxabs(X - Y) <= 1e-10 * (1 + maxabs(Y))

        def at_512(X, Y):
            # _sigma's integral, pinned at order 512 and the scale it chooses
            _, (_, c) = funcalc._sigma(X, Y, f.measure)
            P, Q = np.linalg.inv(np.stack([X, Y]))
            return funcalc._integrate(P, Q, f.measure, (512, c), ends=(X, Y))[0]

        assert close(sigma_mean(A, B, f), at_512(A, B))
        assert close(geometric_mean(A, B, 0.3), at_512(A, B))
        # the suite engine's stack, each sample at its own chosen order
        s = _Stack(_Ensemble(spec), "sigma_inner", f, None, None, None)
        for X, A_k, B_k in zip(s.sigma(s.A, s.B), s.A, s.B):
            assert close(X, at_512(A_k, B_k))

    def test_hard_edge_pair_not_refused(self):
        spec = EnsembleSpec(dim=8, alpha_max=1.4, m=1.0, M=100.0, count=8, seed=1)
        A, B = random_sectorial(spec, 0), random_sectorial(spec, 1)
        G = geometric_mean(A, B, 0.3)
        N = geometric_neg(A, B, 0.3)
        # A #_{-lam} B = A (A^-1 #_lam B^-1) A
        assert maxabs(N - A @ geometric_mean(inverse(A), inverse(B), 0.3) @ A) <= 1e-8 * maxabs(N)
        assert maxabs(G - geometric_mean(B, A, 0.7)) <= 1e-8 * maxabs(G)

    def test_easy_operand_needs_few_solves(self, record_solves):
        # n = 8, alpha = pi/6, M/m = 2: a fixed order 80 checked at 160
        # inverted 242 (apply_function) and 244 (sigma_mean) matrices
        counted = record_solves()
        A, B = pair(8, math.pi / 6, 5)
        f = catalog("power", 0.3)
        apply_function(f, A)
        assert 0 < sum(counted) <= 64
        counted.clear()
        sigma_mean(A, B, f)
        assert 0 < sum(counted) <= 64


class TestScaledPair:
    # B scaled by s moves the spectrum of the pencil by s but keeps its
    # spread (M/m = 2); without the scale the doubling needs order 128 at
    # s = 1e2 and 512 at 1e3, and every mean here refuses at 1e4
    @pytest.fixture
    def orders(self, monkeypatch):
        orders, rule = [], funcalc.gauss_jacobi_rule
        monkeypatch.setattr(funcalc, "gauss_jacobi_rule",
                            lambda e0, e1, k: orders.append(k) or rule(e0, e1, k))
        # the integral's node tables, left by earlier tests, would skip the rules
        funcalc._nodes.cache_clear()
        return orders

    @pytest.mark.parametrize("s", [1e4, 1e-4])
    def test_power_means_are_homogeneous(self, s, orders):
        A, B = pair(8, 0.5, 7)
        lam = 0.3
        for got, want in (
            (geometric_mean(A, s * B, lam), s ** lam * geometric_mean(A, B, lam)),
            (geometric_neg(A, s * B, lam), s ** -lam * geometric_neg(A, B, lam)),
            (drury_half(A, s * B), s ** 0.5 * drury_half(A, B)),
        ):
            assert maxabs(got - want) <= 1e-12 * maxabs(want)
        assert max(orders) <= 64

    @pytest.mark.parametrize("s", [1e4, 1e-4])
    def test_uniform_mean_matches_scipy(self, s, orders):
        # A^1/2 f(X) A^1/2 with X = A^-1/2 (sB) A^-1/2 and f(z) = z ln z / (z-1)
        from scipy.linalg import logm, sqrtm

        A, B = pair(8, 0.5, 7)
        S = sqrtm(A)
        Sinv = np.linalg.inv(S)
        X = Sinv @ (s * B) @ Sinv
        want = S @ X @ logm(X) @ np.linalg.inv(X - np.eye(8)) @ S
        got = sigma_mean(A, s * B, catalog("uniform"))
        assert maxabs(got - want) <= 1e-12 * maxabs(want)
        assert max(orders) <= 128

    def test_too_low_order_disagrees(self, monkeypatch):
        # at s = 1e4 the homogeneity route's pair (A^-1, (sB)^-1 / 2) would
        # choose half the measure route's scale, which undoes the halving;
        # at the measure route's scale it still sees the order-4 error
        converged = funcalc._converged
        monkeypatch.setattr(funcalc, "_converged",
                            lambda compute, order=None: converged(compute, 4))
        A, B = pair(4, 1.2, 3, M=100.0)
        via_measure, via_pair, via_homogeneity = geometric_paths(A, 1e4 * B, 0.3)
        assert maxabs(via_measure - via_pair) <= 1e-12 * maxabs(via_measure)
        assert maxabs(via_measure - via_homogeneity) > 1e-8 * (1 + maxabs(via_measure))

    @pytest.mark.parametrize("s", [1.0, 1e4])
    def test_too_low_order_refuses_negative_power(self, s, monkeypatch):
        # the check of A #_-lam B is the homogeneity route on (2 A^-1, B^-1),
        # at other nodes of the pencil than its integral's; the inverted
        # pair's own route sat on the same nodes and let a result 1.3e-4
        # off through at order 4
        converged = funcalc._converged
        monkeypatch.setattr(funcalc, "_converged",
                            lambda compute, order=None: converged(compute, 4))
        A, B = pair(4, 1.2, 3, M=100.0)
        with pytest.raises(NumericFailureError, match="routes disagree"):
            geometric_neg(A, s * B, 0.3)


class TestNanCheckRoute:
    # a check route that is not a number compared false with TAU_EQ and
    # passed; the agreement test refuses it
    @pytest.mark.parametrize("compute", [geometric_mean, geometric_neg])
    def test_refused(self, compute, monkeypatch):
        integrate = funcalc._integrate

        def nan_when_pinned(P, Q, measure, plan=None, ends=None):
            X, got = integrate(P, Q, measure, plan, ends)
            return (np.full_like(X, np.nan) if plan is not None else X), got

        monkeypatch.setattr(funcalc, "_integrate", nan_when_pinned)
        A, B = pair(4, 1.2, 3, M=10.0)
        with pytest.raises(NumericFailureError, match="disagree by nan"):
            compute(A, B, 0.3)


class TestSmallResults:
    # J = A^-1 #_lam B^-1 and (A # B)^-1 are about 1/s in size: the doubling
    # test must be relative to them, or at s = 1e3 it settles at 2e-9 off
    @pytest.mark.parametrize("compute, lam", [
        (lambda A, B: drury_half(A, B), 0.5),
        (lambda A, B: geometric_neg(A, B, 0.3), -0.3),
    ], ids=["drury_half", "geometric_neg"])
    def test_scaled_edge_pair_matches_scipy(self, compute, lam):
        from scipy.linalg import fractional_matrix_power, sqrtm

        spec = EnsembleSpec(dim=8, alpha_max=1.4, m=1.0, M=100.0, count=8, seed=1)
        A, B = 1e3 * random_sectorial(spec, 0), 1e3 * random_sectorial(spec, 1)
        S = sqrtm(A)
        Sinv = np.linalg.inv(S)
        want = S @ fractional_matrix_power(Sinv @ B @ Sinv, lam) @ S
        assert maxabs(compute(A, B) - want) <= 1e-12 * maxabs(want)


class TestExtremeScale:
    # spectra of P^-1 Q near 1e312 and 1e-314 lie beyond any scale a double
    # can hold: each mean refuses instead of returning NaN or overflowing
    @pytest.mark.parametrize("a, b", [(1e306, 1e-6), (1e-6, 8e307)])
    @pytest.mark.parametrize("compute", [
        lambda A, B: sigma_mean(A, B, catalog("power", 0.3)),
        lambda A, B: geometric_mean(A, B, 0.3),
        lambda A, B: drury_half(A, B),
    ], ids=["sigma_mean", "geometric_mean", "drury_half"])
    def test_refused(self, a, b, compute):
        eye = np.eye(2, dtype=np.complex128)
        with pytest.raises(NumericFailureError, match="not converged"):
            compute(a * eye, b * eye)

    @pytest.mark.parametrize("c", [1e308, 1.7e308])
    @pytest.mark.parametrize("compute", [
        lambda A, B: harmonic_mean(A, B, 0.3),
        lambda A, B: sigma_mean(A, B, catalog("power", 0.3)),
        lambda A, B: congruence_sigma(A, B, catalog("power", 0.3)),
        lambda A, B: geometric_mean(A, B, 0.3),
        lambda A, B: drury_half(A, B),
        lambda A, B: geometric_neg(A, B, 0.3),
    ], ids=["harmonic_mean", "sigma_mean", "congruence_sigma",
            "geometric_mean", "drury_half", "geometric_neg"])
    def test_largest_doubles(self, c, compute):
        # every mean of (cI, cI) is cI; near the largest double nothing may
        # overflow, in the accretivity test or in the square root
        eye = np.eye(2, dtype=np.complex128)
        assert maxabs(compute(c * eye, c * eye) - c * eye) <= 1e-14 * c

    @pytest.mark.parametrize("c", [1e308, 1.7e308])
    def test_largest_doubles_function(self, c):
        eye = np.eye(2, dtype=np.complex128)
        got = apply_function(catalog("power", 0.5), c * eye)
        assert maxabs(got - math.sqrt(c) * eye) <= 1e-14 * math.sqrt(c)

    def test_large_pair_is_homogeneous(self):
        # no route squares the scale: the pair route's A X B has X of size 1e-60
        spec = EnsembleSpec(dim=4, alpha_max=1.0, m=1.0, M=10.0, count=2, seed=3)
        A, B = random_sectorial(spec, 0), random_sectorial(spec, 1)
        want = 1e60 * geometric_mean(A, B, 0.5)
        assert maxabs(geometric_mean(1e60 * A, 1e60 * B, 0.5) - want) <= 1e-12 * maxabs(want)

    def test_wide_but_centred_pair_is_exact(self):
        # 1e306 apart, but the clamped scale still centres it
        eye = np.eye(2, dtype=np.complex128)
        got = sigma_mean(1e-6 * eye, 1e300 * eye, catalog("power", 0.3))
        want = math.exp(0.7 * math.log(1e-6) + 0.3 * math.log(1e300))
        assert maxabs(got - want * eye) <= 1e-13 * want


class TestOnePlan:
    # _integrate makes every quadrature plan: each public call on a density
    # balances its pencil once, and its cross-check routes reuse the plan
    @pytest.mark.parametrize("compute", [
        lambda A, B: sigma_mean(A, B, catalog("power", 0.3)),
        lambda A, B: geometric_mean(A, B, 0.3),
        lambda A, B: geometric_neg(A, B, 0.3),
        lambda A, B: drury_half(A, B),
    ], ids=["sigma_mean", "geometric_mean", "geometric_neg", "drury_half"])
    @pytest.mark.parametrize("s", [1.0, 1e4])
    def test_balance_runs_once_per_call(self, compute, s, monkeypatch):
        scales, balance = [], funcalc._balance
        monkeypatch.setattr(funcalc, "_balance",
                            lambda *args: scales.append(balance(*args)) or scales[-1])
        A, B = pair(4, 1.2, 3, M=10.0)
        compute(A, s * B)
        assert len(scales) == 1
        assert (scales[0] == 1.0) == (s == 1.0)


class TestOneKernel:
    # the paper's definition f(A) = I sigma_f A
    @pytest.mark.parametrize("dim, alpha, M", [
        (1, 0.0, 2.0), (3, math.pi / 6, 2.0), (5, math.pi / 3, 10.0), (8, 1.2, 100.0),
    ])
    def test_function_is_mean_with_identity(self, dim, alpha, M):
        A, _ = pair(dim, alpha, 21, M=M)
        eye = np.eye(dim, dtype=complex)
        for f in standard_catalog():
            np.testing.assert_array_equal(apply_function(f, A), sigma_mean(eye, A, f))

    # the geometric mean's measure route is _sigma, as sigma_mean is
    @pytest.mark.parametrize("dim, alpha, M", [(2, 0.0, 2.0), (4, math.pi / 3, 10.0),
                                               (8, 1.4, 1e4)])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_geometric_mean_is_sigma_mean(self, dim, alpha, M, lam):
        A, B = pair(dim, alpha, 22, M=M)
        np.testing.assert_array_equal(geometric_mean(A, B, lam),
                                      sigma_mean(A, B, catalog("power", lam)))


class TestOneInversionPath:
    def test_geometric_mean_inverts_the_pair_once(self, replace_everywhere):
        # the measure route inverts [A, B] once; both check routes run on
        # the un-inverted pair and need no inverse of their own
        A, B = pair(8, math.pi / 6, 30)
        pair_stack, solve, stacks = np.stack([A, B]), linalg.solve_stack, []

        def recording(stack):
            stacks.append(np.array(stack))
            return solve(stack)

        replace_everywhere(solve, recording)
        geometric_mean(A, B, 0.3)
        assert sum(np.array_equal(s, pair_stack) for s in stacks) == 1

    @pytest.mark.parametrize("which", [1, 0], ids=["B_inverse", "A_inverse"])
    @pytest.mark.parametrize("compute, message", [
        (geometric_mean, "paths disagree"),
        (geometric_neg, "routes disagree"),
    ], ids=["geometric_mean", "geometric_neg"])
    def test_bad_pair_inversion_disagrees(self, which, compute, message, monkeypatch):
        # the cross-check runs on the other side of the inversion, so an
        # inverse of the pair off by 1e-6 relative shows as disagreement
        A, B = self.skewed_pair(which, monkeypatch)
        with pytest.raises(NumericFailureError, match=message):
            compute(A, B, 0.3)

    @pytest.mark.parametrize("which", [1, 0], ids=["B_inverse", "A_inverse"])
    def test_bad_pair_inversion_moves_both_check_routes(self, which, monkeypatch):
        # neither check route reads the pair's inverses
        A, B = self.skewed_pair(which, monkeypatch)
        via_measure, via_pair, via_homogeneity = geometric_paths(A, B, 0.3)
        assert funcalc._drift(via_measure, via_pair) > 1e-8
        assert funcalc._drift(via_measure, via_homogeneity) > 1e-8

    @staticmethod
    def skewed_pair(which, monkeypatch):
        """An operand pair whose inversion as a stack comes back with one inverse off by 1e-6."""
        A, B = pair(4, 1.2, 3, M=10.0)
        pair_stack, inv = np.stack([A, B]), np.linalg.inv

        def skewed(stack):
            X = inv(stack)
            if np.array_equal(stack, pair_stack):
                X[which] *= 1.0 + 1e-6
            return X

        monkeypatch.setattr(np.linalg, "inv", skewed)
        return A, B

    def test_internal_callers_skip_lu_solve(self, monkeypatch):
        # lu_solve, and inverse through it, are public only
        from amm import verify
        from amm.maps import random_map

        def refuse(*args, **kwargs):
            raise AssertionError("internal code reached amm.linalg.lu_solve")

        monkeypatch.setattr(linalg, "lu_solve", refuse)
        A, B = pair(3, math.pi / 6, 30)
        f = catalog("power", 0.3)
        geometric_mean(A, B, 0.3)
        geometric_neg(A, B, 0.3)
        drury_half(A, B)
        congruence_sigma(A, B, f)
        spec = EnsembleSpec(dim=3, alpha_max=0.5, m=1.0, M=2.0, count=3, seed=4)
        kantorovich = {"f": f, "g": verify.matched_partner(f),
                       "phi": random_map(3, 3, "pinching", 1)}
        for check, kw in (("inv_real", {}), ("inv_sector", {}), ("kantorovich", kantorovich)):
            assert verify.run_check(check, spec, **kw).passed
