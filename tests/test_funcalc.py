import cmath
import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from amm import funcalc
from amm.errors import InvalidInputError, NumericFailureError, ParameterError, PreconditionError
from amm.funcalc import (
    DensitySpec,
    MeasureSpec,
    MonotoneFunction,
    apply_function,
    catalog,
    choose_contour,
    dunford_apply,
    gauss_jacobi_rule,
    measure_mass,
    measure_mean,
    scalar_eval,
    standard_catalog,
)
from amm.linalg import maxabs, opnorm
from amm.means import harmonic_mean
from amm.sector import EnsembleSpec, haar_unitary, random_sectorial


def beta(a, b):
    """Stdlib beta-function oracle, independent of scipy."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class TestCatalog:
    def test_power_density_value(self):
        f = catalog("power", 0.5)
        d = f.measure.density
        at_half = d.coeff * 0.5**d.exp0 * 0.5**d.exp1
        assert at_half == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_arithmetic_atoms(self):
        f = catalog("arithmetic", 0.3)
        assert f.measure.atoms == ((0.0, 0.7), (1.0, 0.3))
        assert sum(w for _, w in f.measure.atoms) == pytest.approx(1.0)

    def test_parameter_validation(self):
        for name in ("power", "arithmetic", "harmonic"):
            with pytest.raises(ParameterError):
                catalog(name, 0.0)
            with pytest.raises(ParameterError):
                catalog(name, 1.0)
            with pytest.raises(ParameterError):
                catalog(name)
        with pytest.raises(ParameterError):
            catalog("uniform", 0.5)
        with pytest.raises(ParameterError):
            catalog("log")

    def test_normalization_at_one(self):
        for f in standard_catalog():
            assert scalar_eval(f, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_mass_and_mean(self):
        for f in standard_catalog():
            assert measure_mass(f.measure) == pytest.approx(1.0, abs=1e-10)
            assert measure_mean(f.measure) == pytest.approx(
                f.derivative_at_one, abs=1e-10
            )

    def test_power_mean_is_lambda(self):
        # node accuracy at strongly singular exponents limits this to ~1e-11
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert measure_mean(catalog("power", lam).measure) == pytest.approx(
                lam, abs=1e-10
            )

    def test_one_object_per_name_and_param(self):
        assert catalog("power", 0.3) is catalog("power", 0.3)
        assert catalog("uniform") is catalog("uniform")
        # a numpy scalar or 0-d array finds the entry of its float
        for p in (np.float64(0.3), np.array(0.3)):
            assert catalog("power", p) is catalog("power", 0.3)
        assert catalog("power", np.float32(0.3)).param == float(np.float32(0.3))
        assert catalog("harmonic", 0.3) is not catalog("power", 0.3)

    @pytest.mark.parametrize("param", ["0.5", 0.5j, [0.5], True, object()])
    def test_non_number_param_refused(self, param):
        # a string used to reach the range check and raise a raw TypeError
        for name in ("power", "arithmetic", "harmonic", "uniform"):
            with pytest.raises(ParameterError, match="must be a real number"):
                catalog(name, param)


class TestMonotoneFunction:
    # every MonotoneFunction checks its measure, hand-built ones included
    IDENTITY = MeasureSpec(atoms=((1.0, 1.0),))

    @pytest.mark.parametrize("measure, scalar_form, derivative, message", [
        # the atom at 1.5 made sigma_mean(diag(1, 2), diag(4, 3), f) diag(-8, 4)
        (MeasureSpec(atoms=((1.5, 1.0),)), lambda z: z, 1.0, "atom position 1.5 outside"),
        (MeasureSpec(atoms=((1.0, 0.5),)), lambda z: z, 0.5, "measure mass 0.5 is not 1"),
        (IDENTITY, lambda z: 2.0 * z, 1.0, "violates the normalization"),
        (IDENTITY, lambda z: z, 0.5, r"measure mean 1.0 != f'\(1\) = 0.5"),
        # a NaN passed the checks as abs(...) > tol, and f(A) was all NaN
        (catalog("power", 0.5).measure,
         lambda z: np.full_like(np.asarray(z, dtype=complex), np.nan), 0.5,
         "violates the normalization"),
        (IDENTITY, lambda z: z, float("nan"), r"measure mean 1.0 != f'\(1\) = nan"),
    ], ids=["atom-outside", "half-mass", "f1", "mean", "nan-f1", "nan-mean"])
    def test_refused(self, measure, scalar_form, derivative, message):
        with pytest.raises(ParameterError, match=message):
            MonotoneFunction("bad", measure, scalar_form, derivative)

    def test_hand_built_identity_accepted(self):
        f = MonotoneFunction("identity", self.IDENTITY, lambda z: z, 1.0)
        assert scalar_eval(f, 2.0) == 2.0


class TestQuadrature:
    def test_legendre_order_two(self):
        rule = gauss_jacobi_rule(0.0, 0.0, 2)
        want = sorted([0.5 - 1 / (2 * math.sqrt(3)), 0.5 + 1 / (2 * math.sqrt(3))])
        np.testing.assert_allclose(sorted(rule.nodes), want, atol=1e-14)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("e0,e1", [(0.0, 0.0), (-0.5, -0.5), (-0.7, -0.3), (1.5, -0.9)])
    def test_weight_sum_is_beta(self, e0, e1):
        rule = gauss_jacobi_rule(e0, e1, 40)
        assert np.sum(rule.weights) == pytest.approx(beta(e0 + 1, e1 + 1), rel=1e-12)
        assert np.all(rule.weights > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))

    @pytest.mark.parametrize("e0,e1", [(200.0, 0.5), (0.5, 400.0)])
    def test_weight_sum_past_gamma_overflow(self, e0, e1):
        # Gamma(e0 + e1 + 2) overflows a double here; B(a, b) must not
        from scipy.special import beta as scipy_beta

        rule = gauss_jacobi_rule(e0, e1, 8)
        assert np.sum(rule.weights) == pytest.approx(scipy_beta(e0 + 1, e1 + 1), rel=1e-12)

    def test_moment_exactness(self):
        # degree 2*order - 1 exactness against analytic Beta moments
        e0, e1, order = -0.4, -0.6, 5
        rule = gauss_jacobi_rule(e0, e1, order)
        for p in range(2 * order):
            got = float(np.dot(rule.weights, rule.nodes**p))
            want = beta(e0 + p + 1, e1 + 1)
            assert got == pytest.approx(want, rel=1e-12), f"moment {p}"

    @pytest.mark.parametrize("order", [16, 80, 160, 512])
    @pytest.mark.parametrize("e0,e1", [(-0.7, -0.3), (-0.5, -0.5), (-0.3, -0.7), (0.0, 0.0)])
    def test_moments_at_high_order(self, e0, e1, order):
        # the power densities t^(lam-1) (1-t)^(-lam) and the flat one; the
        # rule's own error must stay far below the 1e-8 doubling test
        rule = gauss_jacobi_rule(e0, e1, order)
        for p in range(6):
            got = float(np.dot(rule.weights, rule.nodes**p))
            assert abs(got - beta(e0 + p + 1, e1 + 1)) <= 1e-14, f"moment {p}"

    def test_power_rule_mean(self):
        lam = 0.5
        rule = gauss_jacobi_rule(lam - 1, -lam, 40)
        mean = math.sin(lam * math.pi) / math.pi * float(np.dot(rule.weights, rule.nodes))
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(-1.0, 0.0, 10)
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(0.0, 0.0, 1)
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(0.0, 0.0, 10_000)

    @pytest.mark.parametrize("e0, e1, order", [
        (math.nan, 0.0, 8), (0.0, math.nan, 8), (math.inf, 0.0, 8),
        (0.0, 0.0, 8.5), (0.0, 0.0, 8.0), (0.0, 0.0, True),
    ])
    def test_non_finite_or_non_integer_params_refused(self, e0, e1, order):
        # NaN exponents used to fail in the eigensolver, and order 8.5 to
        # return the order-8 rule
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(e0, e1, order)

    @pytest.mark.parametrize("measure", [
        MeasureSpec(atoms=((0.5, math.nan),)),
        MeasureSpec(atoms=((0.5, math.inf),)),
        MeasureSpec(atoms=((math.nan, 1.0),)),
        MeasureSpec(density=DensitySpec(coeff=math.nan, exp0=0.0, exp1=0.0)),
        MeasureSpec(density=DensitySpec(coeff=math.inf, exp0=0.0, exp1=0.0)),
        MeasureSpec(density=DensitySpec(coeff=1.0, exp0=math.nan, exp1=0.0)),
        MeasureSpec(density=DensitySpec(coeff=1.0, exp0=0.0, exp1=math.nan)),
    ])
    def test_non_finite_measure_refused(self, measure):
        # a NaN or infinite weight used to give a NaN or infinite mass
        with pytest.raises(ParameterError):
            measure_mass(measure)


class TestHarmonicUnit:
    # I !_t A is the weighted harmonic mean with the identity
    def test_endpoints(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        np.testing.assert_array_equal(harmonic_mean(np.eye(2), A, 0.0), np.eye(2))
        np.testing.assert_array_equal(harmonic_mean(np.eye(2), A, 1.0), A)

    def test_scalar_half(self):
        got = harmonic_mean(np.eye(1), np.array([[2.0]]), 0.5)[0, 0]
        assert got == pytest.approx(4.0 / 3.0)

    def test_range_check(self):
        with pytest.raises(ParameterError):
            harmonic_mean(np.eye(2), np.eye(2), 1.5)


class TestApplyFunction:
    def test_power_diagonal(self):
        F = apply_function(catalog("power", 0.5), np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(F, np.diag([2.0, 3.0]), atol=1e-11)

    def test_arithmetic_exact(self):
        A = np.array([[2 + 1j, 0.3], [0.1, 3 - 0.5j]])
        F = apply_function(catalog("arithmetic", 0.3), A)
        np.testing.assert_allclose(F, 0.7 * np.eye(2) + 0.3 * A, atol=1e-14)

    def test_scalar_principal_branch(self):
        F = apply_function(catalog("power", 0.5), np.array([[1 + 1j]]))
        want = cmath.rect(2**0.25, math.pi / 8)
        assert F[0, 0] == pytest.approx(want, abs=1e-10)

    def test_normalization(self):
        for f in standard_catalog():
            F = apply_function(f, np.eye(3))
            assert maxabs(F - np.eye(3)) <= 1e-10

    def test_diagonal_scalarization(self):
        d = np.array([0.5 + 2j, 3.0 - 1j, 1.2])
        A = np.diag(d)
        for f in standard_catalog():
            F = apply_function(f, A)
            want = np.diag([scalar_eval(f, z) for z in d])
            assert maxabs(F - want) <= 1e-9

    def test_unitary_covariance(self):
        spec = EnsembleSpec(dim=4, alpha_max=math.pi / 4, m=1.0, M=2.0, count=1, seed=55)
        A = random_sectorial(spec, 0)
        U = haar_unitary(4, np.random.default_rng(3))
        f = catalog("power", 0.7)
        lhs = apply_function(f, U @ A @ U.conj().T)
        rhs = U @ apply_function(f, A) @ U.conj().T
        assert maxabs(lhs - rhs) <= 1e-9 * (1 + maxabs(rhs))

    def test_real_part_bounds(self):
        # Re f(A) dominates f(Re A) and is dominated by sec^2(alpha) f(Re A)
        from amm.linalg import hermitian_part, loewner_leq
        from amm.sector import sectorial_angle

        spec = EnsembleSpec(dim=4, alpha_max=math.pi / 3, m=1.0, M=2.0, count=10, seed=77)
        f = catalog("power", 0.5)
        for i in range(10):
            A = random_sectorial(spec, i)
            sec2 = 1.0 / math.cos(sectorial_angle(A)) ** 2
            FA = hermitian_part(apply_function(f, A))
            FR = apply_function(f, hermitian_part(A))
            assert loewner_leq(FR, FA).holds
            assert loewner_leq(FA, sec2 * FR).holds

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            apply_function(catalog("power", 0.5), np.array([[-1.0]]))


def _assert_contour_shape(A, c):
    """Every eigenvalue of A inside the contour, no node on (-inf, 0]."""
    # exp maps the strip |Im w| < pi one-to-one onto C \ (-inf, 0], so a
    # point lies inside the curve exp(ellipse) iff its log lies inside the ellipse
    w = np.log(np.linalg.eigvals(A))
    a, b = c.d * math.cosh(c.eta), c.d * math.sinh(c.eta)
    assert np.all(((w.real - c.c) / a) ** 2 + (w.imag / b) ** 2 < 1.0)
    theta = 2.0 * math.pi * np.arange(c.nodes) / c.nodes
    z = np.exp(c.c + c.d * np.cos(theta - 1j * c.eta))
    assert not np.any((z.imag == 0.0) & (z.real <= 0.0))
    assert b < math.pi


class TestDunford:
    def test_contour_encloses_spectrum(self):
        A = np.diag([1.0, 4.0]).astype(complex)
        _assert_contour_shape(A, choose_contour(A))
        spec = EnsembleSpec(dim=6, alpha_max=1.4, m=1.0, M=100.0, count=3, seed=17)
        for i in range(3):
            A = random_sectorial(spec, i)
            _assert_contour_shape(A, choose_contour(A))

    def test_contour_identity(self):
        c = choose_contour(np.eye(2))
        _assert_contour_shape(np.eye(2), c)
        for f in standard_catalog():
            F = dunford_apply(f, np.eye(2), c)
            assert maxabs(F - np.eye(2)) <= 1e-12, str(f)

    def test_chunked_memory_bounded(self):
        # 2048 nodes at n = 64 would be a 128 MiB stack of resolvents in one
        # piece, and chunks of 128 nodes (8 MiB) peak past the bound too
        spec = EnsembleSpec(dim=64, alpha_max=math.pi / 3, m=1.0, M=2.0, count=1, seed=5)
        A = random_sectorial(spec, 0)
        f = catalog("power", 0.5)
        contour = choose_contour(A)
        want = dunford_apply(f, A, contour)
        tracemalloc.start()
        try:
            got = dunford_apply(f, A, dataclasses.replace(contour, nodes=2048))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert maxabs(got - want) <= 1e-10 * (1.0 + maxabs(want))

    def test_node_batches_match_unsplit_sum(self, monkeypatch, record_solves):
        # 2048 nodes at n = 64 go to solve_stack 16 at a time (1 MiB), and
        # the sum matches the one-piece value
        spec = EnsembleSpec(dim=64, alpha_max=math.pi / 3, m=1.0, M=2.0, count=1, seed=5)
        A = random_sectorial(spec, 0)
        f = catalog("power", 0.5)
        contour = dataclasses.replace(choose_contour(A), nodes=2048)
        batches = record_solves()
        got = dunford_apply(f, A, contour)
        assert batches == [16] * 128
        monkeypatch.setattr(funcalc, "_STACK_ENTRIES", 2048 * 64 * 64)
        want = dunford_apply(f, A, contour)
        assert batches[128:] == [2048]
        assert maxabs(got - want) <= 1e-14 * maxabs(want)

    @pytest.mark.parametrize("nodes", [16.5, 32.0, np.float64(32.0), True, np.bool_(True)])
    def test_non_integer_nodes_refused(self, nodes):
        A = np.diag([1.0, 4.0]).astype(complex)
        contour = dataclasses.replace(choose_contour(A), nodes=nodes)
        with pytest.raises(ParameterError, match="integer"):
            dunford_apply(catalog("power", 0.5), A, contour)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 50.0, -10.0])
    def test_contour_off_the_sector_refused(self, c):
        # a NaN centre returned NaNs, and c = 50 about 5e-6 for sqrt(diag(1, 4))
        A = np.diag([1.0, 4.0]).astype(complex)
        contour = dataclasses.replace(choose_contour(A), c=c)
        with pytest.raises(ParameterError, match="does not enclose the sector of A"):
            dunford_apply(catalog("power", 0.5), A, contour)

    @pytest.mark.parametrize("A, fitted", [
        (1e3 * np.diag([1.0, 4.0]), np.diag([1.0, 4.0])),
        (np.diag([1.0, 4.0 + 3.0j]), np.diag([1.0, 4.0])),
    ])
    def test_contour_of_another_matrix_refused(self, A, fitted):
        # dunford_apply certifies the A it is given: a contour carries no
        # certificate, since any matrix can be passed with it
        with pytest.raises(ParameterError, match="does not enclose the sector of A"):
            dunford_apply(catalog("power", 0.5), A, choose_contour(fitted))

    def test_affine_exact(self):
        A = np.array([[2 + 1j, 0.4], [0.2, 3.0]])
        f = catalog("arithmetic", 0.3)
        F = dunford_apply(f, A, choose_contour(A))
        np.testing.assert_allclose(F, 0.7 * np.eye(2) + 0.3 * A, atol=1e-10)

    def test_power_diagonal(self):
        A = np.diag([4.0, 9.0]).astype(complex)
        F = dunford_apply(catalog("power", 0.5), A, choose_contour(A))
        np.testing.assert_allclose(F, np.diag([2.0, 3.0]), atol=1e-9)

    def test_agrees_with_measure_route(self):
        spec = EnsembleSpec(dim=3, alpha_max=math.pi / 3, m=1.0, M=2.0, count=4, seed=911)
        for i in range(4):
            A = random_sectorial(spec, i)
            contour = choose_contour(A)
            for f in standard_catalog():
                Fd = dunford_apply(f, A, contour)
                Fm = apply_function(f, A)
                assert opnorm(Fd - Fm) <= 1e-8 * (1 + opnorm(Fm))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            choose_contour(np.array([[1j]]))


class TestScalarEval:
    def test_power(self):
        assert scalar_eval(catalog("power", 0.5), 4.0) == pytest.approx(2.0)

    def test_uniform_log_value(self):
        assert scalar_eval(catalog("uniform"), 2.0) == pytest.approx(
            2 * math.log(2), rel=1e-12
        )

    def test_uniform_near_one_series(self):
        f = catalog("uniform")
        assert scalar_eval(f, 1.0 + 1e-12) == pytest.approx(1.0, abs=1e-10)
        assert scalar_eval(f, 1.0 + 2e-4) == pytest.approx(
            scalar_eval(f, 1.0 + 1.9999e-4), abs=1e-8
        )

    def test_harmonic_algebra(self):
        # ((1-t) + t/z)^-1 at t = 1/2, z = 1+i equals 2(1+i)/(2+i)
        got = scalar_eval(catalog("harmonic", 0.5), 1 + 1j)
        assert got == pytest.approx(1.2 + 0.4j, abs=1e-14)

    def test_cut_rejected(self):
        f = catalog("power", 0.5)
        with pytest.raises(InvalidInputError):
            scalar_eval(f, -1.0)
        with pytest.raises(InvalidInputError):
            scalar_eval(f, 0.0)


class TestAdaptiveOrder:
    def test_hard_edge_power(self):
        # at alpha = 1.4, M/m = 100 a fixed order of 80 misses the 1e-8
        # doubling test on half of these samples; doubling reaches it
        from scipy.linalg import fractional_matrix_power

        spec = EnsembleSpec(dim=8, alpha_max=1.4, m=1.0, M=100.0, count=8, seed=1)
        f = catalog("power", 0.3)
        for i in range(spec.count):
            A = random_sectorial(spec, i)
            want = fractional_matrix_power(A, 0.3)
            assert maxabs(apply_function(f, A) - want) <= 1e-12 * maxabs(want), f"sample {i}"

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_spectrum_far_from_one(self, lam, monkeypatch):
        # Hermitian with spectrum in [857, 8013]: M/m is only 9.3, but the
        # poles of ((1-t) I + t A^-1)^-1 sit within 1/857 of t = 1, and
        # without the scale the doubling refuses at order 512
        from scipy.linalg import fractional_matrix_power

        orders, rule = [], funcalc.gauss_jacobi_rule
        monkeypatch.setattr(funcalc, "gauss_jacobi_rule",
                            lambda e0, e1, k: orders.append(k) or rule(e0, e1, k))
        # the integral's node tables, left by earlier tests, would skip the rules
        funcalc._nodes.cache_clear()
        A = random_sectorial(EnsembleSpec(dim=8, alpha_max=0.0, m=1.0, M=1e4, count=1, seed=3), 0)
        want = fractional_matrix_power(A, lam)
        assert maxabs(apply_function(catalog("power", lam), A) - want) <= 1.5e-13 * maxabs(want)
        assert max(orders) <= 32

    def test_scale_centres_the_pencil(self):
        # a power of two near the centre of the spectrum of P^-1 Q, and 1
        # within a factor 4 of it; a flat density also centres the point 1
        power, flat = catalog("power", 0.3).measure.density, catalog("uniform").measure.density

        def scale(d, Q):
            pencil = np.stack([np.eye(3), Q])
            return funcalc._balance([d], pencil, np.linalg.inv(pencil))

        assert scale(power, np.eye(3) / 1e4) == 2.0 ** -13
        assert scale(power, np.eye(3) / 3.0) == 1.0
        assert scale(flat, np.eye(3) / 1e4) == 2.0 ** -7
        assert scale(power, np.diag([1e-3, 1.0, 1e3])) == 1.0

    def test_pinned_order_returns_its_own_value(self):
        A = random_sectorial(EnsembleSpec(dim=4, alpha_max=1.2, m=1.0, M=100.0, count=1, seed=3), 0)
        f = catalog("power", 0.3)
        eye = np.eye(4, dtype=np.complex128)
        _, (_, c) = funcalc._sigma(eye, A, f.measure)
        # f(A) at a pinned plan: _integrate on the inverted pair (I, A^-1)
        pinned, plan = funcalc._integrate(eye, np.linalg.inv(A), f.measure, (4, c), ends=(eye, A))
        assert plan == (4, c)
        # unpinned, the same call chooses its own order and converges
        assert maxabs(apply_function(f, A) - pinned) > 1e-6

    @pytest.mark.parametrize("s", [1.0, 1e4])
    def test_pinned_plan_reproduces_the_chosen_value(self, s):
        # the plan a call returns, pinned, gives the value it chose to the
        # bit, at the scale 1 and at one _balance moved off 1
        spec = EnsembleSpec(dim=4, alpha_max=1.2, m=1.0, M=100.0, count=2, seed=3)
        A, B = random_sectorial(spec, 0), s * random_sectorial(spec, 1)
        measure = catalog("power", 0.3).measure
        Ainv, Binv = np.linalg.inv(np.stack([A, B]))
        X, plan = funcalc._sigma(A, B, measure)
        assert (plan[1] == 1.0) == (s == 1.0)
        assert np.array_equal(funcalc._integrate(Ainv, Binv, measure, plan, ends=(A, B))[0], X)
        Y, plan = funcalc._integrate(A, B, measure, ends=(Ainv, Binv))
        assert (plan[1] == 1.0) == (s == 1.0)
        assert np.array_equal(funcalc._integrate(A, B, measure, plan)[0], Y)

    def test_unconverged_at_max_order_raises(self, record_solves):
        # on the pencil (I, diag(1e12, 1e-12)) the resolvent's first entry
        # 1/(1 + t (1e12 - 1)) is all but singular at t = 0 and its second
        # 1/(1 - t (1 - 1e-12)) at t = 1, and no scale can centre a spectrum
        # 1e24 wide (the chosen one is 1): no order up to 512 integrates it.
        # The caller's inverses give the scale, and each doubling evaluates
        # only the new order
        batches = record_solves()
        P, Q = np.eye(2, dtype=np.complex128), np.diag([1e12, 1e-12]).astype(np.complex128)
        measure = catalog("power", 0.5).measure
        pencil = np.array([P, Q])
        assert funcalc._balance([measure.density], pencil, np.linalg.inv(pencil)) == 1.0
        with pytest.raises(NumericFailureError, match="not converged at order 256"):
            funcalc._integrate(P, Q, measure, ends=tuple(np.linalg.inv(pencil)))
        assert batches == [8 + 16, 32, 64, 128, 256, 512]

    def test_node_split_memory_bounded(self, monkeypatch, record_solves):
        # one n = 64 sample at order 512 is a 32 MiB stack of resolvents in
        # one piece; its nodes go to solve_stack 16 at a time (1 MiB), and
        # the sum matches the one-piece value
        spec = EnsembleSpec(dim=64, alpha_max=math.pi / 3, m=1.0, M=2.0, count=2, seed=5)
        P, Q = random_sectorial(spec, [0, 1])
        measure = catalog("power", 0.5).measure
        batches = record_solves()
        tracemalloc.start()
        try:
            got, plan = funcalc._integrate(P, Q, measure, (512, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan == (512, 1.0)
        assert peak < 8 * 2**20
        assert batches == [16] * 32
        monkeypatch.setattr(funcalc, "_STACK_ENTRIES", 512 * 64 * 64)
        want, _ = funcalc._integrate(P, Q, measure, (512, 1.0))
        assert batches[32:] == [512]
        assert maxabs(got - want) <= 1e-14 * maxabs(want)

    def test_threads_keep_their_own_batches(self):
        # each thread builds its pencils in a batch buffer of its own, so two
        # n = 64 pencils integrated at once, 4 batches each, get the values
        # they get alone
        spec = EnsembleSpec(dim=64, alpha_max=math.pi / 3, m=1.0, M=2.0, count=4, seed=5)
        pencils = [random_sectorial(spec, [2 * k, 2 * k + 1]) for k in range(2)]
        measure = catalog("power", 0.5).measure

        def integrate(pencil):
            return funcalc._integrate(*pencil, measure, (64, 1.0))[0]

        alone = [integrate(pencil) for pencil in pencils]
        with ThreadPoolExecutor(2) as pool:
            for _ in range(4):
                for got, want in zip(pool.map(integrate, pencils), alone):
                    assert np.array_equal(got, want)

    def test_stack_of_mixed_plans_matches_each_sample(self, record_solves):
        # three samples with their own measure and scale: one settles at
        # order 128 and two at 32, at scales 1, 2^-7 and 2^12, so the nodes
        # and weights are per row and off c = 1.  The stack gives each
        # sample's value and plan alone to the bit, and each doubling
        # re-solves only the samples still pending
        spec = EnsembleSpec(dim=4, alpha_max=1.2, m=1.0, M=100.0, count=6, seed=3)
        A = np.array([random_sectorial(spec, 2 * k) for k in range(3)])
        B = np.array([s * random_sectorial(spec, 2 * k + 1)
                      for k, s in enumerate((1.0, 2.0**12, 2.0**-12))])
        measures = [catalog("power", 0.3).measure, catalog("uniform").measure,
                    catalog("power", 0.7).measure]
        batches = record_solves()
        X, (orders, scales) = funcalc._sigma(A, B, measures)
        assert orders.tolist() == [32, 128, 32]
        assert scales.tolist() == [1.0, 2.0**-7, 2.0**12]
        # the pair's inversion, orders 8 and 16 and 32 for all three, then
        # 64 and 128 for the second sample alone
        assert batches == [6, 3 * (8 + 16), 3 * 32, 64, 128]
        for k in range(3):
            Xk, plan = funcalc._sigma(A[k], B[k], measures[k])
            assert np.array_equal(X[k], Xk), f"sample {k}"
            assert plan == (orders[k], scales[k])


class TestResolventSums:
    def test_per_sample_atoms_are_one_batch(self, record_solves):
        # harmonic atoms at a different t in each sample are one solve of
        # the S matrices, and each sample is its own _sigma call to the bit
        spec = EnsembleSpec(dim=4, alpha_max=1.2, m=1.0, M=100.0, count=10, seed=3)
        A, B = random_sectorial(spec, range(5)), random_sectorial(spec, range(5, 10))
        measures = [MeasureSpec(atoms=((t, 1.0),)) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        batches = record_solves()
        X, (orders, scales) = funcalc._sigma(A, B, measures)
        # the pair's inversion, then the atoms
        assert batches == [10, 5]
        assert orders.tolist() == [0] * 5 and scales.tolist() == [1.0] * 5
        for k in range(5):
            assert np.array_equal(X[k], funcalc._sigma(A[k], B[k], measures[k])[0]), f"sample {k}"

    def test_endpoint_atoms_take_the_ends(self, record_solves):
        # an atom at 0 or 1 in every sample is the operand itself, unsolved;
        # one that lies inside (0, 1) in some sample is solved in all
        spec = EnsembleSpec(dim=3, alpha_max=1.0, m=1.0, M=10.0, count=4, seed=8)
        A, B = random_sectorial(spec, range(2)), random_sectorial(spec, range(2, 4))
        batches = record_solves()
        measures = [MeasureSpec(atoms=((0.0, 0.25), (1.0, 0.75)))] * 2
        X, _ = funcalc._sigma(A, B, measures)
        assert np.array_equal(X, 0.25 * A + 0.75 * B)
        assert batches == [4]  # the pair's inversion only
        measures = [MeasureSpec(atoms=((0.0, 0.25), (1.0, 0.75))),
                    MeasureSpec(atoms=((0.5, 0.25), (1.0, 0.75)))]
        X, _ = funcalc._sigma(A, B, measures)
        assert batches == [4, 4, 2]
        for k, want in enumerate((0.25 * A[0] + 0.75 * B[0],
                                  0.25 * harmonic_mean(A[1], B[1], 0.5) + 0.75 * B[1])):
            assert maxabs(X[k] - want) <= 1e-14 * maxabs(want)

    @pytest.mark.parametrize("measures", [
        [MeasureSpec(atoms=((0.3, 1.0),)), MeasureSpec(atoms=((0.0, 0.5), (1.0, 0.5)))],
        [MeasureSpec(atoms=((0.3, 1.0),), density=DensitySpec(coeff=1.0, exp0=0.0, exp1=0.0)),
         MeasureSpec(atoms=((0.3, 1.0),))],
    ], ids=["atom count", "density"])
    def test_disagreeing_measures_refused(self, measures):
        spec = EnsembleSpec(dim=3, alpha_max=1.0, m=1.0, M=10.0, count=4, seed=8)
        A, B = random_sectorial(spec, range(2)), random_sectorial(spec, range(2, 4))
        with pytest.raises(ParameterError, match="agree"):
            funcalc._sigma(A, B, measures)
