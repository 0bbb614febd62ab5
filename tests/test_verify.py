import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from amm import funcalc, linalg, sector, verify
from amm.errors import NumericFailureError, ParameterError
from amm.funcalc import catalog
from amm.maps import random_map
from amm.sector import EnsembleSpec, random_sectorial
from amm.verify import (
    CHECK_IDS,
    REGISTRY,
    SuiteItem,
    default_suite,
    kantorovich_constant,
    matched_partner,
    run_check,
    run_suite,
)

# the full catalog, grouped as the inequality families appear in the
# write-up; the registry must cover exactly these ids
SECTORIAL_IDS = [
    "real_superadditive", "real_sector_reverse", "amgmhm", "mean_monotone",
    "transformer", "kantorovich", "har_ando", "ando_sector", "sigma_inner",
    "sigma_nabla_phi", "f_real_super", "f_real_reverse", "choi_sector",
    "f_inner", "f_nabla", "f_sharp_nabla", "sharp_real_super",
    "sharp_sector_reverse", "har_real_super", "har_sector_reverse",
    "inv_real", "inv_sector", "gumus_a", "gumus_b", "gumus_c", "mixed_gm",
    "mixed_ns", "norm_real_sandwich", "f_norm_lower", "f_opnorm_sandwich",
    "phi_sigma_norm", "phi_nabla_norm", "ando_zhan", "f_nabla_norm",
    "norm_of_sigma",
]
POSITIVE_IDS = [
    "pos_jensen", "pos_sigma_inner", "pos_sigma_norm", "pos_amgmhm",
    "pos_ando", "pos_choi", "pos_ando_hiai", "pos_f_norm", "pos_ando_zhan",
    "pos_gumus", "pos_sharpando", "pos_ts", "pos_ab_norm", "pos_concave",
]


def small_spec(dim=2, alpha=math.pi / 4, count=15, seed=424242):
    return EnsembleSpec(dim=dim, alpha_max=alpha, m=1.0, M=2.0, count=count, seed=seed)


class TestRegistry:
    def test_exhaustive(self):
        assert set(CHECK_IDS) == set(SECTORIAL_IDS) | set(POSITIVE_IDS)
        assert len(CHECK_IDS) == len(SECTORIAL_IDS) + len(POSITIVE_IDS)
        for cid in SECTORIAL_IDS:
            assert REGISTRY[cid].ensemble == "sectorial"
        for cid in POSITIVE_IDS:
            assert REGISTRY[cid].ensemble == "positive"

    def test_classical_twins(self):
        # a twinned pos_* check reuses its sectorial twin's evaluator, so the
        # two must agree on everything the evaluator and run_check consult
        sectorial = {REGISTRY[cid].evaluate: cid for cid in SECTORIAL_IDS}
        assert len(sectorial) == len(SECTORIAL_IDS)
        twins = {cid: sectorial.get(REGISTRY[cid].evaluate) for cid in POSITIVE_IDS}
        assert twins == {
            "pos_jensen": "f_inner", "pos_sigma_inner": "sigma_inner",
            "pos_sigma_norm": "norm_of_sigma", "pos_amgmhm": "amgmhm",
            "pos_ando": "ando_sector", "pos_choi": "choi_sector",
            "pos_ando_hiai": "f_sharp_nabla", "pos_f_norm": "f_norm_lower",
            "pos_ando_zhan": "ando_zhan", "pos_gumus": "gumus_a",
            "pos_sharpando": None, "pos_ts": "mixed_ns", "pos_ab_norm": None,
            "pos_concave": "f_nabla",
        }
        own = {cid for cid, twin in twins.items() if twin is None}
        assert own == {"pos_sharpando", "pos_ab_norm"}
        for cid in set(POSITIVE_IDS) - own:
            d, twin = REGISTRY[cid], REGISTRY[twins[cid]]
            for attr in ("kind", "needs_f", "needs_g", "map_kind", "needs_norm"):
                assert getattr(d, attr) == getattr(twin, attr), (cid, attr)
        assert all(callable(d.evaluate) for d in REGISTRY.values())

    def test_identity_kinds(self):
        identities = {cid for cid, d in REGISTRY.items() if d.kind == "identity"}
        assert identities == {"transformer", "pos_sharpando"}


class TestKantorovichConstant:
    def test_values(self):
        assert kantorovich_constant(1.0, 1.0) == pytest.approx(1.0)
        assert kantorovich_constant(1.0, 4.0) == pytest.approx(25.0 / 16.0)
        assert kantorovich_constant(1.0, 9.0) == pytest.approx(100.0 / 36.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            kantorovich_constant(2.0, 1.0)
        with pytest.raises(ParameterError):
            kantorovich_constant(0.0, 1.0)


class TestRunCheck:
    def test_scalar_degeneration(self):
        # 1x1 positive ensemble: both sides of the superadditivity coincide
        r = run_check("real_superadditive", small_spec(dim=1, alpha=0.0),
                      f=catalog("power", 0.5))
        assert r.passed
        assert abs(r.min_margin) <= 1e-12

    def test_sharpando_identity(self):
        r = run_check("pos_sharpando", small_spec(dim=3, alpha=0.0, count=25))
        assert r.passed
        assert r.min_margin >= -1e-8

    def test_amgmhm_classical(self):
        r = run_check("amgmhm", small_spec(dim=3, alpha=0.0, count=25),
                      f=catalog("power", 0.5))
        assert r.passed
        assert r.min_margin >= -1e-7

    def test_report_fields(self):
        spec = small_spec(count=5)
        r = run_check("inv_real", spec)
        assert r.check == "inv_real"
        assert r.samples == 5
        assert 0 <= r.worst_index < 5
        assert r.ensemble["seed"] == spec.seed
        assert r.elapsed_ms >= 0.0

    def test_determinism_bitwise(self):
        spec = small_spec(count=10)
        a = run_check("mixed_gm", spec)
        b = run_check("mixed_gm", spec)
        assert a.min_margin == b.min_margin
        assert a.worst_index == b.worst_index

    def test_unknown_id_named(self):
        with pytest.raises(ParameterError, match="no_such_check"):
            run_check("no_such_check", small_spec())

    def test_missing_function(self):
        with pytest.raises(ParameterError):
            run_check("amgmhm", small_spec())

    def test_missing_map(self):
        with pytest.raises(ParameterError):
            run_check("choi_sector", small_spec(), f=catalog("power", 0.5))

    def test_nonunital_rejected_for_choi(self):
        spec = small_spec(dim=3)
        phi = random_map(3, 3, "kraus_nonunital", 1)
        with pytest.raises(ParameterError):
            run_check("choi_sector", spec, f=catalog("power", 0.5), phi=phi)

    def test_kantorovich_derivative_mismatch_rejected(self):
        spec = small_spec(dim=2)
        phi = random_map(2, 2, "pinching", 1)
        with pytest.raises(ParameterError, match="f'\\(1\\)"):
            run_check("kantorovich", spec, f=catalog("power", 0.3),
                      g=catalog("power", 0.5), phi=phi)

    def test_missing_norm(self):
        with pytest.raises(ParameterError):
            run_check("norm_real_sandwich", small_spec())

    def test_positive_check_flattens_alpha(self):
        r = run_check("pos_amgmhm", small_spec(dim=2, alpha=math.pi / 3, count=5),
                      f=catalog("uniform"))
        assert r.ensemble["alpha_max"] == 0.0
        assert r.passed


class TestNanMargin:
    @pytest.mark.parametrize("where", [[2], [0, 1, 2, 3]], ids=["one", "all"])
    def test_nan_margin_raises(self, monkeypatch, where):
        # NaN compares false with every margin: skipped, it would let an
        # all-NaN check pass with min_margin inf
        d = REGISTRY["inv_sector"]

        def with_nan(c):
            margins = d.evaluate(c)
            margins[where] = np.nan
            return margins

        monkeypatch.setitem(REGISTRY, "inv_sector", replace(d, evaluate=with_nan))
        with pytest.raises(NumericFailureError,
                           match=f"inv_sector: sample {where[0]} has margin nan"):
            run_check("inv_sector", small_spec(count=4))

    @pytest.mark.parametrize("check, norm", [("real_sector_reverse", None),
                                             ("ando_zhan", linalg.NormKind.parse("frobenius"))],
                             ids=["loewner", "norm"])
    def test_non_finite_intermediate_raises(self, nan_sigma, check, norm):
        # the Loewner test and the norm refuse a NaN matrix as invalid input;
        # on the ensemble's own stacks it is a numeric failure of the check
        with pytest.raises(NumericFailureError, match=f"check {check}: .*non-finite"):
            run_check(check, small_spec(count=3), f=catalog("power", 0.5), norm=norm)


def _suite_args(item):
    return dict(f=item.f, g=item.g, phi=item.phi, norm=item.norm)


# every check at two dims and alpha in {0, pi/3}, with the functions, maps
# and norms the default catalog gives it there
_SMALL_CATALOG = [item for item in default_suite(samples=6)
                  if item.spec.dim in (2, 5) and item.spec.alpha_max in (0.0, math.pi / 3)]


class TestStackEquivalence:
    @pytest.mark.parametrize("item", _SMALL_CATALOG,
                             ids=[f"{i.check}-{i.spec.dim}-{i.spec.alpha_max:.2f}"
                                  for i in _SMALL_CATALOG])
    def test_stack_matches_stacks_of_one(self, item):
        # the whole ensemble in one stack gives each sample the margin it
        # gets alone, to the bit, so the report is that of a per-sample loop
        report = run_check(item.check, item.spec, **_suite_args(item))
        spec = verify._effective_spec(item.check, item.spec)
        evaluate = REGISTRY[item.check].evaluate
        alone = [float(evaluate(verify._Stack(verify._Ensemble(spec, [i]), item.check,
                                              **_suite_args(item)))[0])
                 for i in range(spec.count)]
        assert report.min_margin == min(alone)
        assert report.worst_index == alone.index(min(alone))

    def test_catalog_covers_every_check(self):
        assert {item.check for item in _SMALL_CATALOG} == set(CHECK_IDS)
        assert len({item.check for item in _SMALL_CATALOG
                    if item.spec.alpha_max > 0}) == len(SECTORIAL_IDS)


class TestEnsembleDraw:
    @pytest.mark.parametrize("count", [5, 64])
    def test_one_stacked_draw_matches_per_index_draws(self, count):
        # members 2i and 2i + 1 of every sample come from one draw and one
        # certify; the roles and factors are those of per-index draws and
        # one certify per role, to the bit
        spec = small_spec(dim=5, alpha=math.pi / 3, count=count, seed=99)
        wide = replace(spec, count=2 * count)
        A = np.array([random_sectorial(wide, 2 * i) for i in range(count)])
        B = np.array([random_sectorial(wide, 2 * i + 1) for i in range(count)])
        cA, cB = sector.certify(A), sector.certify(B)
        cosa = [math.cos(a) for a in np.maximum(cA.alpha, cB.alpha).tolist()]
        sec = [1.0 / c for c in cosa]
        factors = (np.minimum(cA.m, cB.m), np.maximum(cA.M, cB.M), cosa, [c * c for c in cosa],
                   [s * s for s in sec], [c**3 for c in cosa], [s**3 for s in sec])
        roles = (A, B, linalg.hermitian(A), linalg.hermitian(B),
                 np.broadcast_to(np.eye(5, dtype=complex), A.shape))
        ens = verify._Ensemble(spec)
        for got, want in zip(ens.roles + ens.factors, roles + factors, strict=True):
            want = np.asarray(want)
            assert got.shape == want.shape
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


class TestStackMemory:
    def test_large_group_memory_bounded(self):
        # n = 32, 64 samples: the resolvents of the first doubling step are
        # 64 x 24 matrices, a 25 MB stack in one piece and 56 MB at peak; the
        # sample axis is split so that no stack holds more than
        # funcalc._STACK_ENTRIES complex entries (1 MiB), and the peak is 10 MiB
        spec = small_spec(dim=32, alpha=math.pi / 3, count=64, seed=7)
        verify._ensemble.cache_clear()
        verify._ensemble(spec)  # operands drawn outside the measurement
        tracemalloc.start()
        try:
            report = run_check("real_superadditive", spec, f=catalog("power", 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            verify._ensemble.cache_clear()
        assert report.passed
        assert peak < 32 * 2**20


class TestRunSuite:
    def test_empty(self):
        assert run_suite([]) == []

    def test_single(self):
        items = [SuiteItem(check="inv_real", spec=small_spec(count=5))]
        reports = run_suite(items)
        assert len(reports) == 1 and reports[0].check == "inv_real"

    def test_grouped_walk_changes_no_report(self, monkeypatch):
        flat = small_spec(dim=2, alpha=0.0, count=4, seed=11)
        wide = small_spec(dim=3, alpha=math.pi / 4, count=4, seed=12)
        f, h = catalog("power", 0.3), catalog("uniform")
        phi = random_map(3, 2, "compression", 5)
        items = [
            SuiteItem("real_superadditive", wide, f=f),
            SuiteItem("amgmhm", flat, f=h),
            # flattened to alpha = 0 it runs on flat's ensemble
            SuiteItem("pos_amgmhm", replace(flat, alpha_max=math.pi / 3), f=h),
            SuiteItem("real_sector_reverse", wide, f=f),
            SuiteItem("har_real_super", flat),
            SuiteItem("choi_sector", wide, f=h, phi=phi),
            SuiteItem("mixed_gm", flat),
            SuiteItem("f_real_reverse", wide, f=h),
        ]
        walked = []
        real_run_check = verify.run_check

        def recording(check_id, spec, **kwargs):
            walked.append(check_id)
            return real_run_check(check_id, spec, **kwargs)

        verify._ensemble.cache_clear()
        monkeypatch.setattr(verify, "run_check", recording)
        reports = run_suite(items)
        assert walked == ["real_superadditive", "real_sector_reverse", "choi_sector",
                          "f_real_reverse", "amgmhm", "pos_amgmhm", "har_real_super",
                          "mixed_gm"]
        assert [r.check for r in reports] == [item.check for item in items]
        assert reports[2].ensemble == asdict(flat)
        for item, report in zip(items, reports):
            verify._ensemble.cache_clear()
            alone = real_run_check(item.check, item.spec, f=item.f, phi=item.phi)
            assert report.to_dict() == alone.to_dict()

    def test_shared_means_computed_once(self, monkeypatch):
        calls = []
        real_sigma = funcalc._sigma

        def counting(X, Y, measure, *args, **kwargs):
            if measure.density is not None:
                calls.append(len(X))  # one call per stack, one entry per sample
            return real_sigma(X, Y, measure, *args, **kwargs)

        monkeypatch.setattr(funcalc, "_sigma", counting)
        f = catalog("power", 0.5)
        spec = small_spec(dim=3, count=6)

        def density_integrals(checks, spec=spec):
            before = len(calls)
            run_suite([SuiteItem(cid, spec, f=f) for cid in checks])
            return len(calls) - before, sum(calls[before:])

        verify._ensemble.cache_clear()
        # sigma(ReA, ReB) and sigma(A, B) once per sample, each in one stack ...
        assert density_integrals(["real_superadditive"]) == (2, 2 * spec.count)
        # ... and real_sector_reverse, on the same ensemble and f, adds none
        verify._ensemble.cache_clear()
        assert density_integrals(["real_superadditive", "real_sector_reverse"]) == (
            2, 2 * spec.count)
        assert density_integrals(["real_sector_reverse"]) == (0, 0)

        # a spec's stacks and memos go once two newer specs were used
        kept = verify._ensemble.cache_parameters()["maxsize"]
        assert kept == 2
        for seed in range(kept):
            density_integrals(["inv_real"], replace(spec, seed=seed))
        assert verify._ensemble.cache_info().currsize == kept
        assert density_integrals(["real_sector_reverse"]) == (2, 2 * spec.count)

    def test_per_sample_weights_fill_the_memo(self, monkeypatch):
        # only whole stacks are memoized: a weight drawn per sample goes to
        # the kernel as one stack with one measure per sample every time it
        # is asked for, while one weight for all samples is computed once
        calls = []
        real_sigma = funcalc._sigma

        def counting(X, Y, measure, *args, **kwargs):
            calls.append(len(X))
            return real_sigma(X, Y, measure, *args, **kwargs)

        monkeypatch.setattr(funcalc, "_sigma", counting)
        verify._ensemble.cache_clear()
        c = verify._Stack(verify._ensemble(small_spec(dim=2, count=8)), "sharp_real_super",
                          None, None, None, None)
        t = c.draw_t()
        assert len(set(t.tolist())) > 1
        G = c.sharp(c.A, c.B, t)
        assert calls == [8]
        again = c.sharp(c.A, c.B, t)
        assert calls == [8, 8] and np.array_equal(again, G)
        assert again.flags.writeable
        assert all(again is not V for V in c._ens.memo.values())
        # one weight for all samples is memoized, read-only, whole
        full = c.sharp(c.A, c.B, t[0])
        assert calls == [8, 8, 8] and not full.flags.writeable
        assert c.sharp(c.A, c.B, t[0]) is full and calls == [8, 8, 8]
        same = t == t[0]
        assert np.array_equal(full[same], G[same])
        for k in range(len(t)):
            alone = funcalc._sigma(c.A[k], c.B[k], catalog("power", float(t[k])).measure)[0]
            assert np.array_equal(G[k], alone)

    def test_shared_operands_read_only(self):
        f = catalog("power", 0.5)
        c = verify._Stack(verify._Ensemble(small_spec(dim=3, count=2)), "real_superadditive",
                          f, None, None, None)
        S = c.sigma(c.A, c.B)
        assert S.shape == (2, 3, 3)
        assert c.sigma(c.A, c.B) is S  # memoized on the ensemble
        for X in (c.A, c.B, c.ReA, c.ReB, S, c.apply(f, c.ReA), c.harm(c.A, c.B, 0.3)):
            with pytest.raises(ValueError, match="read-only"):
                X[0, 0, 0] = 0.0
        # an operand that is not one of the ensemble's roles is not memoized
        C = c.A + c.ReB
        assert c.sigma(C, c.B) is not c.sigma(C, c.B)
        assert c.sigma(C, c.B).flags.writeable


class TestDefaultSuite:
    def test_structure(self):
        items = default_suite(samples=2)
        by_check = {}
        for item in items:
            by_check.setdefault(item.check, []).append(item)
        assert set(by_check) == set(CHECK_IDS)
        for cid in SECTORIAL_IDS:
            assert len(by_check[cid]) == 20  # 5 dims x 4 alphas
        for cid in POSITIVE_IDS:
            assert len(by_check[cid]) == 5  # 5 dims at alpha = 0
        fset = {str(item.f) for item in by_check["amgmhm"]}
        assert len(fset) == 6  # all catalog functions cycle through

    def test_matched_partner(self):
        for name, param in [("power", 0.3), ("uniform", None), ("harmonic", 0.4),
                            ("arithmetic", 0.6)]:
            f = catalog(name, param)
            g = matched_partner(f)
            assert g.derivative_at_one == pytest.approx(f.derivative_at_one)
            assert str(g) != str(f)

    def test_operand_sharing_across_checks(self):
        # same (seed, dim, alpha) spec means one cached ensemble serves all checks
        items = default_suite(samples=2)
        specs = {(i.spec.dim, i.spec.alpha_max): i.spec.seed for i in items}
        for item in items:
            assert specs[(item.spec.dim, item.spec.alpha_max)] == item.spec.seed


class TestSectorFactorMutation:
    # the sectorial checks that pass when every sec/cos factor of the
    # per-sample context is 1, its alpha = 0 value, on the default suite's
    # alpha = pi/3 cells at n = 2 and 3 with 20 samples, and why
    UNCAUGHT = {
        **dict.fromkeys(("real_superadditive", "transformer", "har_ando", "f_real_super",
                         "sharp_real_super", "har_real_super", "inv_real", "gumus_a",
                         "f_norm_lower"), "no sector factor in the evaluator"),
        **dict.fromkeys(("mixed_gm", "ando_zhan"), "a factor the catalog never exercises"),
        **dict.fromkeys(("gumus_b", "gumus_c"), "caught only at 200 samples"),
    }

    def test_flattened_factors_fail_the_other_checks(self):
        # each check passes as it is and fails somewhere with the factors
        # set to 1 on its own context (no module attribute is rebound)
        items = [item for item in default_suite(samples=20)
                 if REGISTRY[item.check].ensemble == "sectorial"
                 and item.spec.alpha_max == math.pi / 3 and item.spec.dim in (2, 3)]
        assert len(items) == 70
        ensembles, caught = {}, set()
        for item in items:
            d = REGISTRY[item.check]
            ens = ensembles.setdefault(item.spec, verify._Ensemble(item.spec))
            tau = linalg.TAU_EQ if d.kind == "identity" else linalg.TAU_LOEWNER
            c = verify._Stack(ens, item.check, item.f, item.g, item.phi, item.norm)
            assert np.min(d.evaluate(c)) >= -tau, item.check
            c = verify._Stack(ens, item.check, item.f, item.g, item.phi, item.norm)
            c.cosa = c.cos2 = c.sec2 = c.cos3 = c.sec3 = np.ones(item.spec.count)
            if np.min(d.evaluate(c)) < -tau:
                caught.add(item.check)
        assert len(caught) == 22
        assert set(SECTORIAL_IDS) - caught == set(self.UNCAUGHT)
