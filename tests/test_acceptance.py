"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy criterion (full inequality suite) takes around a
minute; everything else is seconds.
"""

import json
import math

import numpy as np
import pytest

from amm import cli, verify
from amm.funcalc import (
    apply_function,
    catalog,
    choose_contour,
    dunford_apply,
    measure_mass,
    measure_mean,
    scalar_eval,
    standard_catalog,
)
from amm.linalg import inverse, maxabs, opnorm
from amm.means import drury_half, geometric_paths, sigma_mean
from amm.sector import EnsembleSpec, random_sectorial
from amm.verify import default_suite, matched_partner, run_check, run_suite

DIMS = (1, 2, 3, 5, 8)
ALPHAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
SEED = 731001


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))


def spec_grid(count, m=1.0, M=2.0, seed=SEED):
    for di, dim in enumerate(DIMS):
        for ai, alpha in enumerate(ALPHAS):
            yield EnsembleSpec(dim=dim, alpha_max=alpha, m=m, M=M, count=count,
                               seed=seed + 13 * di + 7 * ai)


def draw_pair(spec, index):
    wide = EnsembleSpec(dim=spec.dim, alpha_max=spec.alpha_max, m=spec.m, M=spec.M,
                        count=2 * spec.count, seed=spec.seed)
    return random_sectorial(wide, 2 * index), random_sectorial(wide, 2 * index + 1)


class TestAcceptance:
    def test_criterion_1_geometric_three_path(self):
        """Measure, congruence and homogeneity routes agree to 1e-8; the
        inverted half-line average tracks the half-weight value to 1e-7."""
        lams = (0.1, 0.25, 0.5, 0.75, 0.9)
        worst = 0.0
        worst_drury = 0.0
        for spec in spec_grid(count=200):
            for i in range(spec.count):
                A, B = draw_pair(spec, i)
                n = spec.dim
                for lam in lams:
                    Pa, Pb, Pc = geometric_paths(A, B, lam)
                    scale = 1.0 + max(maxabs(Pa), maxabs(Pb), maxabs(Pc))
                    dev = n * max(maxabs(Pa - Pb), maxabs(Pa - Pc), maxabs(Pb - Pc))
                    worst = max(worst, dev / scale)
                half = geometric_paths(A, B, 0.5)[0]
                dd = n * maxabs(drury_half(A, B) - half)
                worst_drury = max(worst_drury, dd / (1.0 + maxabs(half)))
        ok = worst <= 1e-8 and worst_drury <= 1e-7
        report("criterion 1: geometric-mean three-path agreement", ok,
               f"max path dev {worst:.2e}, drury dev {worst_drury:.2e}")
        assert worst <= 1e-8
        assert worst_drury <= 1e-7

    def test_criterion_2_funcalc_cross_representation(self):
        """Harmonic-measure integral against the contour-resolvent route."""
        functions = standard_catalog()
        worst = 0.0
        for spec in spec_grid(count=10):
            for i in range(spec.count):
                A, _ = draw_pair(spec, i)
                contour = choose_contour(A)
                for f in functions:
                    Fm = apply_function(f, A)
                    Fd = dunford_apply(f, A, contour)
                    dev = opnorm(Fd - Fm) / (1.0 + opnorm(Fm))
                    worst = max(worst, dev)
        ok = worst <= 1e-8
        report("criterion 2: functional-calculus cross-representation", ok,
               f"max dev {worst:.2e}")
        assert ok

    def test_criterion_3_full_inequality_suite(self):
        """Every registered check over dims x alphas x 200 samples."""
        reports = run_suite(default_suite(samples=200))
        failed = [(r.check, r.ensemble["dim"], r.ensemble["alpha_max"], r.min_margin)
                  for r in reports if not r.passed]
        covered = {r.check for r in reports}
        ok = not failed and covered == set(verify.CHECK_IDS)
        report("criterion 3: full inequality suite", ok,
               f"{len(reports)} configurations, {len(failed)} failures")
        assert covered == set(verify.CHECK_IDS)
        assert not failed, failed[:10]

    def test_criterion_4_degeneration_to_classical(self):
        """At alpha = 0 the certified angle is exactly zero, so every sec/cos
        factor is exactly 1 and the accretive checks reproduce their
        classical counterparts bit for bit."""
        from amm.sector import random_pd, sectorial_angle

        flat = EnsembleSpec(dim=4, alpha_max=0.0, m=1.0, M=2.0, count=50, seed=SEED)
        angles_zero = all(
            sectorial_angle(random_pd(flat, i)) == 0.0 for i in range(flat.count)
        )

        # paired accretive/classical checks share operands and parameters;
        # with the factor exactly 1 their margins must coincide exactly
        pairs = [
            ("amgmhm", "pos_amgmhm", dict(f=catalog("power", 0.5))),
            ("ando_zhan", "pos_ando_zhan",
             dict(f=catalog("uniform"), norm=cli.NormKind.parse("trace"))),
            ("f_sharp_nabla", "pos_ando_hiai", dict(f=catalog("power", 0.3))),
            ("norm_of_sigma", "pos_sigma_norm",
             dict(f=catalog("harmonic", 0.4), norm=cli.NormKind.parse("operator"))),
        ]
        coincide = True
        spec = EnsembleSpec(dim=3, alpha_max=0.0, m=1.0, M=2.0, count=60, seed=SEED + 1)
        for acc_id, pos_id, kwargs in pairs:
            ra = run_check(acc_id, spec, **kwargs)
            rp = run_check(pos_id, spec, **kwargs)
            coincide = coincide and ra.min_margin == rp.min_margin and ra.passed

        sharp_identity = run_check("pos_sharpando", spec)
        ok = angles_zero and coincide and sharp_identity.passed
        report("criterion 4: degeneration to the classical case", ok,
               f"identity margin {sharp_identity.min_margin:+.2e}")
        assert angles_zero
        assert coincide
        assert sharp_identity.passed

    def test_criterion_5_measure_integrity(self):
        """Unit mass and first moment f'(1) for every catalog measure."""
        worst_mass = worst_mean = 0.0
        functions = list(standard_catalog()) + [catalog("power", lam)
                                                for lam in (0.1, 0.25, 0.75, 0.9)]
        for f in functions:
            worst_mass = max(worst_mass, abs(measure_mass(f.measure) - 1.0))
            worst_mean = max(worst_mean,
                             abs(measure_mean(f.measure) - f.derivative_at_one))
        ok = worst_mass <= 1e-10 and worst_mean <= 1e-10
        report("criterion 5: measure integrity", ok,
               f"mass dev {worst_mass:.2e}, mean dev {worst_mean:.2e}")
        assert ok

    def test_criterion_6_scalar_continuation(self):
        """Quadrature evaluation matches the closed form on a 100-point grid
        over Re z in [0.1, 5], |Im z| <= 5."""
        res = np.linspace(0.1, 5.0, 10)
        ims = np.linspace(-5.0, 5.0, 10)
        worst = 0.0
        for f in standard_catalog():
            for re in res:
                for im in ims:
                    z = complex(re, im)
                    quad = apply_function(f, np.array([[z]]))[0, 0]
                    closed = scalar_eval(f, z)
                    worst = max(worst, abs(quad - closed))
        ok = worst <= 1e-9
        report("criterion 6: scalar analytic continuation", ok, f"max dev {worst:.2e}")
        assert ok

    def test_criterion_7_kantorovich_bound(self):
        """Ratio bound sec^6(alpha) K(m, M) across derivative-matched function
        pairs, unital map variants and the three (m, M) windows."""
        variants = ("compression", "kraus", "pinching", "vector_state",
                    "normalized_trace")
        functions = standard_catalog()
        failures = []
        ordinal = 0
        for m, M in ((1.0, 2.0), (1.0, 4.0), (0.5, 8.0)):
            for f in functions:
                for g in (matched_partner(f), f):
                    dim = (2, 5)[ordinal % 2]
                    alpha = ALPHAS[ordinal % 4]
                    variant = variants[ordinal % 5]
                    phi = verify._map_for(dim, variant, SEED + ordinal)
                    spec = EnsembleSpec(dim=dim, alpha_max=alpha, m=m, M=M,
                                        count=50, seed=SEED + 100 + ordinal)
                    r = run_check("kantorovich", spec, f=f, g=g, phi=phi)
                    if not r.passed:
                        failures.append((m, M, str(f), str(g), variant, r.min_margin))
                    ordinal += 1
        ok = not failures
        report("criterion 7: Kantorovich-type ratio bound", ok,
               f"{ordinal} configurations")
        assert ok, failures[:5]

    def test_criterion_8_flip_and_inversion(self):
        """Weight flip A#B = B#(1-.)A and inversion (A#B)^-1 = A^-1 # B^-1."""
        lams = (0.1, 0.25, 0.5, 0.75, 0.9)
        worst_flip = worst_inv = 0.0
        for spec in spec_grid(count=25, seed=SEED + 5):
            for i in range(spec.count):
                A, B = draw_pair(spec, i)
                lam = lams[i % len(lams)]
                f = catalog("power", lam)
                fr = catalog("power", 1.0 - lam)
                S = sigma_mean(A, B, f)
                flip = sigma_mean(B, A, fr)
                scale = 1.0 + maxabs(S)
                worst_flip = max(worst_flip, spec.dim * maxabs(S - flip) / scale)
                Sinv = sigma_mean(inverse(A), inverse(B), f)
                worst_inv = max(worst_inv,
                                spec.dim * maxabs(inverse(S) - Sinv) / scale)
        ok = worst_flip <= 1e-8 and worst_inv <= 1e-8
        report("criterion 8: weight-flip and inversion symmetry", ok,
               f"flip {worst_flip:.2e}, inversion {worst_inv:.2e}")
        assert ok

    def test_criterion_9_cli_determinism(self, tmp_path):
        """Suite reports are byte-identical across --jobs and repeat runs."""
        entries = [
            {"id": "amgmhm", "dim": 3, "alpha_max": 0.6, "count": 25, "seed": 71,
             "function": {"name": "power", "param": 0.5}},
            {"id": "inv_sector", "dim": 5, "alpha_max": 1.0, "count": 25, "seed": 72},
            {"id": "mixed_gm", "dim": 2, "alpha_max": 0.4, "count": 25, "seed": 73},
            {"id": "pos_sharpando", "dim": 3, "alpha_max": 0.0, "count": 25,
             "seed": 74},
            {"id": "f_inner", "dim": 4, "alpha_max": 0.8, "count": 25, "seed": 75,
             "function": {"name": "harmonic", "param": 0.4}},
            {"id": "norm_real_sandwich", "dim": 4, "alpha_max": 0.9, "count": 25,
             "seed": 76, "norm": "kyfan(2)"},
        ]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"checks": entries}))
        outputs = []
        for tag, jobs in (("a", 1), ("b", 4), ("c", 1)):
            rp = tmp_path / f"report_{tag}.json"
            code = cli.main(["suite", "--config", str(cfg), "--report", str(rp),
                             "--jobs", str(jobs)])
            assert code == 0
            outputs.append(rp.read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report("criterion 9: determinism and concurrency neutrality", ok,
               f"{len(outputs[0])} report bytes")
        assert ok
