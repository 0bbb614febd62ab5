import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amm import cli, linalg
from amm.cli import main, read_matrix, write_matrix
from amm.linalg import maxabs


def write_mat(path, A):
    write_matrix(path, np.asarray(A, dtype=complex))
    return str(path)


@pytest.fixture
def matrices(tmp_path):
    return {
        "four": write_mat(tmp_path / "four.json", [[4.0]]),
        "nine": write_mat(tmp_path / "nine.json", [[9.0]]),
        "two": write_mat(tmp_path / "two.json", [[2.0]]),
        "eight": write_mat(tmp_path / "eight.json", [[8.0]]),
        "diag49": write_mat(tmp_path / "diag49.json", np.diag([4.0, 9.0])),
        "skew": write_mat(tmp_path / "skew.json", [[1j]]),
        "eye": write_mat(tmp_path / "eye.json", np.eye(2)),
        "normal": write_mat(tmp_path / "normal.json", np.diag([1 + 1j, 1 - 1j])),
    }


class TestMatrixIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) * 10.0**rng.integers(-300, 300, (4, 4))
        A = A + 1j * rng.standard_normal((4, 4))
        A[0, 0] = 0.1 + 1e-17j
        p = tmp_path / "m.json"
        write_matrix(p, A)
        np.testing.assert_array_equal(read_matrix(p), A)

    def test_bytes_unchanged(self, tmp_path):
        p = tmp_path / "m.json"
        write_matrix(p, np.array([[1.0, -0.1 + 2.5e-17j], [1 / 3 + 1e300j, -0.0 - 7j]]))
        assert p.read_bytes() == (
            b'{"n": 2, "re": [[1.0, -0.1], [0.3333333333333333, -0.0]], '
            b'"im": [[0.0, 2.5e-17], [1e+300, -7.0]]}\n'
        )
        rng = np.random.default_rng(1)
        A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        write_matrix(p, A)
        payload = {"n": 16, "re": [[float(v) for v in row] for row in A.real],
                   "im": [[float(v) for v in row] for row in A.imag]}
        assert p.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "re": [[1.0]], "im": [[0.0]]}')
        from amm.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            read_matrix(p)

    @pytest.mark.parametrize("n, size", [("2.9", 2), ("2.0", 2), ("true", 1), ('"2"', 2)])
    def test_non_integer_n_exit_2(self, tmp_path, capsys, n, size):
        # the arrays fit the truncated n: "n": 2.9 was read as 2 and "n": true as 1
        eye = json.dumps(np.eye(size).tolist())
        p = tmp_path / "m.json"
        p.write_text(f'{{"n": {n}, "re": {eye}, "im": {eye}}}')
        assert main(["angle", "--a", str(p)]) == 2
        assert "n must be an integer" in capsys.readouterr().err


class TestCompute:
    def test_geometric(self, matrices, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--op", "geometric", "--lambda", "0.5",
                     "--a", matrices["four"], "--b", matrices["nine"],
                     "--out", str(out)])
        assert code == 0
        assert read_matrix(out)[0, 0] == pytest.approx(6.0, rel=1e-10)

    def test_func_power(self, matrices, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--op", "func", "--fn", "power", "--param", "0.5",
                     "--a", matrices["diag49"], "--out", str(out)])
        assert code == 0
        np.testing.assert_allclose(read_matrix(out), np.diag([2.0, 3.0]), atol=1e-10)

    def test_harmonic(self, matrices, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--op", "harmonic", "--t", "0.5",
                     "--a", matrices["two"], "--b", matrices["eight"],
                     "--out", str(out)])
        assert code == 0
        assert read_matrix(out)[0, 0] == pytest.approx(3.2)

    def test_non_accretive_exit_3(self, matrices, tmp_path):
        code = main(["compute", "--op", "harmonic", "--t", "0.5",
                     "--a", matrices["skew"], "--b", matrices["two"],
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize("op, flag", [
        ("sigma", ["--fn", "power", "--param", "0.3"]), ("geometric", ["--lambda", "0.3"]),
    ])
    def test_extreme_scale_exit_4(self, tmp_path, capsys, op, flag):
        # the pencil's spectrum near 1e312 is beyond any scale: a numeric
        # refusal, not an OverflowError
        a = write_mat(tmp_path / "a.json", 1e306 * np.eye(2))
        b = write_mat(tmp_path / "b.json", 1e-6 * np.eye(2))
        code = main(["compute", "--op", op, "--a", a, "--b", b,
                     "--out", str(tmp_path / "x.json")] + flag)
        assert code == 4
        assert "not converged" in capsys.readouterr().err

    @pytest.mark.parametrize("op, flag", [
        ("sigma", ["--fn", "power", "--param", "0.3"]), ("geometric", ["--lambda", "0.3"]),
    ])
    def test_largest_doubles_exit_0(self, tmp_path, op, flag):
        # an accretive operand near the largest double is accepted, not
        # refused as non-accretive by an overflowing Hermitian part
        a = write_mat(tmp_path / "a.json", 1e308 * np.eye(2))
        out = tmp_path / "x.json"
        code = main(["compute", "--op", op, "--a", a, "--b", a, "--out", str(out)] + flag)
        assert code == 0
        assert maxabs(read_matrix(out) - 1e308 * np.eye(2)) <= 1e-14 * 1e308

    @pytest.mark.parametrize(
        "op", ["harmonic", "arithmetic", "geometric", "geometric-neg", "sigma", "func"])
    def test_missing_flag_exit_2(self, matrices, tmp_path, capsys, op):
        flag, value = {"harmonic": ("--t", "0.3"), "arithmetic": ("--t", "0.3"),
                       "geometric": ("--lambda", "0.3"), "geometric-neg": ("--lambda", "0.3"),
                       "sigma": ("--fn", "uniform"), "func": ("--fn", "uniform")}[op]
        base = ["compute", "--op", op, "--a", matrices["four"], "--out", str(tmp_path / "x.json")]
        if op != "func":
            assert main(base + [flag, value]) == 2
            assert f"--op {op} requires --b" in capsys.readouterr().err
            base += ["--b", matrices["nine"]]
        assert main(base) == 2
        assert f"--op {op} requires {flag}" in capsys.readouterr().err
        assert main(base + [flag, value]) == 0

    def test_bad_param_exit_2(self, matrices, tmp_path):
        code = main(["compute", "--op", "func", "--fn", "power", "--param", "1.5",
                     "--a", matrices["diag49"], "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_uniform_param_exit_2(self, matrices, tmp_path):
        # uniform takes no parameter, as catalog("uniform", 0.3) says
        code = main(["compute", "--op", "func", "--fn", "uniform", "--param", "0.3",
                     "--a", matrices["diag49"], "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_parser_reused_across_calls(self, matrices, tmp_path, capsys):
        # main builds the parser once per process; a usage error must leave
        # nothing behind for the next call
        out = tmp_path / "out.json"
        argv = ["compute", "--op", "geometric", "--lambda", "0.3",
                "--a", matrices["diag49"], "--b", matrices["eye"], "--out", str(out)]
        assert main(["compute", "--op", "geometric", "--lambda", "0.3"]) == 2
        assert "required" in capsys.readouterr().err
        assert main(argv) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert cli.build_parser() is cli.build_parser()


class TestAngle:
    def test_identity(self, matrices, capsys):
        assert main(["angle", "--a", matrices["eye"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accretive"] is True
        assert data["alpha_radians"] == pytest.approx(0.0, abs=1e-12)
        assert data["m"] == pytest.approx(1.0)
        assert data["M"] == pytest.approx(1.0)

    def test_quarter_pi(self, matrices, capsys):
        assert main(["angle", "--a", matrices["normal"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha_radians"] == pytest.approx(0.7853982, abs=1e-6)

    def test_non_accretive(self, matrices, capsys):
        assert main(["angle", "--a", matrices["skew"]]) == 3
        assert json.loads(capsys.readouterr().out) == {"accretive": False, "margin": 0.0}

    def test_accepted_matrix_is_judged_once(self, matrices, monkeypatch, capsys):
        # certify alone judges an accepted matrix: one verdict and one SVD
        counts = dict.fromkeys(("verdicts", "svd"), 0)

        def counting(key, function):
            def call(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "_accretivity", counting("verdicts", linalg._accretivity))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        assert main(["angle", "--a", matrices["normal"]]) == 0
        assert counts == {"verdicts": 1, "svd": 1}


class TestGen:
    def test_flat_alpha_writes_hermitian(self, tmp_path):
        out = tmp_path / "ens"
        code = main(["gen", "--dim", "3", "--alpha", "0", "--m", "1", "--M", "2",
                     "--count", "4", "--seed", "7", "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("sample_*.json"))
        assert len(files) == 4
        for fp in files:
            A = read_matrix(fp)
            assert np.array_equal(A, A.conj().T)

    def test_regeneration_byte_identical(self, tmp_path):
        args = ["gen", "--dim", "2", "--alpha", "0.5", "--m", "1", "--M", "2",
                "--count", "3", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for i in range(3):
            assert (a / f"sample_{i}.json").read_bytes() == \
                (b / f"sample_{i}.json").read_bytes()

    def test_generated_pass_angle(self, tmp_path, capsys):
        out = tmp_path / "ens"
        main(["gen", "--dim", "3", "--alpha", "0.6", "--m", "1", "--M", "2",
              "--count", "3", "--seed", "13", "--out", str(out)])
        for i in range(3):
            assert main(["angle", "--a", str(out / f"sample_{i}.json")]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["alpha_radians"] <= 0.6 + 1e-10

    def test_bad_params_exit_2(self, tmp_path):
        code = main(["gen", "--dim", "0", "--alpha", "0", "--m", "1", "--M", "2",
                     "--count", "1", "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2


def suite_config(tmp_path, entries):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"checks": entries}))
    return str(p)


class TestSuite:
    def test_single_check_config(self, tmp_path, capsys):
        cfg = suite_config(tmp_path, [
            {"id": "inv_real", "dim": 2, "alpha_max": 0.5, "m": 1.0, "M": 2.0,
             "count": 10, "seed": 3}
        ])
        report = tmp_path / "report.json"
        code = main(["suite", "--config", cfg, "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["all_pass"] is True
        assert data["total_checks"] == 1
        check = data["checks"][0]
        assert list(check.keys()) == ["id", "params", "ensemble", "samples",
                                      "min_margin", "worst_index", "pass",
                                      "elapsed_ms"]
        assert check["elapsed_ms"] == 0.0

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = suite_config(tmp_path, [
            {"id": "har_real_super", "dim": 3, "alpha_max": 0.7, "count": 10,
             "seed": 5},
            {"id": "pos_gumus", "dim": 2, "alpha_max": 0.0, "count": 10, "seed": 5},
        ])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["suite", "--config", cfg, "--report", str(r1)]) == 0
        assert main(["suite", "--config", cfg, "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_jobs_byte_identical(self, tmp_path):
        cfg = suite_config(tmp_path, [
            {"id": "inv_sector", "dim": 2, "alpha_max": 0.7, "count": 8, "seed": 9},
            {"id": "mixed_gm", "dim": 3, "alpha_max": 0.5, "count": 8, "seed": 9},
            {"id": "har_sector_reverse", "dim": 2, "alpha_max": 0.3, "count": 8,
             "seed": 9},
            {"id": "pos_ab_norm", "dim": 2, "alpha_max": 0.0, "count": 8, "seed": 9,
             "norm": "frobenius"},
        ])
        r1, r4 = tmp_path / "j1.json", tmp_path / "j4.json"
        assert main(["suite", "--config", cfg, "--report", str(r1), "--jobs", "1"]) == 0
        assert main(["suite", "--config", cfg, "--report", str(r4), "--jobs", "4"]) == 0
        assert r1.read_bytes() == r4.read_bytes()

    def test_unknown_id_exit_2_names_it(self, tmp_path, capsys):
        cfg = suite_config(tmp_path, [{"id": "all_the_things", "dim": 2, "count": 2,
                                       "seed": 1}])
        code = main(["suite", "--config", cfg, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "all_the_things" in capsys.readouterr().err

    def test_failing_check_exit_5(self, tmp_path, monkeypatch):
        import amm.verify as verify_mod

        real = verify_mod.run_check

        def sabotage(check_id, spec, **kw):
            r = real(check_id, spec, **kw)
            return verify_mod.CheckReport(
                check=r.check, ensemble=r.ensemble, samples=r.samples,
                min_margin=-1.0, worst_index=r.worst_index, passed=False,
                elapsed_ms=r.elapsed_ms, params=r.params,
            )

        monkeypatch.setattr(verify_mod, "run_check", sabotage)
        cfg = suite_config(tmp_path, [{"id": "inv_real", "dim": 2, "count": 2,
                                       "seed": 1}])
        report = tmp_path / "r.json"
        code = main(["suite", "--config", cfg, "--report", str(report)])
        assert code == 5
        data = json.loads(report.read_text())
        assert data["all_pass"] is False
        assert data["failed"] == ["inv_real"]

    def test_nan_margin_exit_4_names_check_and_sample(self, tmp_path, capsys, monkeypatch):
        import amm.verify as verify_mod

        d = verify_mod.REGISTRY["inv_real"]

        def nan_at_one(c):
            margins = d.evaluate(c)
            margins[1] = np.nan
            return margins

        monkeypatch.setitem(verify_mod.REGISTRY, "inv_real",
                            dataclasses.replace(d, evaluate=nan_at_one))
        cfg = suite_config(tmp_path, [{"id": "inv_real", "dim": 2, "count": 3, "seed": 1}])
        report = tmp_path / "r.json"
        assert main(["suite", "--config", cfg, "--report", str(report)]) == 4
        err = capsys.readouterr().err
        assert "inv_real" in err and "sample 1" in err
        assert not report.exists()

    def test_config_function_and_map(self, tmp_path):
        cfg = suite_config(tmp_path, [
            {"id": "choi_sector", "dim": 3, "alpha_max": 0.5, "count": 5, "seed": 2,
             "function": {"name": "power", "param": 0.5},
             "map": {"variant": "pinching", "dim_in": 3, "dim_out": 3, "seed": 4}},
        ])
        assert main(["suite", "--config", cfg, "--report",
                     str(tmp_path / "r.json")]) == 0

    def test_config_uniform_param(self, tmp_path):
        entry = {"id": "real_superadditive", "dim": 2, "count": 2, "seed": 1}
        report = tmp_path / "r.json"
        null = suite_config(tmp_path, [{**entry, "function": {"name": "uniform", "param": None}}])
        assert main(["suite", "--config", null, "--report", str(report)]) == 0
        bad = suite_config(tmp_path, [{**entry, "function": {"name": "uniform", "param": 0.3}}])
        assert main(["suite", "--config", bad, "--report", str(report)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["suite", "--report", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("field", [
        {"norm": "kyfan(x)"},
        {"function": {"name": "power", "param": "abc"}},
        {"function": "power"},
        {"map": {"dim_in": 2}},
    ])
    def test_malformed_entry_exit_2_names_position(self, tmp_path, capsys, field):
        cfg = suite_config(tmp_path, [
            {"id": "inv_real", "dim": 2, "count": 2, "seed": 1},
            {"id": "choi_sector", "dim": 2, "count": 2, "seed": 1, **field},
        ])
        code = main(["suite", "--config", cfg, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "config entry 1" in capsys.readouterr().err


    @pytest.mark.parametrize("field", [
        {"function": {"name": "uniform", "param": 0.3}},
        {"norm": "spectral"},
        {"dim": 0},
        {"map": {"variant": "haar"}},
        {"alpha_max": 2.0},
    ], ids=["function-param", "norm", "dim", "map-variant", "alpha"])
    def test_rejected_parameter_names_position(self, tmp_path, capsys, field):
        cfg = suite_config(tmp_path, [{"id": "choi_sector", "dim": 2, "count": 2,
                                       "seed": 1, **field}])
        code = main(["suite", "--config", cfg, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "config entry 0 (" in capsys.readouterr().err

    @pytest.mark.parametrize("field, name", [
        ({"dim": 2.9}, "dim"),
        ({"dim": True}, "dim"),
        ({"count": 2.0}, "count"),
        ({"seed": 1.5}, "seed"),
        ({"map": {"variant": "pinching", "dim_in": 2.0}}, "map dim_in"),
        ({"map": {"variant": "pinching", "dim_out": True}}, "map dim_out"),
        ({"map": {"variant": "pinching", "seed": 4.5}}, "map seed"),
    ], ids=["dim-float", "dim-bool", "count", "seed", "dim_in", "dim_out", "map-seed"])
    def test_non_integer_field_names_it(self, tmp_path, capsys, field, name):
        # a float or a boolean is refused, not truncated to an integer
        cfg = suite_config(tmp_path, [{"id": "choi_sector", "dim": 2, "count": 2, "seed": 1,
                                       "function": {"name": "power", "param": 0.5}, **field}])
        code = main(["suite", "--config", cfg, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{name} must be an integer" in capsys.readouterr().err


class TestMalformedFiles:
    MATRIX = b'{"n": 1, "re": [[1.0]], "im": [[0.0]]}'
    CONFIG = b'{"checks": [{"id": "inv_real", "dim": 2, "count": 2, "seed": 1}]}'

    @pytest.mark.parametrize("command, content", [
        ("angle", MATRIX.replace(b'"n": 1', b'"n": 1e400')),
        ("suite", CONFIG.replace(b'"dim": 2', b'"dim": 1e400')),
        ("angle", b"\xff" + MATRIX),
        ("suite", b"\xff" + CONFIG),
        ("angle", None),
    ], ids=["huge-n", "huge-dim", "non-utf8-matrix", "non-utf8-config", "directory"])
    def test_exit_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        if command == "angle":
            argv = ["angle", "--a", str(path)]
        else:
            argv = ["suite", "--config", str(path), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "invalid input:" in capsys.readouterr().err


def run_child(*argv):
    """Run python with argv in a child process that imports amm from this checkout."""
    # the pytest pythonpath setting does not reach a child process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntry:
    def test_module_invocation(self, tmp_path):
        A = tmp_path / "a.json"
        write_mat(A, np.eye(2))
        proc = run_child("-m", "amm", "angle", "--a", str(A))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["accretive"] is True

    def test_runs_on_numpy_alone(self, tmp_path):
        # scipy is a test dependency only: importing amm, a compute and a
        # suite that reaches every check load no scipy module
        A, B, out = (str(tmp_path / name) for name in ("a.json", "b.json", "g.json"))
        write_mat(A, [[2.0, 1j], [-1j, 3.0]])
        write_mat(B, [[1.0, 0.5], [0.5, 2.0 + 1j]])
        script = (
            "import sys\n"
            "from amm.cli import main\n"
            f"assert main(['compute', '--op', 'geometric', '--a', {A!r}, '--b', {B!r},"
            f" '--lambda', '0.3', '--out', {out!r}]) == 0\n"
            f"assert main(['suite', '--default', '--samples', '1', '--report',"
            f" {str(tmp_path / 'r.json')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        proc = run_child("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
