"""One benchmark worker: a fresh process that sets up one workload, runs it and checks it.

run.py starts this file with PYTHONPATH pointing at the checkout's ``src``
and reads back the JSON result it writes to ``--out``.  The worker

1. imports amm and builds the workload's inputs (the set-up phase),
2. runs the workload's ops once, in a closed loop with one caller, timing
   each op (the timed phase),
3. checks every output, outside the timed phase.

With ``--spans FILE`` the tracer in tracing.py is installed between 1 and 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import warnings
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SUITE_SAMPLES = 5
# --seed 0 gives the seed of `amm suite --default`; other seeds move away from it.
SUITE_SEED_STRIDE = 1_000_003

TOLERANCE = 1e-8
COMPUTE_OPS = ("harmonic", "arithmetic", "geometric", "geometric-neg", "sigma", "func",
               "contour")
WEIGHTS = (0.3, 0.5, 0.7)
# (n, alpha, M/m, u): u scales ||Im part|| so the certified angle is atan(u tan alpha).
LARGE_CASES = tuple((n, a, 2.0, 1.0) for n in (16, 32, 64) for a in (math.pi / 6, math.pi / 3))
EDGE_CASES = tuple((n, a, r, u) for n in (4, 8) for a in (1.2, 1.4) for r in (10.0, 100.0)
                   for u in (0.125, 0.375, 0.625, 0.875))
CASES = {"compute-large": LARGE_CASES, "edge-compute": EDGE_CASES}

# The 49 checks the suite must cover; also the names of the per-check metrics.
CHECK_IDS = (
    "real_superadditive", "real_sector_reverse", "amgmhm", "mean_monotone", "transformer",
    "kantorovich", "har_ando", "ando_sector", "sigma_inner", "sigma_nabla_phi",
    "f_real_super", "f_real_reverse", "choi_sector", "f_inner", "f_nabla", "f_sharp_nabla",
    "sharp_real_super", "sharp_sector_reverse", "har_real_super", "har_sector_reverse",
    "inv_real", "inv_sector", "gumus_a", "gumus_b", "gumus_c", "mixed_gm", "mixed_ns",
    "norm_real_sandwich", "f_norm_lower", "f_opnorm_sandwich", "phi_sigma_norm",
    "phi_nabla_norm", "ando_zhan", "f_nabla_norm", "norm_of_sigma", "pos_jensen",
    "pos_sigma_inner", "pos_sigma_norm", "pos_amgmhm", "pos_ando", "pos_choi",
    "pos_ando_hiai", "pos_f_norm", "pos_ando_zhan", "pos_gumus", "pos_sharpando", "pos_ts",
    "pos_ab_norm", "pos_concave",
)


def monotonic() -> float:
    """System-wide monotonic clock, comparable between parent and worker."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_record() -> dict:
    """Host, interpreter, numpy/scipy and both OpenBLAS builds with their thread counts."""
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "blas": [],
    }
    # numpy ships an ILP64 OpenBLAS and scipy an LP64 one; ask each for its
    # build string and the thread count it runs with.
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        libdir = Path(package.__file__).resolve().parent.parent / (package.__name__ + ".libs")
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
            entry = {"package": package.__name__, "library": Path(path).name}
            try:
                lib = ctypes.CDLL(path)
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
                get_config.restype = ctypes.c_char_p
                get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                get_threads.restype = ctypes.c_int
                entry["config"] = get_config().decode()
                entry["threads"] = get_threads()
            except (OSError, AttributeError) as exc:
                entry["error"] = str(exc)
            record["blas"].append(entry)
    return record


def write_matrix_file(path: Path, A) -> None:
    """The CLI's matrix file format: {"n", "re", "im"}."""
    payload = {"n": int(A.shape[0]), "re": A.real.tolist(), "im": A.imag.tolist()}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def read_matrix_file(path: Path):
    import numpy as np

    data = json.loads(path.read_text(encoding="utf-8"))
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)


def sectorial(rng, n: int, alpha: float, m: float, M: float, u: float):
    """A = P^(1/2) (I + iT) P^(1/2): Re A = P, certified angle atan(u tan(alpha)).

    The package's ensemble construction (sector.random_sectorial), copied so
    that the inputs stay fixed when the package's generator changes, with one
    difference: the spectrum of P sits at the midpoints of n equal bins of
    [m, M] instead of being drawn.  With u stratified too, the contour's node
    count, and so the work and the share of refused draws, varies little
    from seed to seed; the eigenvectors of P and T stay random.
    """
    import numpy as np

    p = m + (M - m) * (np.arange(n) + 0.5) / n
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    U = Q * (d / np.abs(d)).conj()
    S = (U * np.sqrt(p)) @ U.conj().T
    S = (S + S.conj().T) / 2.0
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = (G + G.conj().T) / 2.0
    T *= u * math.tan(alpha) / np.max(np.abs(np.linalg.eigvalsh(T)))
    return S @ (np.eye(n) + 1j * T) @ S


class OpLog:
    """Latency of every op in the timed phase; tells the tracer which op runs."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.tracer = tracer

    def timed(self, fn):
        def run(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op = len(self.latencies)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)
                if self.tracer is not None:
                    self.tracer.op = -1
        return run


# ---------------------------------------------------------------------------
# suite-default: the criterion-3 catalog through `amm suite`
# ---------------------------------------------------------------------------

def suite_config(seed: int, samples: int) -> dict:
    """The default catalog re-seeded from the benchmark seed, as an `amm suite` config.

    Mirrors verify.default_suite entry by entry; map seeds are the suite seed
    plus the entry's ordinal within its check, as default_suite draws them.
    """
    from amm import verify

    suite_seed = (verify.DEFAULT_SEED + SUITE_SEED_STRIDE * seed) % 2**63
    entries = []
    ordinals: dict[str, int] = {}
    for item in verify.default_suite(samples=samples, seed=suite_seed):
        ordinal = ordinals.get(item.check, 0)
        ordinals[item.check] = ordinal + 1
        spec = item.spec
        entry = {"id": item.check, "dim": spec.dim, "alpha_max": spec.alpha_max,
                 "m": spec.m, "M": spec.M, "count": spec.count, "seed": spec.seed}
        if item.f is not None:
            entry["function"] = item.f.describe()
        if item.g is not None:
            entry["function_g"] = item.g.describe()
        if item.phi is not None:
            entry["map"] = dict(item.phi.describe(), seed=suite_seed + ordinal)
        if item.norm is not None:
            entry["norm"] = str(item.norm)
        entries.append(entry)
    return {"checks": entries}


def run_suite_workload(args, workdir: Path, tracer) -> dict:
    from amm import cli, verify

    config_path = workdir / f"suite-{args.index}.json"
    config = suite_config(args.seed, SUITE_SAMPLES)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    report_path = workdir / f"report-{args.index}.json"
    ready = monotonic()

    if tracer is not None:
        tracer.install()
    ops = OpLog(tracer)
    # run_suite looks run_check up in verify's namespace on every item
    verify.run_check = ops.timed(verify.run_check)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    code = cli.main(["suite", "--config", str(config_path), "--report", str(report_path),
                     "--jobs", "1"])
    timed = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()

    expected = len(config["checks"])
    if code not in (0, 5) or not report_path.exists():
        return {"ready": ready, "timed_s": timed, "cpu_s": cpu, "peak_rss_mb": rss,
                "attempted": expected, "failed": expected, "latencies": [],
                "problems": [f"amm suite exited {code} without a report"],
                "report_sha256": None}
    raw = report_path.read_bytes()
    report = json.loads(raw)
    verdicts = [c["pass"] for c in report["checks"]]
    uncovered = sorted(set(CHECK_IDS) - {c["id"] for c in report["checks"]})
    problems = []
    if report["failed"]:
        problems.append(f"FAIL verdicts: {sorted(set(report['failed']))}")
    if uncovered:
        problems.append(f"uncovered checks: {uncovered}")
    if len(verdicts) != expected:
        problems.append(f"report has {len(verdicts)} of {expected} configs")
    return {
        "ready": ready, "timed_s": timed, "cpu_s": cpu, "peak_rss_mb": rss,
        "attempted": expected,
        "failed": verdicts.count(False) + expected - len(verdicts) + len(uncovered),
        "latencies": [lat for lat, ok in zip(ops.latencies, verdicts) if ok],
        "problems": problems, "report_sha256": hashlib.sha256(raw).hexdigest(),
    }


# ---------------------------------------------------------------------------
# compute-large / edge-compute: public ops on seeded operand pairs
# ---------------------------------------------------------------------------

def build_cases(args, workdir: Path) -> list[dict]:
    import numpy as np
    import amm

    salt = zlib.crc32(args.workload.encode())
    cases = []
    for ci, (n, alpha, ratio, u) in enumerate(CASES[args.workload]):
        rng = np.random.default_rng((args.seed, salt, args.index, ci))
        A = sectorial(rng, n, alpha, 1.0, ratio, u)
        B = sectorial(rng, n, alpha, 1.0, ratio, u)
        lam = float(rng.choice(WEIGHTS))
        t = float(rng.choice(WEIGHTS))
        a_path, b_path = workdir / f"A-{args.index}-{ci}.json", workdir / f"B-{args.index}-{ci}.json"
        write_matrix_file(a_path, A)
        write_matrix_file(b_path, B)
        cases.append({"lam": lam, "t": t, "A": A, "B": B, "a_path": a_path, "b_path": b_path,
                      "power": amm.catalog("power", lam)})
    return cases


def compute_argv(op: str, case: dict, out: Path) -> list[str]:
    a, b = ["--a", str(case["a_path"])], ["--b", str(case["b_path"])]
    lam, t = repr(case["lam"]), repr(case["t"])
    tail = {
        "harmonic": ["--t", t] + b,
        "arithmetic": ["--t", t] + b,
        "geometric": ["--lambda", lam] + b,
        "geometric-neg": ["--lambda", lam] + b,
        "sigma": ["--fn", "uniform"] + b,
        "func": ["--fn", "power", "--param", lam],
    }[op]
    return ["compute", "--op", op] + a + tail + ["--out", str(out)]


def references(case: dict) -> dict:
    """Independent scipy.linalg values for every op of one case."""
    import numpy as np
    import scipy.linalg as sl

    A, B, lam, t = case["A"], case["B"], case["lam"], case["t"]
    n = A.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        S = sl.sqrtm(A)
        Si = sl.inv(S)
        M = Si @ B @ Si
        f_uniform = M @ sl.logm(M) @ sl.inv(M - np.eye(n))
        A_lam = sl.fractional_matrix_power(A, lam)
        return {
            "harmonic": sl.inv((1.0 - t) * sl.inv(A) + t * sl.inv(B)),
            "arithmetic": (1.0 - t) * A + t * B,
            "geometric": S @ sl.fractional_matrix_power(M, lam) @ S,
            "geometric-neg": S @ sl.fractional_matrix_power(M, -lam) @ S,
            "sigma": S @ f_uniform @ S,
            "func": A_lam,
            "contour": A_lam,
        }


def run_compute_workload(args, workdir: Path, tracer) -> dict:
    import numpy as np
    import amm
    from amm import cli, funcalc

    cases = build_cases(args, workdir)
    ready = monotonic()

    if tracer is not None:
        tracer.install()
    ops = OpLog(tracer)
    main = ops.timed(cli.main)

    @ops.timed
    def contour(case):
        return funcalc.dunford_apply(case["power"], case["A"], funcalc.choose_contour(case["A"]))

    outcomes = []  # (case index, op, output file, exit code / array / exception)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for ci, case in enumerate(cases):
        for op in COMPUTE_OPS[:-1]:
            out = workdir / f"out-{args.index}-{ci}-{op}.json"
            outcomes.append((ci, op, out, main(compute_argv(op, case, out))))
        try:
            result = contour(case)
        except amm.NumericFailureError:
            result = 4
        except Exception as exc:  # noqa: BLE001 - any other escape is recorded as an error
            result = exc
        outcomes.append((ci, "contour", None, result))
    timed = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()

    refs = [references(case) for case in cases]
    latencies = []
    problems = []  # failures outside the documented contract: other exit codes, exceptions
    notes = []     # results off their reference by more than TOLERANCE
    worst = {op: 0.0 for op in COMPUTE_OPS}
    missed = {kind: {op: 0 for op in COMPUTE_OPS} for kind in ("refused", "wrong", "error")}
    for (ci, op, out, result), latency in zip(outcomes, ops.latencies):
        where = f"{op} on case {ci} {CASES[args.workload][ci]}"
        if isinstance(result, Exception) or (isinstance(result, int) and result not in (0, 4)):
            missed["error"][op] += 1
            problems.append(f"{where}: {result!r}")
            continue
        if isinstance(result, int) and result == 4:
            # the documented refusal: a numeric contract could not be met
            missed["refused"][op] += 1
            continue
        if isinstance(result, int):
            result = read_matrix_file(out)
        ref = refs[ci][op]
        dev = float(np.max(np.abs(result - ref)) / np.max(np.abs(ref)))
        worst[op] = max(worst[op], dev)
        if not dev <= TOLERANCE:
            missed["wrong"][op] += 1
            notes.append(f"{where}: off its scipy reference by {dev:.3e}")
            continue
        latencies.append(latency)
    return {
        "ready": ready, "timed_s": timed, "cpu_s": cpu, "peak_rss_mb": rss,
        "attempted": len(outcomes), "failed": len(outcomes) - len(latencies),
        "latencies": latencies, "problems": problems, "notes": notes,
        "worst_deviation": worst, "missed": missed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["suite-default", "compute-large", "edge-compute"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True, help="worker number in the run")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace the run; write its spans to this file "
                                           "(gzip JSON lines)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import amm

    if Path(amm.__file__).resolve().parent != SRC / "amm":
        print(f"imported amm from {amm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
    workdir = Path(args.workdir)
    if args.workload == "suite-default":
        result = run_suite_workload(args, workdir, tracer)
    else:
        result = run_compute_workload(args, workdir, tracer)
    if args.index == 0:
        result["machine"] = machine_record()
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
