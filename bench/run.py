"""amm benchmark: run one workload against the package in ../src and print its metrics.

    python3 bench/run.py --workload suite-default --seed 1 --seconds 25 --trace 0

Each run starts a fixed number of fresh worker processes (worker.py), one
after another, sized so that their timed phases add up to about --seconds on
the baseline host.  Inherited BLAS threading is left alone.

--trace 0 prints the end-to-end metrics.  --trace 1 ignores --seconds: it runs
untraced and traced workers in turn on the same fixed inputs and prints the
per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPANNED
from worker import CHECK_IDS, SUITE_SAMPLES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# worker_s: timed seconds of one worker on the 2-vCPU host of the baseline.  A
# run starts ceil(--seconds / worker_s) workers, and at least min_workers, so
# the work of a run, and with it its op and failure counts, depends only on
# the seed and --seconds, never on how fast the host happens to be.
# suite-default runs one `amm suite` per fresh process, so its operand cache
# starts cold each time, as it does for a CLI user.
# failures_allowed: failed ops count in success_rate without making the run
# incorrect.  Only edge-compute, whose purpose is to count refusals and misses
# at the edge of the domain, allows them.
WORKLOADS = {
    "suite-default": {"worker_s": 2.0, "min_workers": 3, "failures_allowed": False},
    "compute-large": {"worker_s": 3.3, "min_workers": 8, "failures_allowed": False},
    "edge-compute": {"worker_s": 2.6, "min_workers": 5, "failures_allowed": True},
}
# A traced run alternates this many untraced and traced workers; it reports the
# median traced worker, and the overhead of the median traced timed phase over
# the median untraced one.
TRACE_PAIRS = 3
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 97.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 50.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "success_rate": "share", "peak_rss_mb": "MB",
}
COUNT_UNITS = {"calls": "count", "matrices": "count", "bytes": "B", "nodes": "count"}


def layer_metric_names() -> list[str]:
    """Per-layer metric names, in the order BENCHMARK.json lists them."""
    names = []
    for modname, fname, _ in SPANNED:
        if fname != "gauss_jacobi_rule":
            names += [f"{modname}.{fname}.calls", f"{modname}.{fname}.s"]
    names += ["linalg.solve_stack.matrices", "linalg.solve_stack.bytes",
              "linalg.as_matrix.calls", "funcalc.choose_contour.nodes",
              "funcalc.gauss_jacobi_rule.calls", "funcalc.gauss_jacobi_rule.nodes",
              "verify.run_check.self_s"]
    names += [f"verify.check.{cid}.s" for cid in CHECK_IDS]
    names += ["process.cpu_s", "process.wall_s", "trace.overhead_pct"]
    return names


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "overhead_pct":
        return "%"
    return COUNT_UNITS.get(last, "s")


def nearest_rank(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of values above its rank."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def worker_count(workload: str, seconds: float) -> int:
    cfg = WORKLOADS[workload]
    return max(cfg["min_workers"], math.ceil(seconds / cfg["worker_s"]))


def tail_percentile(min_ops: int) -> float:
    """Highest percentile with >= TAIL_BEYOND ops beyond it at the run's minimum op count.

    Fixed per workload, so the tail metric names the same percentile on
    every run however many workers the time budget allowed.
    """
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if min_ops - math.ceil(p / 100.0 * min_ops) >= TAIL_BEYOND:
            best = p
    return best


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = BENCH / f".work-{os.getpid()}"
        self.started = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def worker(self, index: int, spans: Path | None = None) -> dict:
        """Run one worker to completion; traced when ``spans`` names its span file."""
        # a fresh directory per worker, so every worker creates its files anew
        workdir = self.workdir / str(self.started)
        workdir.mkdir()
        self.started += 1
        out = workdir / "result.json"
        log = workdir / "stderr.txt"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--index", str(index),
               "--workdir", str(workdir), "--out", str(out)]
        if spans is not None:
            OUT.mkdir(exist_ok=True)
            cmd += ["--spans", str(spans)]
        with open(log, "wb") as err:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"worker {index} exceeded {WORKER_TIMEOUT_S:.0f} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not out.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"worker {index} exited {code}:\n{tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["spans"] = str(spans)
        return result

    def __enter__(self):
        self.workdir.mkdir()
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.workdir, ignore_errors=True)


def gate(workload: str, results: list[dict]) -> tuple[bool, list[str]]:
    """Correct when no op failed outside what the workload allows and repeated
    suite reports of one seed are byte-identical."""
    problems = [p for r in results for p in r["problems"]]
    failed = sum(r["failed"] for r in results)
    if failed and not WORKLOADS[workload]["failures_allowed"]:
        problems.append(f"{failed} failed ops")
    digests = {r.get("report_sha256") for r in results if "report_sha256" in r}
    if len(digests) > 1:
        problems.append(f"suite reports differ across runs with one seed: {len(digests)} digests")
    return not problems, problems


def end_to_end(workload: str, results: list[dict]) -> tuple[dict, dict]:
    cfg = WORKLOADS[workload]
    latencies = sorted(lat for r in results for lat in r["latencies"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    timed = sum(r["timed_s"] for r in results)
    p_tail = tail_percentile(cfg["min_workers"] * results[0]["attempted"])
    tail, beyond = nearest_rank(latencies, p_tail)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": len(latencies) / timed,
        "op_ms_p50": nearest_rank(latencies, 50.0)[0] * 1e3,
        "op_ms_tail": tail * 1e3,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    detail = {
        "workers": len(results), "ops": attempted, "failed": failed,
        "error_rate": failed / attempted, "completed_ops": len(latencies),
        "timed_s": timed, "cpu_s": sum(r["cpu_s"] for r in results),
        "tail_percentile": p_tail, "tail_samples_beyond": beyond,
        "criterion3_s_estimate": (attempted / len(results) * 200 / SUITE_SAMPLES
                                  / metrics["ops_per_s"] if workload == "suite-default" else None),
        "setup_s_each": [r["setup_s"] for r in results],
        "ops_per_s_each": [len(r["latencies"]) / r["timed_s"] for r in results],
    }
    if "missed" in results[0]:
        ops = results[0]["worst_deviation"]
        detail["missed"] = {kind: {op: sum(r["missed"][kind][op] for r in results) for op in ops}
                            for kind in results[0]["missed"]}
        detail["worst_deviation"] = {op: max(r["worst_deviation"][op] for r in results)
                                     for op in ops}
        detail["notes"] = [n for r in results for n in r["notes"]][:20]
    return metrics, detail


def run(args) -> int:
    with Runner(args.workload, args.seed) as runner:
        if args.trace:
            # alternate untraced and traced workers on identical inputs
            pairs = [(runner.worker(0),
                      runner.worker(0, OUT / f"spans-{args.workload}-{args.seed}-{i}.jsonl.gz"))
                     for i in range(TRACE_PAIRS)]
            results = [r for pair in pairs for r in pair]
        else:
            results = [runner.worker(i) for i in range(worker_count(args.workload, args.seconds))]
    correct, problems = gate(args.workload, results)
    machine = results[0]["machine"]
    if args.trace:
        untraced_s = statistics.median(base["timed_s"] for base, _ in pairs)
        traced = sorted((t for _, t in pairs), key=lambda t: t["timed_s"])[TRACE_PAIRS // 2]
        layers = {name: 0.0 for name in layer_metric_names()}
        layers.update({k: v for k, v in traced["layers"].items() if k in layers})
        layers["process.cpu_s"] = traced["cpu_s"]
        layers["process.wall_s"] = traced["timed_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced["timed_s"] / untraced_s - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        attempted, failed = traced["attempted"], traced["failed"]
        detail = {"untraced_timed_s": [b["timed_s"] for b, _ in pairs],
                  "traced_timed_s": [t["timed_s"] for _, t in pairs],
                  "spans": traced["spans"]}
    else:
        values, detail = end_to_end(args.workload, results)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        attempted, failed = detail["ops"], detail["failed"]
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": detail, "problems": problems, "machine": machine}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so the running worker is stopped and the
    # work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "amm" / "__init__.py").is_file():
        print(f"amm sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
