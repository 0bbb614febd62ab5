"""Command-line surface: compute, angle, gen and suite subcommands.

Matrices travel as JSON files with split real/imaginary parts:

    {"n": 2, "re": [[...], [...]], "im": [[...], [...]]}

Exit codes: 0 success, 2 invalid flags/config, 3 precondition violation
(non-accretive input), 4 numeric failure, 5 suite check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import funcalc, means, sector, verify
from .errors import (
    AmmError,
    InvalidInputError,
    NumericFailureError,
    ParameterError,
    PreconditionError,
    integer,
)
from .linalg import NormKind
from .maps import random_map
from .sector import EnsembleSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_SUITE_FAILED = 5

REPORT_SCHEMA = "amm-suite-report/1"


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        n = integer(data["n"], "n")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise InvalidInputError(f"malformed matrix file {path}: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise InvalidInputError(f"matrix file {path} arrays are not {n}x{n}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvalidInputError(f"matrix file {path} has non-finite entries")
    return re + 1j * im


def write_matrix(path, A: np.ndarray):
    A = np.asarray(A, dtype=np.complex128)
    payload = {
        "n": A.shape[0],
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }
    # one json.dumps call takes the C encoder; json.dump to a file does not
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build_function(name: str, param) -> funcalc.MonotoneFunction:
    return funcalc.catalog(name, None if param is None else float(param))


# Each --op: the flag it requires, that flag's args attribute, and its computation.
_OPS = {
    "harmonic": ("--t", "t", lambda A, B, a: means.harmonic_mean(A, B, a.t)),
    "arithmetic": ("--t", "t", lambda A, B, a: means.arithmetic_mean(A, B, a.t)),
    "geometric": ("--lambda", "lam", lambda A, B, a: means.geometric_mean(A, B, a.lam)),
    "geometric-neg": ("--lambda", "lam", lambda A, B, a: means.geometric_neg(A, B, a.lam)),
    "sigma": ("--fn", "fn",
              lambda A, B, a: means.sigma_mean(A, B, _build_function(a.fn, a.param))),
    "func": ("--fn", "fn",
             lambda A, B, a: funcalc.apply_function(_build_function(a.fn, a.param), A)),
}


def _cmd_compute(args) -> int:
    A = read_matrix(args.a)
    needs_b = args.op != "func"
    if needs_b and args.b is None:
        raise ParameterError(f"--op {args.op} requires --b")
    B = read_matrix(args.b) if needs_b else None
    flag, dest, compute = _OPS[args.op]
    if getattr(args, dest) is None:
        raise ParameterError(f"--op {args.op} requires {flag}")
    write_matrix(args.out, compute(A, B, args))
    return EXIT_OK


def _cmd_angle(args) -> int:
    A = read_matrix(args.a)
    try:
        cert = sector.certify(A)
    except PreconditionError:
        # a refusal prints the margin of is_accretive
        print(json.dumps({"accretive": False, "margin": sector.is_accretive(A)[1]}))
        return EXIT_PRECONDITION
    print(json.dumps({
        "accretive": True,
        "alpha_radians": cert.alpha,
        "m": cert.m,
        "M": cert.M,
    }))
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = EnsembleSpec(dim=args.dim, alpha_max=args.alpha, m=args.m, M=args.M,
                        count=args.count, seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for index in range(spec.count):  # one member at a time: memory O(n^2) at any count
        A = sector.random_sectorial(spec, index)
        write_matrix(outdir / f"sample_{index}.json", A)
    return EXIT_OK


def _item_from_config(entry: dict, position: int) -> verify.SuiteItem:
    try:
        check_id = entry["id"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"config entry {position} lacks an id") from exc
    if check_id not in verify.REGISTRY:
        raise ParameterError(f"unknown check id {check_id!r} in config entry {position}")
    f = g = phi = norm = None
    try:
        spec = EnsembleSpec(
            dim=entry["dim"],
            alpha_max=float(entry.get("alpha_max", 0.0)),
            m=float(entry.get("m", 1.0)),
            M=float(entry.get("M", 2.0)),
            count=entry.get("count", 200),
            seed=entry.get("seed", verify.DEFAULT_SEED),
        )
        if entry.get("function"):
            f = _build_function(entry["function"]["name"], entry["function"].get("param"))
        if entry.get("function_g"):
            g = _build_function(entry["function_g"]["name"], entry["function_g"].get("param"))
        if entry.get("map"):
            mp = entry["map"]
            flat = mp["variant"] in ("vector_state", "normalized_trace")
            phi = random_map(
                integer(mp.get("dim_in", spec.dim), "map dim_in"),
                integer(mp.get("dim_out", 1 if flat else spec.dim), "map dim_out"),
                mp["variant"],
                integer(mp.get("seed", spec.seed), "map seed"),
            )
        if entry.get("norm"):
            norm = NormKind.parse(entry["norm"])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            ParameterError) as exc:
        raise ParameterError(f"config entry {position} ({check_id}): {exc!r}") from exc
    return verify.SuiteItem(check=check_id, spec=spec, f=f, g=g, phi=phi, norm=norm)


def _report_payload(reports, with_timing: bool) -> dict:
    failed = [r.check for r in reports if not r.passed]
    return {
        "schema": REPORT_SCHEMA,
        "all_pass": not failed,
        "total_checks": len(reports),
        "failed": failed,
        "checks": [r.to_dict(with_timing=with_timing) for r in reports],
    }


def _cmd_suite(args) -> int:
    if args.default:
        items = verify.default_suite(samples=args.samples)
    elif args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        entries = config.get("checks") if isinstance(config, dict) else config
        if not isinstance(entries, list):
            raise ParameterError("config must be a list or {'checks': [...]}")
        items = [_item_from_config(entry, i) for i, entry in enumerate(entries)]
    else:
        raise ParameterError("suite requires --config FILE or --default")
    reports = verify.run_suite(items)
    payload = _report_payload(reports, with_timing=args.timings)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check:22s} dim={r.ensemble['dim']} "
              f"alpha={r.ensemble['alpha_max']:.4f} min_margin={r.min_margin:+.3e} "
              f"({r.elapsed_ms:.0f} ms)", file=sys.stderr)
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_SUITE_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The amm argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="amm",
        description="Matrix means and functional calculus for accretive matrices, "
                    "with a property-based verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a mean or matrix function")
    p.add_argument("--op", required=True, choices=list(_OPS))
    p.add_argument("--a", required=True, help="left operand (JSON matrix file)")
    p.add_argument("--b", help="right operand (JSON matrix file)")
    p.add_argument("--lambda", dest="lam", type=float, help="weight for geometric ops")
    p.add_argument("--t", type=float, help="weight for harmonic/arithmetic")
    p.add_argument("--fn", choices=list(funcalc.CATALOG_NAMES),
                   help="catalog function for sigma/func")
    p.add_argument("--param", type=float, help="function parameter")
    p.add_argument("--out", required=True, help="output JSON matrix file")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("angle", help="certify accretivity and sector data")
    p.add_argument("--a", required=True)
    p.set_defaults(handler=_cmd_angle)

    p = sub.add_parser("gen", help="generate a seeded sectorial ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("suite", help="run verification checks and write a JSON report")
    p.add_argument("--config", help="suite config JSON file")
    p.add_argument("--default", action="store_true", help="run the full built-in catalog")
    p.add_argument("--report", help="output report JSON file")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per configuration for --default")
    p.add_argument("--timings", action="store_true",
                   help="write wall-clock timings into the report "
                        "(loses byte-for-byte reproducibility)")
    p.set_defaults(handler=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ParameterError, InvalidInputError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
