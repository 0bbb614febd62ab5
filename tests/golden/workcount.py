"""Count the resolvent work of the default suite: solve_stack calls, their sum of K n^3
and the largest batch, and its eigh, eigvalsh, svd and qr calls.

Run from the repository root, with the sample count as the optional argument:

    PYTHONPATH=src python tests/golden/workcount.py 5

A refactor meant to do the same LAPACK work as its parent prints the same
numbers; unlike a timing, they do not depend on the load of the host.  The
largest batch, in complex entries K n^2 of one (K, n, n) stack, shows a
change of batching in the same way, and the eigh, eigvalsh, svd and qr
counts a change of certification work.  It also prints the sha256 of the
report that ``amm suite --default --samples N --report FILE`` writes, so a
byte-identical report is one command per side, and the counted lines of the
imported package: its non-blank lines whose first non-space character is not
``#``, in total and per module.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from amm import cli, funcalc, linalg, verify

# the numpy.linalg entry points, other than inv, that the package calls
LAPACK = ("eigh", "eigvalsh", "svd", "qr")


@contextmanager
def counted_solves():
    """Count, inside the block, the solve_stack calls of the amm package, their sum of K n^3
    and their largest K n^2.

    Every name in an amm module that refers to linalg.solve_stack is rebound,
    so a solve is counted whichever module makes it.  Yields a dict whose
    "calls", "work" and "largest" grow as the block runs.
    """
    tally = {"calls": 0, "work": 0, "largest": 0}
    solve = linalg.solve_stack

    def counting(stack):
        tally["calls"] += 1
        tally["work"] += stack.shape[0] * stack.shape[-1] ** 3
        tally["largest"] = max(tally["largest"], stack.size)
        return solve(stack)

    bindings = [(module, attr) for name, module in list(sys.modules.items())
                if name == "amm" or name.startswith("amm.")
                for attr, value in list(vars(module).items()) if value is solve]
    for module, attr in bindings:
        setattr(module, attr, counting)
    try:
        yield tally
    finally:
        for module, attr in bindings:
            setattr(module, attr, solve)


@contextmanager
def counted_lapack():
    """Count, inside the block, the calls of each LAPACK entry point by its name.

    Yields a dict whose values grow as the block runs.
    """
    tally = dict.fromkeys(LAPACK, 0)
    saved = {name: getattr(np.linalg, name) for name in LAPACK}

    def counting(name):
        def call(*args, **kwargs):
            tally[name] += 1
            return saved[name](*args, **kwargs)
        return call

    for name in LAPACK:
        setattr(np.linalg, name, counting(name))
    try:
        yield tally
    finally:
        for name, function in saved.items():
            setattr(np.linalg, name, function)


def counted_lines() -> dict:
    """Counted lines of each module of the imported amm package, by module name."""
    return {path.stem: sum(1 for line in path.read_text().splitlines()
                           if line.strip() and not line.lstrip().startswith("#"))
            for path in sorted(Path(funcalc.__file__).parent.glob("*.py"))}


def main(samples: int) -> None:
    with counted_solves() as tally, counted_lapack() as lapack:
        reports = verify.run_suite(verify.default_suite(samples))
    print(f"{tally['calls']} solve_stack calls, sum K n^3 = {tally['work']:.3e}, "
          f"largest batch {tally['largest']} entries")
    print("LAPACK calls: " + ", ".join(f"{name} {count}" for name, count in lapack.items()))
    # the bytes cli._cmd_suite writes for --report without --timings
    text = json.dumps(cli._report_payload(reports, with_timing=False), indent=2) + "\n"
    print(f"report sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    lines = counted_lines()
    print(f"counted lines {sum(lines.values())}: "
          + ", ".join(f"{name} {count}" for name, count in lines.items()))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
