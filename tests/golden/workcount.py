"""Count the resolvent work of the default suite: solve_stack calls and their sum of K n^3.

Run from the repository root, with the sample count as the optional argument:

    PYTHONPATH=src python tests/golden/workcount.py 5

A refactor meant to do the same LAPACK work as its parent prints the same two
numbers; unlike a timing, they do not depend on the load of the host.
"""

from __future__ import annotations

import sys

from amm import funcalc, linalg, verify


def main(samples: int) -> None:
    calls, work = 0, 0

    def counting(stack):
        nonlocal calls, work
        calls, work = calls + 1, work + stack.shape[0] * stack.shape[-1] ** 3
        return linalg.solve_stack(stack)

    funcalc.solve_stack = verify.solve_stack = counting
    verify.run_suite(verify.default_suite(samples))
    print(f"{calls} solve_stack calls, sum K n^3 = {work:.3e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
