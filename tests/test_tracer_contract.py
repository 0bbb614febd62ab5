"""The benchmark tracer (bench/tracing.py) rebinds amm functions by name.

It fails only in a traced benchmark run when one of those names is renamed
or deleted, so this test resolves every traced name and the result
attributes its count hooks read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from amm.funcalc import choose_contour, gauss_jacobi_rule
from amm.linalg import solve_stack
from amm.verify import run_check

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("amm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TRACED = [entry[:2] for entry in tracing.SPANNED] + list(tracing.COUNTED)


@pytest.mark.parametrize("modname, fname", TRACED, ids=[".".join(e) for e in TRACED])
def test_traced_name_resolves(modname, fname):
    assert callable(getattr(importlib.import_module("amm." + modname), fname))


def test_count_hooks_read_existing_attributes():
    assert gauss_jacobi_rule(0.0, 0.0, 8).order == 8
    assert choose_contour(np.diag([1.0, 2.0 + 0.5j])).nodes > 0
    # the hooks take these arguments by name when they are passed as keywords
    assert next(iter(inspect.signature(solve_stack).parameters)) == "stack"
    assert next(iter(inspect.signature(run_check).parameters)) == "check_id"
