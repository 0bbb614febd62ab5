"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

from amm import funcalc, linalg


@pytest.fixture
def replace_everywhere(monkeypatch):
    """replace(function, replacement) rebinds every amm module's name for function.

    A module that imported the function by name holds a binding of its own,
    so a recorder set on one module alone misses the calls made from others.
    """
    def replace(function, replacement):
        for name, module in list(sys.modules.items()):
            if name == "amm" or name.startswith("amm."):
                for attr, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, attr, replacement)
    return replace


@pytest.fixture
def record_solves(replace_everywhere):
    """record() starts counting the stacks solve_stack inverts, from anywhere in amm.

    It returns the list that each call then appends its stack's length to.
    """
    def record():
        batches, solve = [], linalg.solve_stack

        def counting(stack):
            batches.append(len(stack))
            return solve(stack)

        replace_everywhere(solve, counting)
        return batches
    return record


@pytest.fixture
def nan_sigma(monkeypatch):
    """funcalc._sigma, with a NaN in the first entry of its first sample."""
    sigma = funcalc._sigma

    def with_nan(*args, **kwargs):
        X, plan = sigma(*args, **kwargs)
        X = np.array(X)
        X.reshape(-1, *X.shape[-2:])[0, 0, 0] = np.nan
        return X, plan

    monkeypatch.setattr(funcalc, "_sigma", with_nan)
