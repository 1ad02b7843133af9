"""Shared fixtures."""

import collections
import sys

import pytest


@pytest.fixture
def check_calls(monkeypatch):
    """A counter of the calls of each ``require_*`` argument check, at every binding of it in the
    loaded boxkernel modules (the checks call one another through ``boxkernel.errors``)."""
    calls = collections.Counter()
    for name, module in list(sys.modules.items()):
        if name == "boxkernel" or name.startswith("boxkernel."):
            for attr, check in list(vars(module).items()):
                if attr.startswith("require_") and callable(check):
                    monkeypatch.setattr(module, attr, lambda *a, check=check, attr=attr, **k: calls.update([attr]) or check(*a, **k))
    return calls


@pytest.fixture
def array_sums(monkeypatch):
    """The calls of the path sums' array image sum, ``pathsum._array_values``: per call, its number of
    (pair, lambda) points and the type of the exception it raised, or None where it returned."""
    from boxkernel import pathsum

    calls = []
    array_values = pathsum._array_values

    def spy(nu, pairs, lambdas, config):
        try:
            values = array_values(nu, pairs, lambdas, config)
        except Exception as exc:
            calls.append((len(pairs) * len(lambdas), type(exc)))
            raise
        calls.append((len(pairs) * len(lambdas), None))
        return values

    monkeypatch.setattr(pathsum, "_array_values", spy)
    return calls
