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
