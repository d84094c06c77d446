import doctest
import importlib
import pkgutil

import pytest

import hopfcomb

MODULES = sorted(info.name for info in pkgutil.iter_modules(hopfcomb.__path__, "hopfcomb."))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
