"""Run the usage examples embedded in the library docstrings."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize(
    "name",
    ["core", "lehmer", "slices", "inverse", "enumeration", "cli"],
)
def test_module_doctests(name):
    module = importlib.import_module(f"permcode.{name}")
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
