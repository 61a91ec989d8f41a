"""Every layer module's `__all__` matches what the module defines.

A name listed but gone fails `from module import *`; a public function or
class defined but unlisted is an export nobody declared.  Both checks guard
deletions and renames.
"""

import importlib
import inspect

import pytest

LAYERS = ("basis", "weights", "quadrature", "coeffs", "kernel", "trace",
          "stochastic", "reports", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_listed_name_resolves(layer):
    module = importlib.import_module(f"stratrace.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_definition_is_listed(layer):
    module = importlib.import_module(f"stratrace.{layer}")
    defined = [name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [name for name in defined if name not in module.__all__] == []
