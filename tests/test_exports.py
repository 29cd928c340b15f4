"""Each module's ``__all__`` is its export list: every public function and
class the module defines is on it, and every name on it resolves."""

import importlib
import inspect
import pkgutil

import pytest

import qfp

MODULES = sorted(info.name for info in pkgutil.iter_modules(qfp.__path__))


def test_only_the_cli_has_no_export_list():
    # the command-line entry point is run, not imported from
    missing = [name for name in MODULES
               if not hasattr(importlib.import_module(f"qfp.{name}"),
                              "__all__")]
    assert missing == ["cli"]


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_export_list_matches_definitions(name):
    module = importlib.import_module(f"qfp.{name}")
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
