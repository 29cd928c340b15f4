"""Each module's ``__all__`` is its export list: every public function and
class the module defines is on it, and every name on it resolves."""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

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


def test_benchmark_layer_rows_resolve():
    # a per-layer row <module>.<function>.<calls|self_s> traces that
    # function; the two unresolved rows name functions since removed,
    # whose rows await the benchmark's next revision
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json")
                      .read_text())
    rows = {tuple(row["name"].split(".")[:2]) for row in spec["per_layer"]
            if row["name"].count(".") == 2
            and row["name"].endswith((".calls", ".self_s"))}
    unresolved = sorted(
        f"{module}.{function}" for module, function in rows
        if not hasattr(importlib.import_module(f"qfp.{module}"), function))
    assert unresolved == ["constellations.encode_ring",
                          "montecarlo.derive_trial_rng"]
