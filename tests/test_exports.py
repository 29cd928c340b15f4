"""Each module's ``__all__`` is its export list: every public function and
class the module defines is on it, every name on it resolves, and every name
on it is read in the package or is one of the stated unread exports.  The
count laws are defined in one module, and no code compares a family's
name."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import qfp
from qfp.leakage import FAMILIES

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


COUNT_LAWS = {"_TAIL_MASS", "_count_law_size", "_poisson_pmf",
              "_log_poisson_tail_bound", "_typical_tail", "_click_total_pmf",
              "_difference_law", "log_binom_sf", "log_binom_cdf"}


def _module_tree(name: str) -> ast.Module:
    return ast.parse(Path(qfp.__file__).with_name(f"{name}.py").read_text())


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines at its top level: functions, classes and
    assignment targets (imports bind a name but define nothing)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {target.id for target in targets
                      if isinstance(target, ast.Name)}
    return names


def test_count_laws_defined_only_in_analysis():
    homes = {name: sorted(module for module in MODULES
                          if name in _top_level_names(_module_tree(module)))
             for name in COUNT_LAWS}
    assert homes == {name: ["analysis"] for name in COUNT_LAWS}


def test_montecarlo_imports_nothing_from_leakage():
    # the modules it imports from, and those it imports whole
    sources = set()
    for node in ast.walk(_module_tree("montecarlo")):
        if isinstance(node, ast.ImportFrom):
            sources.add(node.module or "")
            if node.module in (None, "qfp"):  # from . import <module>
                sources |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            sources |= {alias.name for alias in node.names}
    assert not [s for s in sources if s.split(".")[-1] == "leakage"], sources


# exports no code in the package reads, only tests and the benchmark
UNREAD_EXPORTS = {
    # read by the benchmark, apart from tests
    "no_click_prob", "ring_worst_case_error", "signal_click_probs",
    # test oracles whose job another function now does
    "lambda_interpolation", "lambda_ring_series",
    # oracles by design
    "interpolation_state_vector", "asymptotic_bound",
    "beamsplitter_click_probs", "optimal_projector_error",
    "qubit_from_coherent",
}


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads: the names it loads, and the attributes it
    loads off a module of the package (``leakage.FAMILIES``)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)
               and isinstance(node.value, ast.Name)
               and node.value.id in MODULES})


def test_every_export_is_read_or_stated_unread():
    # the stated list is exactly the unread exports, so a name that starts
    # being read leaves it
    read = set().union(*(_names_read(_module_tree(name)) for name in MODULES))
    exported = {attr for name in MODULES if name != "cli"
                for attr in importlib.import_module(f"qfp.{name}").__all__}
    assert exported - read == UNREAD_EXPORTS


def _family_name_comparisons(tree: ast.Module) -> list[str]:
    """Each ==, !=, in or not in comparison with a ``FAMILIES`` key among
    its operands or among the items of a literal tuple, list or set."""
    def items(operand):
        if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
            return operand.elts
        return [operand]

    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in node.ops)):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(item, ast.Constant) and item.value in FAMILIES
               for operand in operands for item in items(operand)):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_code_compares_a_family_name():
    # a family's differences live in its FAMILIES record, so code reads a
    # field of the record instead of testing which family it has
    found = {path.name: _family_name_comparisons(ast.parse(path.read_text()))
             for path in sorted(Path(qfp.__file__).parent.glob("*.py"))}
    assert {name: rows for name, rows in found.items() if rows} == {}
