"""The package's surface: what ``bench/baseline.py`` calls, how many names and values a caller can set.

The script reaches the public API by attribute (``wv.<name>``), so a name
trimmed from ``weakvalues`` would surface only when the script runs; the
first test fails first. The second counts the names ``weakvalues`` exports,
its submodules aside. The third counts the settable values: parameters
with a default plus defaulted dataclass fields, over every function and
dataclass in the ``__all__`` of the eight modules (other classes and
instances are skipped). Neither count may pass its ceiling; a change that
needs a new name or settable value raises the ceiling in the same diff and
says why in CHANGES.md.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import weakvalues as wv

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline.py"
MODULES = ("core", "invariants", "quasiprob", "witness", "contextuality", "pointer", "explore", "cli")
NAME_CEILING = 53
SETTABLE_CEILING = 11


def test_every_name_bench_baseline_calls_resolves():
    tree = ast.parse(BASELINE.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wv"}
    assert "weak_value_pure" in names  # the walk sees the calls
    assert sorted(name for name in names if not hasattr(wv, name)) == []


def test_public_names_stay_under_the_ceiling():
    names = [name for name, obj in vars(wv).items() if not name.startswith("_") and not inspect.ismodule(obj)]
    assert len(names) <= NAME_CEILING, f"{len(names)} public names, above the ceiling of {NAME_CEILING}"


def test_settable_values_stay_under_the_ceiling():
    total = 0
    for name in MODULES:
        module = importlib.import_module(f"weakvalues.{name}")
        for obj in (getattr(module, key) for key in module.__all__):
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                total += sum(f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                             for f in dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                total += sum(p.default is not p.empty for p in inspect.signature(obj).parameters.values())
    assert total <= SETTABLE_CEILING, f"{total} settable values, above the ceiling of {SETTABLE_CEILING}"
