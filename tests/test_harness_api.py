"""The package names that ``bench/baseline.py`` calls still resolve.

The script reaches the public API by attribute (``wv.<name>``), so a name
trimmed from ``weakvalues`` would surface only when the script runs; this
test fails first.
"""

import ast
from pathlib import Path

import weakvalues as wv

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline.py"


def test_every_name_bench_baseline_calls_resolves():
    tree = ast.parse(BASELINE.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wv"}
    assert "weak_value_pure" in names  # the walk sees the calls
    assert sorted(name for name in names if not hasattr(wv, name)) == []
