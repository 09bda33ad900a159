"""The package functions that the benchmark under ``perfbench/`` names.

``perfbench/spans.py`` wraps each function of ``LAYER_FUNCTIONS`` by name
for its traced pass, and ``perfbench/body.py`` times each link function
of ``LINK_FUNCTIONS``; a rename or deletion in ``src/`` breaks both.
The two tables are read from the files' source text, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from linkequiv import links

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _table(filename: str, name: str):
    """The literal value assigned to ``name`` at the top level of a
    perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


LAYER_FUNCTIONS = _table("spans.py", "LAYER_FUNCTIONS")


@pytest.mark.parametrize("layer", sorted(LAYER_FUNCTIONS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"linkequiv.{layer}")
    names = LAYER_FUNCTIONS[layer]
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"linkequiv.{layer} lacks {missing}"


def test_timed_link_functions_exist():
    names = _table("body.py", "LINK_FUNCTIONS")
    assert names
    missing = [name for name in names if not callable(getattr(links, name, None))]
    assert not missing, f"linkequiv.links lacks {missing}"
