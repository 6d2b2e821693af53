"""The package's layering: each module's imports from ``pappa`` against one explicit table.

The bottom of the stack is strict: ``phases`` imports nothing from the
package, and ``gates`` and ``diagrams`` import only ``phases``; the
Jordan-Wigner dictionary, which needs both, lives in ``evaluator``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pappa"

LAYERS = {
    "phases": set(),
    "gates": {"phases"},
    "diagrams": {"phases"},
    "entangle": {"gates", "phases"},
    "evaluator": {"diagrams", "gates", "phases"},
    "clifford": {"evaluator", "gates", "phases"},
    "protocols": {"entangle", "evaluator", "gates", "phases"},
    "dsl": {"diagrams", "gates", "phases", "protocols"},
    "verify": {"clifford", "diagrams", "entangle", "evaluator", "gates", "phases", "protocols"},
    "cli": {"dsl", "evaluator", "gates", "phases", "protocols", "verify"},
    "__init__": {"clifford", "diagrams", "entangle", "evaluator", "gates", "phases", "protocols"},
}


def package_imports(path: Path) -> set[str]:
    """The ``pappa`` modules ``path`` imports, relative or absolute, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "pappa" and not (node.module or "").startswith("pappa."):
                continue
            base = (node.module or "").removeprefix("pappa").lstrip(".")
            found |= {base.split(".")[0]} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("pappa.")}
    return found


def test_the_table_lists_every_module():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_each_module_imports_exactly_its_row(module):
    assert package_imports(SRC / f"{module}.py") == LAYERS[module]


def test_the_table_has_no_cycle():
    left = {m: set(deps) for m, deps in LAYERS.items()}
    while left:
        ready = {m for m, deps in left.items() if not deps}
        assert ready, f"import cycle among {sorted(left)}"
        left = {m: deps - ready for m, deps in left.items() if m not in ready}
