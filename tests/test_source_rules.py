"""Rules that hold for the package source as a whole."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpauction"


def test_no_assert_statements():
    """`python -O` strips asserts, so a guard on a verdict must raise
    (InternalError) instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/gpauction: {found}"
