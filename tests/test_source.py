"""Source-level checks on `src/nks3`."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nks3"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_certificates_fail_only_through_gate(path):
    # a certificate fails only as `nkspace.gate(..., error=CertificateError)`,
    # whose comparison fails closed on NaN; a hand-written raise could not
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "CertificateError"
    ]
    assert calls == [], f"{path.name} calls CertificateError(...) on lines {calls}"


def test_potential_is_derived_only_in_its_grid_class():
    # every other stage reads `HSurfaceGrid.partials` and `.laplacian`, so
    # no command differentiates a potential twice
    path = SRC / "hsystem.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "HSurfaceGrid")
    inside = {id(n) for n in ast.walk(cls)}

    def derives(node):
        f = getattr(node, "func", None)
        if isinstance(f, ast.Attribute):
            return f.attr == "gradient" and getattr(f.value, "id", None) == "np"
        return isinstance(f, ast.Name) and f.id == "second_derivative"

    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and derives(n)]
    assert calls
    stray = [n.lineno for n in calls if id(n) not in inside]
    assert stray == [], f"hsystem.py derives a potential outside HSurfaceGrid on lines {stray}"
