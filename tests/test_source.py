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
