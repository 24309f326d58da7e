import pytest

from nks3 import nkspace as nk

ACCEPTANCE_LINES = []


def record_criterion(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def scale_J(monkeypatch):
    """Negative-control hook: `scale_J(s)` multiplies the almost complex
    structure by `s` in both of its forms as the identity suite reads them,
    `nkspace`'s binding of the frame matrix `J_MAT` and the ambient operator
    `apply_J`, for the rest of the test.  `frame.J_MAT`, which the grid code
    reads, is left alone."""
    apply_J = nk.apply_J

    def scale(s):
        monkeypatch.setattr(nk, "J_MAT", s * nk.J_MAT)
        monkeypatch.setattr(nk, "apply_J", lambda Z: s * apply_J(Z))

    return scale
