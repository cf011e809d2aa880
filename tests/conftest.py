"""Shared pytest plumbing.

The acceptance tests record one verdict line per criterion; printing
them from a terminal-summary hook keeps them visible even though
pytest captures test output.

Every isometry that hermform.verify_isometry accepts anywhere in the
suite, directly or through classify, is checked to be invertible by
the inverse its proof names (support.assert_isometry_invertible): the
verdict rests on that proof, and this samples its conclusion.
"""

import pytest

from bsfour import hermform

from support import assert_isometry_invertible

ACCEPTANCE_VERDICTS = []


@pytest.fixture(autouse=True)
def accepted_isometries_are_invertible(monkeypatch):
    real = hermform.verify_isometry

    def checked(f, g, U):
        ok = real(f, g, U)
        if ok:
            assert_isometry_invertible(f, g, U)
        return ok

    monkeypatch.setattr(hermform, "verify_isometry", checked)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
