"""Shared pytest plumbing: the hypothesis profile, the Gram formation
counter, and acceptance verdicts for the terminal summary."""

import pytest
from hypothesis import settings

from dsmsolve import linalg

# Derandomized, so every run draws the same examples; few of them, so the
# property tests stay a small part of the suite's runtime.
settings.register_profile("dsmsolve", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("dsmsolve")

VERDICTS: list[str] = []


@pytest.fixture
def formed_grams(monkeypatch) -> list:
    """The Gram triangles formed from here on, in order, each named by its
    side, "A^T A" or "A A^T": every one is a dsyrk in linalg._gram_lower."""
    formed = []
    real = linalg._gram_lower

    def counting(M, right):
        formed.append("A A^T" if right else "A^T A")
        return real(M, right)

    monkeypatch.setattr(linalg, "_gram_lower", counting)
    return formed


def record_verdict(line: str) -> None:
    """Stash one acceptance verdict line for the end-of-run summary."""
    VERDICTS.append(line)


@pytest.hookimpl
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
