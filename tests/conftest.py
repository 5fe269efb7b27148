"""Shared pytest plumbing: the hypothesis profile, a cold structure
entry per test, the Gram formation counter, and acceptance verdicts for the
terminal summary."""

import pytest
from hypothesis import settings

from dsmsolve import linalg

# Derandomized, so every run draws the same examples; few of them, so the
# property tests stay a small part of the suite's runtime.
settings.register_profile("dsmsolve", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("dsmsolve")

VERDICTS: list[str] = []


@pytest.fixture(autouse=True)
def cold_structure_entry():
    """Every test starts with no ||A|| or Golub-Kahan basis kept from an
    earlier one (linalg._structure_entry), so that a test that counts
    products, or caps the basis, sees what its own calls build, whatever
    ran before it."""
    linalg._last_structure = None


@pytest.fixture
def formed_grams(monkeypatch) -> list:
    """The Gram triangles formed from here on, in order, each named by its
    side, "A A^T", the only one: every one is a dsyrk in linalg._gram_lower."""
    formed = []
    real = linalg._gram_lower

    def counting(M):
        formed.append("A A^T")
        return real(M)

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
