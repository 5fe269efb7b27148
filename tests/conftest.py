"""Shared pytest plumbing: the hypothesis profile, and acceptance verdicts for
the terminal summary."""

import pytest
from hypothesis import settings

# Derandomized, so every run draws the same examples; few of them, so the
# property tests stay a small part of the suite's runtime.
settings.register_profile("dsmsolve", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("dsmsolve")

VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    """Stash one acceptance verdict line for the end-of-run summary."""
    VERDICTS.append(line)


@pytest.hookimpl
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
