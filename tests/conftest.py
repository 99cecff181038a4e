"""Shared test helpers.

The acceptance tests record one ``[PASS]``/``[FAIL]`` line per criterion in
``test_acceptance.VERDICT_LINES``; pytest's capture would otherwise hide
them on success, so the terminal summary echoes them.

``strict_json`` parses CLI and report output as RFC 8259 JSON: a bare
``NaN``, ``Infinity`` or ``-Infinity`` token fails the test.

``traced_peak`` is the working-memory measure of the memory-bound tests:
the peak of numpy's and Python's allocations, as tracemalloc sees them,
while one step builds its input and runs on it.
"""

import json
import sys
import tracemalloc


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    """``json.loads`` that rejects the non-finite tokens Python writes."""
    return json.loads(text, parse_constant=_reject_constant)


def traced_peak(make, step) -> int:
    """Peak bytes traced while ``step(make())`` runs, its input and result included."""
    tracemalloc.start()
    try:
        step(make())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
