"""Shared test helpers.

The acceptance tests record one ``[PASS]``/``[FAIL]`` line per criterion in
``test_acceptance.VERDICT_LINES``; pytest's capture would otherwise hide
them on success, so the terminal summary echoes them.

``strict_json`` parses CLI and report output as RFC 8259 JSON: a bare
``NaN``, ``Infinity`` or ``-Infinity`` token fails the test.
"""

import json
import sys


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    """``json.loads`` that rejects the non-finite tokens Python writes."""
    return json.loads(text, parse_constant=_reject_constant)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
