"""Shared fixtures: parsed corpus programs and one-stop analysis helpers."""

from __future__ import annotations

import pathlib

import pytest

from declassiflow.cfg import expand_loops, prune_dead_blocks
from declassiflow.frontier import all_frontiers, block_knowledge
from declassiflow.ir import parse_program
from declassiflow.knowledge import analyze_edges, project_to_original

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_ACCEPTANCE_LINES: list[str] = []


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.mir").read_text()


def fixture_program(name: str):
    return parse_program(fixture_text(name))


def dfa(function, summaries=None):
    """Expand, run the edge fixpoint and project: (expanded, projected map)."""
    ef = expand_loops(prune_dead_blocks(function))
    km = analyze_edges(ef, summaries or {})
    return ef, project_to_original(km, ef)


def dfa_blocks(function, summaries=None):
    ef, km = dfa(function, summaries)
    kb = block_knowledge(km)
    return ef, km, kb, all_frontiers(kb)


def record_acceptance(line: str):
    _ACCEPTANCE_LINES.append(line)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
