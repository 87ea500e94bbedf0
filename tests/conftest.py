"""Shared test plumbing: the acceptance-criteria summary block, and the
benchmark's workloads module loaded by path."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mucone

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion and enforce its budget."""

    def record(num, label, ok, elapsed, budget):
        word = "PASS" if (ok and elapsed < budget) else "FAIL"
        ACCEPTANCE_LINES.append(
            f"criterion {num} [{label}]: {word} "
            f"({elapsed:.2f}s, budget {budget:g}s)")
        assert ok, f"criterion {num} ({label}) failed"
        assert elapsed < budget, (
            f"criterion {num} ({label}) over budget: "
            f"{elapsed:.2f}s >= {budget}s")

    return record


@pytest.fixture
def bench_workloads(monkeypatch):
    """(bench/workloads.py loaded by path, the namespace its workloads take).
    The namespace holds the package this suite imported, and the module is
    registered in sys.modules while the test runs: its dataclasses look
    their module up there."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads, SimpleNamespace(pkg=mucone, **{name: getattr(mucone, name)
                                                     for name in workloads.MODULES})
