"""Shared pytest configuration: the `slow` marker, campaign-DB isolation,
and the gate that holds service probe jobs."""

import sys
import threading

import pytest

from repro.service import run_probe


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end experiment"
    )


@pytest.fixture(autouse=True)
def _isolated_campaign_db(tmp_path, monkeypatch):
    """Keep CLI invocations from writing a campaign DB into the repo.

    Subcommands without an ``--out`` directory default their campaign DB
    to the working directory; tests must never leave one behind there.
    """
    monkeypatch.setenv("REPRO_CAMPAIGN_DB", str(tmp_path / "campaign.sqlite"))


#: The gate ``_gated_probe`` waits on; the ``probe_gate`` fixture sets a
#: fresh one per test (a task's function must be module-level to be
#: cacheable, so it can only reach module-level state).
_PROBE_GATE = threading.Event()


def _gated_probe(*, preset="sct", ops=400, seed=0):
    """``run_probe`` that first waits for the test to open its gate."""
    if not _PROBE_GATE.wait(timeout=60):
        raise TimeoutError("the probe gate never opened")
    return run_probe(preset=preset, ops=ops, seed=seed)


@pytest.fixture
def probe_gate(monkeypatch):
    """Hold every probe job on a gate the test opens.

    A job blocked on an event holds its worker for exactly as long as
    the test needs, however slow the host or the interpreter mode, and
    leaves the GIL free for the event loop the test is talking to.
    """
    gate = threading.Event()
    monkeypatch.setattr(sys.modules[__name__], "_PROBE_GATE", gate)
    monkeypatch.setattr("repro.service.jobs.run_probe", _gated_probe)
    yield gate
    gate.set()  # never leave a job thread blocked behind a failed test
