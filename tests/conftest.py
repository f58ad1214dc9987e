"""Shared pytest configuration: the `slow` marker, campaign-DB isolation."""

import pytest


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
