"""Crash-isolated sharded campaign engine with a persistent result cache.

Every expensive workload in the repro — figure regeneration, fault
campaigns, leakcheck seed-sweeps, the bench suite — is a batch of
independent seeded runs.  This package executes such batches across
worker processes with deterministic results (serial and ``--jobs N``
runs are byte-identical), reaps crashed or hung workers and retries
their tasks, and memoises every successful run in a sqlite campaign DB
keyed by config hash + git revision so unchanged re-runs are served
from cache.  See ``docs/robustness.md``.
"""

from repro.campaign.db import CampaignDB, JobRow, RunRow, config_hash
from repro.campaign.engine import CampaignEngine, CampaignTask, cached_record
from repro.campaign.payload import (
    PayloadError,
    decode_payload,
    encode_payload,
)
from repro.campaign.records import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    BatchReport,
    TaskRecord,
)
from repro.campaign.worker import TEST_CRASH_ENV, TEST_CRASH_EXIT

__all__ = [
    "BatchReport",
    "CampaignDB",
    "CampaignEngine",
    "CampaignTask",
    "JobRow",
    "PayloadError",
    "RunRow",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "TEST_CRASH_ENV",
    "TEST_CRASH_EXIT",
    "TaskRecord",
    "cached_record",
    "config_hash",
    "decode_payload",
    "encode_payload",
]
