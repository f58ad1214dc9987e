"""Tests for the fault-tolerant leakcheck service.

Three layers: unit tests on the job model (state machine, spec
validation), in-process asyncio tests against a real ``LeakcheckService``
on a loopback port (admission control, dedup, cancel, drain, journal
resume), and subprocess tests of ``repro serve`` proving the two
headline guarantees — an accepted job survives ``kill -9`` of the
server, and SIGTERM/SIGINT drain exits 0 without losing anything.
"""

import asyncio
import contextlib
import gc
import http.client
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import weakref

import pytest

import repro
from repro.campaign import CampaignDB
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    Job,
    JobStateError,
    LeakcheckService,
    build_job_tasks,
    format_load_report,
    http_request,
    job_kinds,
    run_load,
    run_probe,
)

_SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Probe sizes calibrated against the probe's ~600k accesses/s on a
#: 2-vCPU VM: FAST finishes in well under 100 ms, SLOW (the largest probe
#: a job spec admits) holds a worker for over a second — long enough to
#: reliably kill or drain the server mid-job, or to outlast a 0.3 s job
#: timeout.
FAST_OPS = 200
SLOW_OPS = 1_000_000


def _svc(db_path, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("concurrency", 1)
    return LeakcheckService(str(db_path), **kwargs)


async def _poll_terminal(host, port, job_id, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, _, data = await http_request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200, data
        if data["state"] in TERMINAL_STATES:
            return data
        await asyncio.sleep(0.03)
    raise AssertionError(f"job {job_id} never reached a terminal state")


async def _poll_running(host, port, job_id, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        _, _, data = await http_request(host, port, "GET", f"/jobs/{job_id}")
        if data["state"] == RUNNING:
            break
        await asyncio.sleep(0.01)
    assert data["state"] == RUNNING


# -- job model -------------------------------------------------------------


class TestJobStateMachine:
    def test_normal_lifecycle(self):
        job = Job(id="j", kind="probe", spec={})
        assert job.state == QUEUED and not job.terminal
        job.advance(RUNNING)
        job.advance(DONE)
        assert job.terminal

    def test_terminal_states_are_sticky(self):
        job = Job(id="j", kind="probe", spec={}, state=DONE)
        for target in (QUEUED, RUNNING, CANCELLED):
            with pytest.raises(JobStateError):
                job.advance(target)

    def test_illegal_transitions_raise(self):
        job = Job(id="j", kind="probe", spec={})
        with pytest.raises(JobStateError):
            job.advance("timeout")  # queued jobs cannot time out
        with pytest.raises(JobStateError):
            job.advance("no-such-state")

    def test_queued_can_be_cancelled_or_cache_served(self):
        for target in (CANCELLED, DONE):
            job = Job(id="j", kind="probe", spec={})
            job.advance(target)
            assert job.terminal


class TestJobSpecs:
    def test_probe_spec_normalises_and_names_deterministically(self):
        spec, tasks = build_job_tasks("probe", {"ops": 50, "seed": 3})
        assert spec == {"preset": "sct", "ops": 50, "seed": 3}
        assert len(tasks) == 1
        assert tasks[0].name == "probe_sct_o50_s3"
        repeat, _ = build_job_tasks("probe", {"seed": 3, "ops": 50})
        assert repeat == spec

    def test_leakcheck_spec_expands_seeds_to_cli_compatible_tasks(self):
        from repro.leakcheck import run_leakcheck

        _, tasks = build_job_tasks(
            "leakcheck", {"victim": "rsa", "seed": 5, "seeds": 3}
        )
        assert [t.name for t in tasks] == [
            "leakcheck_rsa_s5", "leakcheck_rsa_s6", "leakcheck_rsa_s7"
        ]
        assert all(t.fn is run_leakcheck for t in tasks)

    def test_malformed_specs_are_rejected(self):
        bad = [
            ("probe", {"ops": 0}),
            ("probe", {"ops": "many"}),
            ("probe", {"ops": True}),
            ("probe", {"preset": "enigma"}),
            ("leakcheck", {"victim": "nonexistent"}),
            ("leakcheck", {"victim": "rsa", "alpha": 2.0}),
            ("leakcheck", {"victim": "rsa", "seeds": 0}),
            ("bench", {"scenario": "nope"}),
            ("mine-bitcoin", {}),
        ]
        for kind, spec in bad:
            with pytest.raises(ValueError):
                build_job_tasks(kind, spec)
        with pytest.raises(ValueError):
            build_job_tasks("probe", "not-a-dict")

    def test_job_kinds_are_one_list(self):
        """``bench`` is not a job kind, and ``service-load --kind`` offers
        exactly the kinds the service accepts."""
        import argparse

        from repro.cli import build_parser

        for kind in ("bench", ["probe"]):
            with pytest.raises(ValueError, match="unknown job kind"):
                build_job_tasks(kind, {"scenario": "steady_sct"})
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        load = commands.choices["service-load"]
        kind = next(action for action in load._actions
                    if action.dest == "kind")
        assert kind.choices == job_kinds() == ["probe", "leakcheck", "synth"]

    def test_run_probe_is_deterministic_in_simulated_columns(self):
        first = run_probe(ops=60, seed=9)
        second = run_probe(ops=60, seed=9)
        assert first == second
        assert first["accesses"] == 61
        assert run_probe(ops=60, seed=10) != first


# -- in-process service ----------------------------------------------------


class TestServiceHTTP:
    def test_submit_poll_done_and_dedup(self, tmp_path):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            host, port = service.host, service.port

            status, _, health = await http_request(host, port, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
            status, _, ready = await http_request(host, port, "GET", "/readyz")
            assert (status, ready["status"]) == (200, "ready")

            spec = {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}}
            status, _, job = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 202 and job["state"] == QUEUED
            final = await _poll_terminal(host, port, job["id"])
            assert final["state"] == DONE
            assert final["result"]["ok"] == 1
            assert not final["cached"]

            # An identical resubmission is served from the campaign cache
            # synchronously: 200 (not 202), already done, no execution.
            status, _, dup = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 200
            assert dup["state"] == DONE and dup["cached"]
            assert dup["id"] != job["id"]

            status, _, text = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert "repro_service_dedup_hits_total 1" in text
            assert "repro_service_admitted_total 2" in text
            await service.close()

        asyncio.run(scenario())

    def test_cli_leakcheck_run_serves_the_same_service_job(self, tmp_path):
        """``repro leakcheck`` and a service leakcheck job with the same
        victim, seed and alpha build the same tasks: one cache entry."""
        from repro.cli import main

        db = tmp_path / "c.sqlite"
        assert main([
            "leakcheck", "--victim", "const", "--seed", "3", "--alpha", "0.02",
            "--campaign-db", str(db),
        ]) == 0

        async def scenario():
            service = _svc(db)
            await service.start()
            spec = {
                "kind": "leakcheck",
                "spec": {"victim": "const", "seed": 3, "alpha": 0.02},
            }
            status, _, job = await http_request(
                service.host, service.port, "POST", "/jobs", spec
            )
            assert status == 200
            assert job["state"] == DONE and job["cached"]
            await service.close()

        asyncio.run(scenario())

    def test_job_timeout_kills_the_jobs_worker(self, tmp_path):
        # With a job timeout the job's engine forks one worker and kills
        # it when the budget expires: nothing keeps running in the server.
        before = set(threading.enumerate())

        async def scenario():
            service = _svc(tmp_path / "c.sqlite", job_timeout=0.3)
            await service.start()
            host, port = service.host, service.port
            spec = {"kind": "probe", "spec": {"ops": SLOW_OPS, "seed": 1}}
            status, _, job = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 202
            final = await _poll_terminal(host, port, job["id"])
            assert final["state"] == TIMEOUT
            assert "timed out after 0.3s" in final["error"]
            await service.close()

        asyncio.run(scenario())
        assert set(threading.enumerate()) == before
        assert multiprocessing.active_children() == []

    def test_bad_requests_are_structured_errors(self, tmp_path):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            host, port = service.host, service.port
            status, _, err = await http_request(
                host, port, "POST", "/jobs", {"kind": "probe", "spec": {"ops": 0}}
            )
            assert status == 400 and "ops" in err["error"]
            for spec, valid in (
                ({"preset": "enigma"}, "valid presets: ht, sct, sgx"),
                ({"defense": "moat"},
                 "valid defenses: isolated_trees, none, split_llc"),
                ({"defense": ["none"]}, "valid defenses"),
            ):
                status, _, err = await http_request(
                    host, port, "POST", "/jobs", {"kind": "synth", "spec": spec}
                )
                assert status == 400 and valid in err["error"], err
            status, _, err = await http_request(host, port, "GET", "/jobs/ghost")
            assert status == 404
            status, _, err = await http_request(host, port, "PUT", "/jobs")
            assert status == 405
            status, _, err = await http_request(host, port, "GET", "/teapot")
            assert status == 404
            await service.close()

        asyncio.run(scenario())

    def test_admission_control_sheds_with_429_and_retry_after(
        self, tmp_path, probe_gate
    ):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite", capacity=1)
            await service.start()
            host, port = service.host, service.port
            # Occupy the single worker until the gate opens...
            _, _, slow = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            await _poll_running(host, port, slow["id"])
            # ...fill the queue to capacity...
            status, _, queued = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 2}},
            )
            assert status == 202
            # ...and the next submission is shed, not buffered.
            status, headers, shed = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 3}},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert shed["capacity"] == 1
            status, _, text = await http_request(host, port, "GET", "/metrics")
            assert "repro_service_shed_total 1" in text
            probe_gate.set()
            await _poll_terminal(host, port, queued["id"])
            await service.close()

        asyncio.run(scenario())

    def test_queued_job_can_be_cancelled(self, tmp_path, probe_gate):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            host, port = service.host, service.port
            # The gated job holds the single worker, so the next one
            # stays queued until the gate opens.
            _, _, slow = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            _, _, victim = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 2}},
            )
            status, _, cancelled = await http_request(
                host, port, "DELETE", f"/jobs/{victim['id']}"
            )
            assert status == 200 and cancelled["state"] == CANCELLED
            # Cancelling a terminal job is a conflict, not a state change.
            status, _, again = await http_request(
                host, port, "DELETE", f"/jobs/{victim['id']}"
            )
            assert status == 409
            probe_gate.set()
            await _poll_terminal(host, port, slow["id"])
            await service.close()
            with CampaignDB(tmp_path / "c.sqlite") as db:
                row = db.journal_get(victim["id"])
            assert row.state == CANCELLED

        asyncio.run(scenario())

    def test_journal_resume_reruns_pending_jobs(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        # Simulate a crashed server: journalled jobs stuck mid-flight.
        with CampaignDB(db_path) as db:
            spec = json.dumps({"preset": "sct", "ops": FAST_OPS, "seed": 7})
            db.journal_put(job_id="stuck-queued", kind="probe", spec=spec,
                           state="queued")
            spec2 = json.dumps({"preset": "sct", "ops": FAST_OPS, "seed": 8})
            db.journal_put(job_id="stuck-running", kind="probe", spec=spec2,
                           state="running")

        async def scenario():
            service = _svc(db_path)
            await service.start()
            host, port = service.host, service.port
            for job_id in ("stuck-queued", "stuck-running"):
                final = await _poll_terminal(host, port, job_id)
                assert final["state"] == DONE
                assert final["resumed"]
            status, _, text = await http_request(host, port, "GET", "/metrics")
            assert "repro_service_resumed_total 2" in text
            await service.close()

        asyncio.run(scenario())
        with CampaignDB(db_path) as db:
            assert db.journal_pending() == []
            assert {row.state for row in db.journal_jobs()} == {DONE}

    def test_drain_checkpoints_queued_jobs_and_stops_admitting(
        self, tmp_path, probe_gate
    ):
        db_path = tmp_path / "c.sqlite"

        async def scenario():
            service = _svc(db_path)
            await service.start()
            host, port = service.host, service.port
            _, _, slow = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            await _poll_running(host, port, slow["id"])
            _, _, queued = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 2}},
            )
            service.begin_drain()
            status, _, ready = await http_request(host, port, "GET", "/readyz")
            assert status == 503 and ready["status"] == "draining"
            status, _, _err = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 3}},
            )
            assert status == 503
            probe_gate.set()
            await service.wait_closed()
            snap = service.registry.snapshot()
            assert snap["drained"] == 1
            await service.close()
            return slow["id"], queued["id"]

        slow_id, queued_id = asyncio.run(scenario())
        with CampaignDB(db_path) as db:
            # The running job finished; the queued one was checkpointed
            # and will be resumed by the next start().
            assert db.journal_get(slow_id).state == DONE
            assert db.journal_get(queued_id).state == QUEUED
            assert [row.id for row in db.journal_pending()] == [queued_id]

    def test_forced_drain_records_the_run_and_restart_serves_it(
        self, tmp_path, probe_gate
    ):
        """A job still running when the drain gives up is not journalled
        terminal, but its campaign run lands before the DB closes, so a
        restart finishes the job from the cache instead of re-running it."""
        db_path = tmp_path / "c.sqlite"

        async def first_run():
            service = _svc(db_path, drain_grace=0.05)
            await service.start()
            host, port = service.host, service.port
            _, _, job = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            await _poll_running(host, port, job["id"])
            service.begin_drain()
            await service.wait_closed()
            assert service.drain_report["forced_stop"] == 1
            # Close before the job can finish: the DB it records its run
            # through must outlive it.
            closing = asyncio.ensure_future(service.close())
            await asyncio.sleep(0.05)
            probe_gate.set()
            await closing
            return job["id"]

        job_id = asyncio.run(first_run())
        with CampaignDB(db_path) as db:
            assert db.journal_get(job_id).state == RUNNING
            runs = db.runs()
        assert [(run.name, run.status) for run in runs] == [
            (f"probe_sct_o{FAST_OPS}_s1", "ok")
        ]

        async def restart():
            service = _svc(db_path)
            await service.start()
            final = await _poll_terminal(service.host, service.port, job_id)
            await service.close()
            return final

        final = asyncio.run(restart())
        assert final["state"] == DONE
        assert final["cached"] and final["resumed"]
        with CampaignDB(db_path) as db:
            assert len(db) == 1  # served from the cache, not executed again

    def test_undecodable_stored_run_is_not_served_at_admission(
        self, tmp_path
    ):
        """A stored ``ok`` run whose payload does not decode is a miss at
        admission, as it is in the engine: the job is queued and runs."""
        db_path = tmp_path / "c.sqlite"
        spec = {"preset": "sct", "ops": FAST_OPS, "seed": 1}
        _, (task,) = build_job_tasks("probe", spec)
        with CampaignDB(db_path) as db:
            db.record_run(
                config_hash=task.config_hash, git_rev="r1", name=task.name,
                seed=None, status="ok", attempts=1, elapsed=0.1,
                payload=json.dumps({"__repro__": "dataclass",
                                    "type": "repro.nope:Gone", "fields": {}}),
            )

        async def scenario():
            service = _svc(db_path, git_rev="r1")
            await service.start()
            status, _, job = await http_request(
                service.host, service.port, "POST", "/jobs",
                {"kind": "probe", "spec": spec},
            )
            assert status == 202
            final = await _poll_terminal(service.host, service.port,
                                         job["id"])
            await service.close()
            return final

        final = asyncio.run(scenario())
        assert final["state"] == DONE and not final["cached"]
        assert final["result"]["tasks"][0]["result"] == run_probe(**spec)

    def test_journal_read_back_matches_the_live_job(self, tmp_path):
        """After a restart, ``GET`` of a finished job answers what it did
        live, for an executed job and for a dedup-served one."""
        db_path = tmp_path / "c.sqlite"
        spec = {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}}

        async def first_life():
            service = _svc(db_path)
            await service.start()
            host, port = service.host, service.port
            _, _, job = await http_request(host, port, "POST", "/jobs", spec)
            executed = await _poll_terminal(host, port, job["id"])
            status, _, dup = await http_request(host, port, "POST", "/jobs",
                                                spec)
            assert status == 200
            _, _, served = await http_request(host, port, "GET",
                                              f"/jobs/{dup['id']}")
            await service.close()
            return [executed, served]

        async def second_life(job_ids):
            service = _svc(db_path)
            await service.start()
            jobs = []
            for job_id in job_ids:
                status, _, job = await http_request(
                    service.host, service.port, "GET", f"/jobs/{job_id}"
                )
                assert status == 200
                jobs.append(job)
            await service.close()
            return jobs

        live = asyncio.run(first_life())
        assert [job["cached"] for job in live] == [False, True]
        read_back = asyncio.run(second_life([job["id"] for job in live]))
        for before, after in zip(live, read_back):
            assert after.keys() == before.keys()
            for key in ("trace_id", "cached", "state", "spec", "result"):
                assert after[key] == before[key], key

    def test_cancel_of_a_job_only_the_journal_holds_is_a_conflict(
        self, tmp_path
    ):
        db_path = tmp_path / "c.sqlite"
        with CampaignDB(db_path) as db:
            db.journal_put(job_id="finished", kind="probe", spec="{}",
                           state=DONE)

        async def scenario():
            service = _svc(db_path)
            await service.start()
            reply = await http_request(service.host, service.port,
                                       "DELETE", "/jobs/finished")
            await service.close()
            return reply

        status, _, conflict = asyncio.run(scenario())
        assert status == 409 and conflict["job"]["state"] == DONE
        with CampaignDB(db_path) as db:
            assert db.journal_get("finished").state == DONE

    def test_load_generator_drives_all_jobs_to_done(self, tmp_path):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite", concurrency=2, capacity=4)
            await service.start()
            report = await run_load(
                service.host, service.port, jobs=6, concurrency=6,
                spec={"ops": FAST_OPS},
            )
            await service.close()
            return report

        report = asyncio.run(scenario())
        assert report.ok, report.to_dict()
        assert report.accepted == 6
        assert report.states == {DONE: 6}
        assert report.jobs_per_second > 0
        text = format_load_report(report)
        assert "verdict            OK" in text

    def test_service_validates_arguments(self, tmp_path):
        for kwargs in (
            {"capacity": 0}, {"concurrency": 0}, {"engine_jobs": 0},
            {"drain_grace": 0.0}, {"job_timeout": 0.0}, {"retries": -1},
            # Waits its engines would refuse: a service with backoff -1
            # used to start and then fail every job.
            {"backoff": -1.0}, {"backoff": float("nan")},
            {"backoff": float("inf")}, {"job_timeout": float("inf")},
            {"job_timeout": 1e10},
        ):
            with pytest.raises(ValueError):
                LeakcheckService(str(tmp_path / "c.sqlite"), **kwargs)


class TestWorkPerJob:
    """What one executed job costs the service beyond the task itself."""

    def test_one_connection_and_one_encoding_per_result(
        self, tmp_path, monkeypatch
    ):
        import sqlite3

        from repro.campaign import engine as engine_module
        from repro.campaign.payload import encode_payload
        from repro.service import jobs as jobs_module
        from repro.service import server as server_module

        connects = []
        real_connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            connects.append(args[0])
            return real_connect(*args, **kwargs)

        # The engine encodes results to store them and the job summary
        # encodes them when no stored text exists: those are the only
        # result encodings on the job path.
        encoded = []

        def counting_encode(obj):
            encoded.append(obj)
            return encode_payload(obj)

        summarized = []
        real_summarize = jobs_module.summarize_records

        def recording_summarize(records):
            outcome = real_summarize(records)
            summarized.append((list(records), outcome[1]))
            return outcome

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        monkeypatch.setattr(engine_module, "encode_payload", counting_encode)
        monkeypatch.setattr(jobs_module, "encode_payload", counting_encode)
        monkeypatch.setattr(server_module, "summarize_records",
                            recording_summarize)

        # Three one-seed jobs execute one task each; the last job's
        # first seed is the third job's, so it mixes a cache-served
        # record with an executed one.
        specs = [
            {"victim": "const", "seed": 0},
            {"victim": "const", "seed": 1},
            {"victim": "const", "seed": 2},
            {"victim": "const", "seed": 2, "seeds": 2},
        ]

        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            for spec in specs:
                status, _, job = await http_request(
                    service.host, service.port, "POST", "/jobs",
                    {"kind": "leakcheck", "spec": spec},
                )
                assert status == 202
                final = await _poll_terminal(service.host, service.port,
                                             job["id"])
                assert final["state"] == DONE
            await service.close()

        asyncio.run(scenario())
        assert connects == [str(tmp_path / "c.sqlite")]

        records = [record for batch, _ in summarized for record in batch]
        executed = [record for record in records if not record.cached]
        assert [record.cached for record in records] == [
            False, False, False, True, False,
        ]
        assert sorted(map(id, encoded)) == sorted(
            id(record.result) for record in executed
        )
        for batch, summary in summarized:
            for record, entry in zip(batch, summary["tasks"]):
                assert entry["cached"] == record.cached
                assert entry["result"] == json.loads(
                    encode_payload(record.result)
                )


class TestServiceLifetime:
    """A closed service is freed by reference counting (docs/service.md)."""

    def test_closed_service_is_freed_without_the_collector(self, tmp_path):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            status, _, job = await http_request(
                service.host, service.port, "POST", "/jobs",
                {"kind": "leakcheck", "spec": {"victim": "const", "seed": 0}},
            )
            assert status == 202
            final = await _poll_terminal(service.host, service.port, job["id"])
            assert final["state"] == DONE
            await service.close()
            return weakref.ref(service)

        enabled = gc.isenabled()
        gc.disable()
        try:
            service_ref = asyncio.run(scenario())
            assert service_ref() is None, "a cycle keeps the closed service"
        finally:
            if enabled:
                gc.enable()

    def test_gauges_report_queue_running_and_draining(
        self, tmp_path, probe_gate
    ):
        names = ("queue_depth", "running", "draining")

        def gauges(service):
            snap = service.registry.snapshot()
            return {name: snap[name] for name in names}

        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            assert gauges(service) == dict.fromkeys(names, 0.0)
            await service.start()
            host, port = service.host, service.port
            await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            deadline = time.monotonic() + 10
            while gauges(service)["running"] != 1.0:
                assert time.monotonic() < deadline, gauges(service)
                await asyncio.sleep(0.01)
            await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 2}},
            )
            assert gauges(service) == {
                "queue_depth": 1.0, "running": 1.0, "draining": 0.0,
            }
            service.begin_drain()
            assert gauges(service) == {
                "queue_depth": 1.0, "running": 1.0, "draining": 1.0,
            }
            _, _, text = await http_request(host, port, "GET", "/metrics")
            lines = text.splitlines()
            assert "repro_service_running 1" in lines
            assert "repro_service_draining 1" in lines
            probe_gate.set()
            await service.close()
            assert gauges(service) == {
                "queue_depth": 0.0, "running": 0.0, "draining": 1.0,
            }

        asyncio.run(scenario())

    def test_drain_puts_nothing_on_the_job_queue(self, tmp_path, probe_gate):
        """A drain stops its workers without queueing anything: with one
        job running and none queued, the queue reads empty throughout."""

        async def scenario():
            service = _svc(tmp_path / "c.sqlite", concurrency=2)
            await service.start()
            host, port = service.host, service.port
            _, _, job = await http_request(
                host, port, "POST", "/jobs",
                {"kind": "probe", "spec": {"ops": FAST_OPS, "seed": 1}},
            )
            await _poll_running(host, port, job["id"])
            service.begin_drain()
            for _ in range(5):
                await asyncio.sleep(0.02)
                assert service.registry.snapshot()["queue_depth"] == 0.0
                _, _, listing = await http_request(host, port, "GET", "/jobs")
                assert listing["queue_depth"] == 0
                assert listing["by_state"] == {RUNNING: 1}
            probe_gate.set()
            await service.close()
            assert service.drain_report["forced_stop"] == 0
            return job["id"]

        job_id = asyncio.run(scenario())
        with CampaignDB(tmp_path / "c.sqlite") as db:
            assert db.journal_get(job_id).state == DONE


# -- subprocess: kill -9 resume and graceful drain -------------------------


def _serve_env(db_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env["REPRO_CAMPAIGN_DB"] = str(db_path)
    return env


@contextlib.contextmanager
def _serving(db_path, *extra_args):
    """Run ``repro serve`` and yield ``(proc, port)``.

    On exit a server still running is killed, and ``Popen``'s own exit
    waits for it and closes its output pipe.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--concurrency", "1", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_serve_env(db_path),
    ) as proc:
        try:
            deadline = time.monotonic() + 30
            line = ""
            port = None
            while port is None and time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1].split()[0])
                elif proc.poll() is not None:
                    break
                else:
                    time.sleep(0.01)
            if port is None:
                raise AssertionError(f"server never came up: {line!r}")
            yield proc, port
        finally:
            if proc.poll() is None:
                proc.kill()


def _http(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read().decode()
    conn.close()
    ctype = response.headers.get("Content-Type", "")
    data = json.loads(raw) if ctype.startswith("application/json") else raw
    return response.status, data


def _wait_state(port, job_id, states, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, data = _http(port, "GET", f"/jobs/{job_id}")
        assert status == 200, data
        if data["state"] in states:
            return data
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


@pytest.mark.slow
class TestServeProcess:
    def test_kill_9_loses_no_accepted_job(self, tmp_path):
        """The headline guarantee: jobs accepted before SIGKILL all reach a
        terminal state after a restart on the same journal."""
        db_path = tmp_path / "c.sqlite"
        job_ids = []
        with _serving(db_path) as (server, port):
            status, slow = _http(port, "POST", "/jobs", {
                "kind": "probe", "spec": {"ops": SLOW_OPS, "seed": 1},
            })
            assert status == 202
            job_ids.append(slow["id"])
            _wait_state(port, slow["id"], {"running"})
            for seed in (2, 3):
                status, job = _http(port, "POST", "/jobs", {
                    "kind": "probe", "spec": {"ops": FAST_OPS, "seed": seed},
                })
                assert status == 202
                job_ids.append(job["id"])
            server.kill()  # SIGKILL: no drain, no cleanup
            server.wait(timeout=30)

        with CampaignDB(db_path) as db:
            pending = {row.id for row in db.journal_pending()}
        assert pending == set(job_ids)  # the journal remembers everything

        with _serving(db_path) as (server, port):
            try:
                for job_id in job_ids:
                    final = _wait_state(port, job_id, TERMINAL_STATES)
                    assert final["state"] == "done", final
                    assert final["resumed"]
                status, metrics = _http(port, "GET", "/metrics")
                assert "repro_service_resumed_total 3" in metrics
            finally:
                server.send_signal(signal.SIGTERM)
                assert server.wait(timeout=60) == 0

    def test_sigterm_drains_gracefully_with_exit_0(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        with _serving(db_path) as (server, port):
            status, slow = _http(port, "POST", "/jobs", {
                "kind": "probe", "spec": {"ops": SLOW_OPS, "seed": 1},
            })
            assert status == 202
            _wait_state(port, slow["id"], {"running"})
            status, queued = _http(port, "POST", "/jobs", {
                "kind": "probe", "spec": {"ops": FAST_OPS, "seed": 2},
            })
            assert status == 202
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=120) == 0
            output = server.stdout.read()
        assert "service:" in output  # the drain summary made it out
        with CampaignDB(db_path) as db:
            # The in-flight job finished; the queued one was checkpointed,
            # not lost — exactly what the next start() will resume.
            assert db.journal_get(slow["id"]).state == "done"
            assert db.journal_get(queued["id"]).state == "queued"


class TestServiceSynthJob:
    def test_synth_job_runs_and_dedups(self, tmp_path):
        async def scenario():
            service = _svc(tmp_path / "c.sqlite")
            await service.start()
            host, port = service.host, service.port

            spec = {"kind": "synth", "spec": {"budget": 3, "seed": 0}}
            status, _, job = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 202
            final = await _poll_terminal(host, port, job["id"])
            assert final["state"] == DONE
            assert final["result"]["ok"] == 3
            # Task results round-trip the payload codec (Program/SynthResult
            # are repro dataclasses), so the per-task verdicts are visible.
            names = [task["name"] for task in final["result"]["tasks"]]
            assert names == [
                "synth_sct_none_g0", "synth_sct_none_g1", "synth_sct_none_g2",
            ]

            # Identical resubmission: all three tasks cache-hit.
            status, _, dup = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 200
            assert dup["state"] == DONE and dup["cached"]
            await service.close()

        asyncio.run(scenario())

    def test_synth_job_results_are_in_the_corpus(self, tmp_path, capsys):
        from repro.cli import main

        db_path = tmp_path / "c.sqlite"

        async def scenario():
            service = _svc(db_path)
            await service.start()
            _, _, job = await http_request(
                service.host, service.port, "POST", "/jobs",
                {"kind": "synth", "spec": {"budget": 3, "seed": 0}},
            )
            final = await _poll_terminal(service.host, service.port, job["id"])
            await service.close()
            return final

        final = asyncio.run(scenario())
        assert final["state"] == DONE
        results = [task["result"]["fields"] for task in final["result"]["tasks"]]
        leaky_seeds = [r["gen_seed"] for r in results if r["leaky"]]
        assert leaky_seeds
        capsys.readouterr()
        assert main(["synth", "corpus", "--campaign-db", str(db_path),
                     "--programs"]) == 0
        out = capsys.readouterr().out
        assert (f"corpus: {len(leaky_seeds)} leaking program(s) from 3 "
                f"evaluated") in out
        for seed in leaky_seeds:
            assert f"sct/none gen_seed={seed} " in out
