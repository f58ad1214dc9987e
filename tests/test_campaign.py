"""Tests for the crash-isolated sharded campaign engine.

Task functions live at module level so they pickle across the worker
pipe; the crash/stop helpers simulate real failure modes (``os._exit``
mid-task, a stopped process whose heartbeat goes stale) rather than
raising polite exceptions.
"""

import json
import os
import pathlib
import signal
import sys
import threading
import time

import pytest

from repro.campaign import (
    BatchReport,
    CampaignDB,
    CampaignEngine,
    CampaignTask,
    PayloadError,
    TEST_CRASH_ENV,
    TaskRecord,
    config_hash,
    decode_payload,
    encode_payload,
)
from repro.campaign import engine as engine_mod
from repro.campaign.engine import _fn_resolvable
from repro.campaign.worker import (
    MAX_TIMEOUT_S,
    TaskTimeout,
    _accepts_seed,
    _call_with_timeout,
)


# -- module-level task functions (picklable across the worker pipe) -------


def compute(x, seed=0):
    return {"x": x, "seed": seed, "cubes": tuple(i**3 for i in range(x))}


def always_crash():
    os._exit(17)


def always_crash_exception():
    raise RuntimeError("boom")


def crash_until_marker(marker):
    if not os.path.exists(marker):
        pathlib.Path(marker).write_text("crashed\n")
        os._exit(17)
    return "recovered"


def fail_once_then_succeed(marker, seed=0):
    if not os.path.exists(marker):
        pathlib.Path(marker).write_text("failed\n")
        raise RuntimeError("transient fault")
    return {"seed": seed}


def stop_self():
    # A stopped process keeps is_alive() true but stops heartbeating:
    # the closest cheap stand-in for a truly wedged worker.
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(60)


def ignore_alarm_and_sleep():
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    time.sleep(60)


def return_unpicklable():
    return lambda: None


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def make_record(name):
    return TaskRecord(name=name, status="ok")


def _with_extra_field(payload):
    """``payload`` as a row stored before its dataclass lost a field."""
    stored = json.loads(payload)
    stored["fields"]["retired_field"] = 1
    return json.dumps(stored)


# -- payload codec --------------------------------------------------------


class TestPayloadCodec:
    def test_plain_values_round_trip(self):
        value = {"a": [1, 2.5, "x", None, True], "b": {"nested": [0]}}
        assert decode_payload(encode_payload(value)) == value

    def test_tuples_bytes_and_special_floats(self):
        value = {"t": (1, (2, 3)), "raw": b"\x00\xff", "inf": float("inf")}
        out = decode_payload(encode_payload(value))
        assert out["t"] == (1, (2, 3)) and isinstance(out["t"], tuple)
        assert out["raw"] == b"\x00\xff"
        assert out["inf"] == float("inf")

    def test_repro_dataclasses_round_trip(self):
        from repro.analysis.report import FigureResult, Row

        result = FigureResult(
            figure="fig0", title="t",
            rows=(Row(label="s", measured=1.5, paper="~2", unit="cycles"),),
            notes=("n",),
        )
        restored = decode_payload(encode_payload(result))
        assert restored == result

    def test_enums_round_trip(self):
        from repro.faults.injector import FaultSite

        site = next(iter(FaultSite))
        assert decode_payload(encode_payload({"site": site}))["site"] is site

    def test_encoding_is_deterministic(self):
        value = {"b": 2, "a": 1, "t": (3, 4)}
        assert encode_payload(value) == encode_payload(dict(value))

    def test_foreign_types_are_refused(self):
        with pytest.raises(PayloadError):
            encode_payload(object())

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"__repro__": "tuple"}',
        '{"__repro__": "dataclass", "type": "repro.nope:Gone", "fields": {}}',
        _with_extra_field(encode_payload(make_record("t"))),
    ], ids=["bad-json", "missing-key", "missing-type", "stale-fields"])
    def test_text_that_does_not_decode_raises_payload_error(self, text):
        with pytest.raises(PayloadError):
            decode_payload(text)

    def test_foreign_modules_are_refused_on_decode(self):
        hostile = json.dumps({
            "__repro__": "dataclass", "type": "os:stat_result", "fields": {},
        })
        with pytest.raises(PayloadError):
            decode_payload(hostile)


# -- config hashing and seed derivation -----------------------------------


class TestConfigHash:
    def test_stable_across_calls(self):
        assert (config_hash("t", compute, {"x": 3})
                == config_hash("t", compute, {"x": 3}))

    def test_sensitive_to_name_fn_and_kwargs(self):
        base = config_hash("t", compute, {"x": 3})
        assert config_hash("u", compute, {"x": 3}) != base
        assert config_hash("t", always_crash, {"x": 3}) != base
        assert config_hash("t", compute, {"x": 4}) != base

    def test_kwarg_order_does_not_matter(self):
        assert (config_hash("t", compute, {"x": 1, "seed": 2})
                == config_hash("t", compute, {"seed": 2, "x": 1}))

    def test_fn_resolvable_rejects_closures_and_lambdas(self):
        assert _fn_resolvable(compute)
        assert not _fn_resolvable(lambda: None)

        def inner():
            pass

        assert not _fn_resolvable(inner)


# -- campaign DB ----------------------------------------------------------


class TestCampaignDB:
    def test_record_and_lookup(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            db.record_run(
                config_hash="h", git_rev="r", name="t", seed=1, status="ok",
                attempts=1, elapsed=0.5, payload=encode_payload({"v": 1}),
            )
            row = db.lookup("h", "r")
            assert row is not None and decode_payload(row.payload) == {"v": 1}
            assert db.lookup("h", "other-rev") is None
            assert db.lookup("other-hash", "r") is None

    def test_failed_runs_are_recorded_but_never_served(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            db.record_run(
                config_hash="h", git_rev="r", name="t", seed=None,
                status="failed", attempts=2, elapsed=0.1, error="boom",
            )
            assert db.lookup("h", "r") is None
            assert db.counts() == {"failed": 1}
            assert len(db) == 1

    def test_latest_success_wins(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            for version in (1, 2):
                db.record_run(
                    config_hash="h", git_rev="r", name="t", seed=None,
                    status="ok", attempts=1, elapsed=0.1,
                    payload=encode_payload({"v": version}),
                )
            assert decode_payload(db.lookup("h", "r").payload) == {"v": 2}


# -- engine: determinism and caching --------------------------------------


def _tasks(values):
    return [CampaignTask(name=f"compute_{v}", fn=compute, kwargs={"x": v})
            for v in values]


class TestEngineDeterminism:
    def test_serial_and_parallel_payloads_are_byte_identical(self, tmp_path):
        serial = CampaignEngine(jobs=1).run(_tasks([2, 3, 4]))
        parallel = CampaignEngine(jobs=4).run(_tasks([2, 3, 4]))
        for left, right in zip(serial.records, parallel.records):
            assert left.ok and right.ok
            assert encode_payload(left.result) == encode_payload(right.result)

    def test_warm_db_serves_everything_without_executing(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        first = CampaignEngine(jobs=1, db=db_path)
        assert first.run(_tasks([2, 3])).status == "pass"
        assert int(first.registry.counter("executed").value) == 2

        second = CampaignEngine(jobs=1, db=db_path)
        report = second.run(_tasks([2, 3]))
        assert report.status == "pass"
        assert all(r.cached for r in report.records)
        assert int(second.registry.counter("executed").value) == 0
        assert second.registry.snapshot()["cache.hits"] == 2
        assert "served from campaign cache" in second.summary_line()
        assert (report.records[0].result
                == first.run(_tasks([2])).records[0].result)

    def test_no_cache_still_records_runs(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        CampaignEngine(jobs=1, db=db_path).run(_tasks([2]))
        engine = CampaignEngine(jobs=1, db=db_path, use_cache=False)
        report = engine.run(_tasks([2]))
        assert not report.records[0].cached
        assert int(engine.registry.counter("executed").value) == 1
        with CampaignDB(db_path) as db:
            assert db.counts()["ok"] == 2

    def test_git_rev_change_invalidates_the_cache(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        CampaignEngine(jobs=1, db=db_path, git_rev="rev-a").run(_tasks([2]))
        engine = CampaignEngine(jobs=1, db=db_path, git_rev="rev-b")
        report = engine.run(_tasks([2]))
        assert not report.records[0].cached
        assert engine.registry.snapshot()["cache.misses"] == 1

    def test_stale_payload_fields_are_a_miss(self, tmp_path):
        """A stored result whose dataclass has since lost a field is a
        miss: the task runs again instead of the engine raising."""
        task = CampaignTask(name="record", fn=make_record,
                            kwargs={"name": "r"})
        with CampaignDB(tmp_path / "c.sqlite") as db:
            db.record_run(
                config_hash=task.config_hash, git_rev="r1", name=task.name,
                seed=None, status="ok", attempts=1, elapsed=0.1,
                payload=_with_extra_field(encode_payload(make_record("r"))),
            )
            engine = CampaignEngine(jobs=1, db=db, git_rev="r1")
            record = engine.run([task]).records[0]
        assert record.ok and not record.cached
        assert record.result == make_record("r")
        assert engine.registry.snapshot()["cache.misses"] == 1

    def test_closures_never_touch_the_cache(self, tmp_path):
        db_path = tmp_path / "c.sqlite"

        def make(value):
            def figure():
                return {"value": value}
            return figure

        for value in (1, 2):  # same qualname, different behaviour
            engine = CampaignEngine(jobs=1, db=db_path)
            record = engine.run(
                [CampaignTask(name="fig", fn=make(value))]
            ).records[0]
            assert record.ok and not record.cached
            assert record.result == {"value": value}
        with CampaignDB(db_path) as db:
            assert len(db) == 0


# -- engine: crash isolation ----------------------------------------------


class TestCrashIsolation:
    def test_worker_killed_mid_task_is_retried_and_batch_completes(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crash.marker"
        monkeypatch.setenv(TEST_CRASH_ENV, f"compute_2={marker}")
        engine = CampaignEngine(jobs=2, retries=2, backoff=0.01,
                                db=tmp_path / "c.sqlite")
        report = engine.run(_tasks([2, 3]))
        assert report.status == "pass"
        assert marker.exists()
        crashed = report.record("compute_2")
        assert crashed.ok and crashed.attempts == 2
        assert crashed.result == compute(2)
        assert engine.registry.snapshot()["workers.crashed"] == 1
        assert "worker crash(es) reaped" in engine.summary_line()

    def test_hard_exit_in_task_fn_is_reaped(self, tmp_path):
        engine = CampaignEngine(jobs=2, retries=1, backoff=0.01)
        marker = tmp_path / "exit.marker"
        report = engine.run([
            CampaignTask(name="bad", fn=crash_until_marker,
                         kwargs={"marker": str(marker)}),
            CampaignTask(name="good", fn=compute, kwargs={"x": 3}),
        ])
        assert report.record("bad").ok
        assert report.record("bad").result == "recovered"
        assert report.record("good").ok

    def test_exhausted_retries_degrade_to_a_failed_record(self):
        engine = CampaignEngine(jobs=2, retries=1, backoff=0.01)
        report = engine.run([
            CampaignTask(name="doomed", fn=always_crash),
            CampaignTask(name="fine", fn=compute, kwargs={"x": 2}),
        ])
        doomed = report.record("doomed")
        assert doomed.status == "failed"
        assert doomed.attempts == 2
        assert "worker crashed" in doomed.error
        assert report.record("fine").ok  # the batch is never lost wholesale

    def test_stalled_heartbeat_is_killed_by_the_watchdog(self):
        # Without a timeout, jobs >= 2 is what puts the attempt in a
        # worker; at jobs=1 it would run in process, where nothing can
        # be reaped.
        engine = CampaignEngine(jobs=2, retries=0, backoff=0.0,
                                heartbeat_timeout=0.5)
        report = engine.run([CampaignTask(name="wedged", fn=stop_self)])
        record = report.records[0]
        assert record.status == "timeout"
        assert "watchdog" in record.error
        assert engine.registry.snapshot()["workers.hung"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_backstop_when_sigalrm_cannot_fire(
        self, monkeypatch, jobs
    ):
        monkeypatch.setattr(engine_mod, "_DEADLINE_SLACK", 1.0)
        monkeypatch.setattr(engine_mod, "_DEADLINE_GRACE", 0.5)
        engine = CampaignEngine(jobs=jobs, retries=0, timeout=0.2)
        report = engine.run(
            [CampaignTask(name="stuck", fn=ignore_alarm_and_sleep)]
        )
        assert report.records[0].status == "timeout"
        assert engine.registry.snapshot()["workers.hung"] == 1

    def test_timeout_off_the_main_thread_kills_a_worker(self):
        # The shape of `repro serve --timeout`: a jobs=1 engine on an
        # executor thread.  The attempt must run in a worker that the
        # timeout ends, not on a thread that outlives it.
        before = set(threading.enumerate())
        box = {}

        def off_main():
            engine = CampaignEngine(jobs=1, timeout=0.2)
            box["report"] = engine.run(
                [CampaignTask(name="slow", fn=sleep_for,
                              kwargs={"seconds": 5.0})]
            )
            box["spawned"] = engine.registry.snapshot()["workers.spawned"]

        thread = threading.Thread(target=off_main)
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        record = box["report"].records[0]
        assert record.status == "timeout"
        assert "timed out after 0.2s" in record.error
        assert box["spawned"] == 1
        assert set(threading.enumerate()) == before

    def test_retry_reseeds_shard_independently(self, tmp_path):
        marker = tmp_path / "flaky.marker"
        engine = CampaignEngine(jobs=2, retries=2, backoff=0.01,
                                reseed_base=500)
        report = engine.run([
            CampaignTask(name="flaky", fn=fail_once_then_succeed,
                         kwargs={"marker": str(marker)}),
        ])
        record = report.records[0]
        assert record.ok and record.attempts == 2
        assert record.result == {"seed": 501}  # reseed_base + attempt index
        assert record.seed == 501


# -- engine: degradations and plumbing ------------------------------------


class TestEngineDegradations:
    def test_unpicklable_fn_runs_inline(self):
        engine = CampaignEngine(jobs=2)
        report = engine.run(
            [CampaignTask(name="closure", fn=lambda: {"ok": True})]
        )
        assert report.records[0].ok
        assert report.records[0].result == {"ok": True}
        assert int(
            engine.registry.counter("inline_fallbacks").value
        ) == 1
        assert engine.registry.snapshot()["workers.spawned"] == 0

    def test_untimed_serial_batch_forks_nothing_and_never_waits(
        self, monkeypatch
    ):
        # The service's path: jobs=1, no timeout.  Every attempt runs in
        # process, so there is no worker to poll and no tick to sleep.
        def no_waiting(*_args, **_kwargs):
            raise AssertionError("the coordinator waited")

        # Built first: the constructor may read the git revision, whose
        # subprocess polls with time.sleep.  The no-wait patch covers all
        # of engine.run.
        engine = CampaignEngine(jobs=1)
        monkeypatch.setattr(engine_mod.mp_connection, "wait", no_waiting)
        monkeypatch.setattr(engine_mod.time, "sleep", no_waiting)
        report = engine.run(_tasks([2, 3, 4]))
        assert report.status == "pass"
        snapshot = engine.registry.snapshot()
        assert snapshot["workers.spawned"] == 0
        assert snapshot["inline_fallbacks"] == 0

    def test_unpicklable_fn_with_a_timeout_off_the_main_thread_fails(self):
        # SIGALRM cannot reach a non-main thread and the task cannot go
        # to a worker: it must fail saying so, without starting a thread.
        before = set(threading.enumerate())
        box = {}

        def off_main():
            engine = CampaignEngine(jobs=1, timeout=5.0)
            box["report"] = engine.run(
                [CampaignTask(name="closure", fn=lambda: "never timed")]
            )

        thread = threading.Thread(target=off_main)
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        record = box["report"].records[0]
        assert record.status == "failed"
        assert "main thread" in record.error
        assert set(threading.enumerate()) == before

    def test_unpicklable_result_degrades_to_a_note(self):
        engine = CampaignEngine(jobs=2)
        report = engine.run(
            [CampaignTask(name="lam", fn=return_unpicklable)]
        )
        record = report.records[0]
        assert record.ok
        assert record.result is None
        assert "not transferable" in record.detail

    def test_duplicate_task_names_are_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignEngine(jobs=1).run(_tasks([2]) + _tasks([2]))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "boom", [always_crash_exception, lambda: 1 / 0],
        ids=["module_fn", "lambda"],
    )
    def test_fail_fast_skips_remaining(self, jobs, boom):
        # At jobs=2 the second task is in flight before the failure
        # lands, so it finishes; nothing is started after the failure.
        engine = CampaignEngine(jobs=jobs, fail_fast=True)
        report = engine.run([
            CampaignTask(name="boom", fn=boom),
            CampaignTask(name="busy", fn=sleep_for, kwargs={"seconds": 0.5}),
            CampaignTask(name="later", fn=compute, kwargs={"x": 2}),
        ])
        assert report.record("boom").status == "failed"
        assert report.record("later").status == "skipped"
        assert report.record("later").error == "skipped (fail-fast)"

    def test_engine_validates_arguments(self):
        with pytest.raises(ValueError):
            CampaignEngine(jobs=0)
        with pytest.raises(ValueError):
            CampaignEngine(retries=-1)
        with pytest.raises(ValueError):
            CampaignEngine(timeout=0.0)
        with pytest.raises(ValueError):
            CampaignEngine(heartbeat_timeout=0.0)
        # setitimer cannot arm an infinite or over-long timeout; an
        # infinite backoff never scheduled the retry, and nan retried at
        # once.
        for bad in (float("inf"), float("nan"), MAX_TIMEOUT_S + 1):
            with pytest.raises(ValueError, match="timeout"):
                CampaignEngine(timeout=bad)
            with pytest.raises(ValueError, match="backoff"):
                CampaignEngine(backoff=bad)

    def test_prometheus_export_covers_campaign_counters(self, tmp_path):
        from repro.perf import prometheus_text

        engine = CampaignEngine(jobs=1, db=tmp_path / "c.sqlite")
        engine.run(_tasks([2]))
        text = prometheus_text(engine.registry, namespace="repro_campaign")
        assert "repro_campaign_cache_hits_total" in text
        assert "repro_campaign_workers_crashed_total" in text
        assert "repro_campaign_executed_total 1" in text


# -- engine: in-process attempts (jobs=1, no timeout) ----------------------


class TestInProcessAttempts:
    """Retry, reseed and reporting behaviour of attempts the coordinator
    runs itself; closures are fine here since nothing is pickled."""

    def test_retry_reseeds_when_fn_accepts_seed(self):
        seen = []

        def experiment(seed=None):
            seen.append(seed)
            if len(seen) < 3:
                raise RuntimeError("unlucky roll")
            return seed

        engine = CampaignEngine(jobs=1, retries=3, backoff=0.0,
                                reseed_base=500)
        report = engine.run([CampaignTask(name="exp", fn=experiment)])
        # First attempt uses the experiment's own default; retries reseed.
        assert seen == [None, 501, 502]
        assert report.records[0].seed == 502
        assert report.records[0].result == 502

    def test_no_seed_injection_without_parameter(self):
        calls = []

        def experiment():
            calls.append(1)
            if len(calls) < 2:
                raise RuntimeError("flake")
            return "ok"

        engine = CampaignEngine(jobs=1, retries=2, backoff=0.0,
                                reseed_base=500)
        record = engine.run([CampaignTask(name="exp", fn=experiment)]).records[0]
        assert record.ok and record.attempts == 2
        assert record.seed is None

    def test_retries_exhausted(self):
        def doomed():
            raise ValueError("no")

        engine = CampaignEngine(jobs=1, retries=2, backoff=0.0)
        record = engine.run([CampaignTask(name="doomed", fn=doomed)]).records[0]
        assert record.status == "failed"
        assert record.attempts == 3
        assert "ValueError" in record.error
        assert "Traceback" in record.detail and "ValueError" in record.detail
        assert engine.registry.snapshot()["retries"] == 2

    def test_crash_does_not_kill_batch(self):
        report = CampaignEngine(jobs=1).run([
            CampaignTask(name="boom", fn=lambda: 1 / 0),
            CampaignTask(name="fine", fn=lambda: "result"),
        ])
        assert report.status == "partial"
        assert report.record("boom").status == "failed"
        assert "ZeroDivisionError" in report.record("boom").error
        assert report.record("fine").result == "result"

    def test_summary_mentions_every_task(self):
        report = CampaignEngine(jobs=1).run([
            CampaignTask(name="alpha", fn=lambda: 1),
            CampaignTask(name="beta", fn=lambda: 1 / 0),
        ])
        text = report.summary()
        assert text.startswith("batch partial: 1/2 ok, 1 failed, 0 skipped")
        assert "alpha" in text and "beta" in text
        assert "ZeroDivisionError" in text

    def test_duplicate_names_rejected(self):
        # Names key the report and the cache, so two different functions
        # under one name are refused before anything runs.
        with pytest.raises(ValueError, match="unique"):
            CampaignEngine(jobs=1).run([
                CampaignTask(name="x", fn=lambda: 1),
                CampaignTask(name="x", fn=lambda: 2),
            ])

    def test_invalid_retry_arguments(self):
        with pytest.raises(ValueError):
            CampaignEngine(retries=-1)
        with pytest.raises(ValueError):
            CampaignEngine(backoff=-0.1)

    def test_timeout_and_backoff_at_the_ceiling_are_accepted(self):
        engine = CampaignEngine(
            jobs=1, timeout=MAX_TIMEOUT_S, backoff=MAX_TIMEOUT_S
        )
        assert engine.timeout == engine.backoff == MAX_TIMEOUT_S

    def test_status_levels(self):
        assert BatchReport(records=[]).status == "pass"
        ok = TaskRecord(name="a", status="ok")
        bad = TaskRecord(name="b", status="failed")
        assert BatchReport(records=[ok]).status == "pass"
        assert BatchReport(records=[ok, bad]).status == "partial"
        assert BatchReport(records=[bad]).status == "fail"

    def test_accepts_seed_detection(self):
        assert _accepts_seed(lambda seed=0: None)
        assert _accepts_seed(lambda **kwargs: None)
        assert not _accepts_seed(lambda bits=1: None)
        assert not _accepts_seed(len)  # builtin without a signature


class TestAlarmTimeout:
    """The SIGALRM budget every timed attempt runs under."""

    def test_fast_task_completes(self):
        assert _call_with_timeout(lambda: 41 + 1, {}, timeout=5.0) == 42

    def test_slow_task_raises(self):
        with pytest.raises(TaskTimeout):
            _call_with_timeout(lambda: time.sleep(2), {}, timeout=0.05)

    def test_no_timeout_means_no_alarm(self):
        assert _call_with_timeout(lambda: "done", {}, timeout=None) == "done"

    def test_exceptions_pass_through(self):
        with pytest.raises(KeyError):
            _call_with_timeout(lambda: {}["missing"], {}, timeout=5.0)


# -- payload codec: special floats and deep nesting ------------------------


class TestPayloadEdgeCases:
    def test_nan_and_signed_infinities_round_trip(self):
        import math

        value = {
            "nan": float("nan"),
            "pinf": float("inf"),
            "ninf": float("-inf"),
            "nested": (float("nan"), [float("-inf")]),
        }
        out = decode_payload(encode_payload(value))
        assert math.isnan(out["nan"])
        assert out["pinf"] == float("inf")
        assert out["ninf"] == float("-inf")
        assert math.isnan(out["nested"][0])
        assert out["nested"][1] == [float("-inf")]

    def test_special_floats_encode_deterministically(self):
        value = {"b": float("nan"), "a": float("inf")}
        assert encode_payload(value) == encode_payload(dict(value))

    def test_deeply_nested_dataclasses_round_trip(self):
        import math

        from repro.analysis.report import FigureResult, Row

        leaf = FigureResult(
            figure="fig0", title="deep",
            rows=(Row(label="r", measured=float("nan"), paper="~1",
                      unit="cycles"),),
            notes=(),
        )
        value: object = leaf
        for level in range(32):
            value = {"level": level, "child": (value, [level])}
        out = decode_payload(encode_payload(value))
        for level in reversed(range(32)):
            assert out["level"] == level
            out = out["child"][0]
        assert isinstance(out, FigureResult)
        assert math.isnan(out.rows[0].measured)


# -- campaign DB: transient-lock resilience --------------------------------


class _FlakyConn:
    """Wraps a sqlite connection, failing the first N executes as busy."""

    def __init__(self, conn, failures, message="database is locked"):
        self._conn = conn
        self.failures = failures
        self.message = message
        self.attempts = 0

    def execute(self, sql, *args):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            import sqlite3

            raise sqlite3.OperationalError(self.message)
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestBusyRetry:
    def test_transient_lock_is_retried_and_succeeds(self, tmp_path, monkeypatch):
        from repro.campaign import db as db_mod

        monkeypatch.setattr(db_mod, "_BUSY_BACKOFF_S", 0.001)
        db = CampaignDB(tmp_path / "c.sqlite")
        flaky = _FlakyConn(db._conn, failures=2)
        db._conn = flaky
        db.record_run(config_hash="h", git_rev="r", name="t", seed=None,
                      status="ok", attempts=1, elapsed=0.1,
                      payload=encode_payload({"v": 1}))
        assert flaky.attempts > 2  # retried past the injected failures
        assert db.lookup("h", "r") is not None
        db.close()

    def test_persistent_lock_still_raises(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.campaign import db as db_mod

        monkeypatch.setattr(db_mod, "_BUSY_BACKOFF_S", 0.001)
        db = CampaignDB(tmp_path / "c.sqlite")
        db._conn = _FlakyConn(db._conn, failures=10**9)
        with pytest.raises(sqlite3.OperationalError):
            db.lookup("h", "r")

    def test_non_busy_operational_errors_are_not_retried(
        self, tmp_path, monkeypatch
    ):
        import sqlite3

        from repro.campaign import db as db_mod

        monkeypatch.setattr(db_mod, "_BUSY_BACKOFF_S", 60.0)  # would hang
        db = CampaignDB(tmp_path / "c.sqlite")
        flaky = _FlakyConn(
            db._conn, failures=1, message="no such table: nope"
        )
        db._conn = flaky
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            db.lookup("h", "r")
        assert flaky.attempts == 1

    def test_busy_timeout_is_applied(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            (timeout_ms,) = db._conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()
            assert timeout_ms == 5000

    def test_concurrent_connections_do_not_lose_writes(self, tmp_path):
        db_path = tmp_path / "c.sqlite"
        writers = [CampaignDB(db_path) for _ in range(4)]
        for index, db in enumerate(writers):
            db.record_run(config_hash=f"h{index}", git_rev="r", name="t",
                          seed=None, status="ok", attempts=1, elapsed=0.1,
                          payload=encode_payload({"i": index}))
        with CampaignDB(db_path) as db:
            assert len(db) == 4
        for db in writers:
            db.close()


class TestSharedConnection:
    def test_threads_sharing_one_db_lose_no_write(self, tmp_path):
        """Every public method holds the DB's lock to its commit, so
        threads interleaving on one connection neither fail nor lose or
        mix up a write."""
        threads_n = 4 * (os.cpu_count() or 1) + 2  # more threads than cores
        rounds = 25
        db = CampaignDB(tmp_path / "c.sqlite")
        deadline = time.monotonic() + 60
        errors = []

        def work(t):
            try:
                db.journal_put(job_id=f"j{t}", kind="probe", spec="{}",
                               state="queued")
                for i in range(rounds):
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"thread {t} ran out of time")
                    key = f"h{t}-{i}"
                    db.record_run(config_hash=key, git_rev="r", name=f"t{t}",
                                  seed=i, status="ok", attempts=1, elapsed=0.0,
                                  payload=encode_payload({"t": t, "i": i}))
                    row = db.lookup(key, "r")
                    assert decode_payload(row.payload) == {"t": t, "i": i}
                    db.journal_update(f"j{t}", state="running",
                                      attempts=i + 1, result=key)
                    db.span_put_many([{
                        "span": f"s{t}-{i}", "trace": f"tr{t}", "name": "x",
                        "start": float(i), "end": float(i + 1),
                    }])
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(t,), daemon=True)
                   for t in range(threads_n)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1)
        finally:
            sys.setswitchinterval(previous)
        try:
            assert not [thread for thread in threads if thread.is_alive()]
            assert errors == []
            assert len(db) == threads_n * rounds
            assert db.counts() == {"ok": threads_n * rounds}
            jobs = {row.id: row for row in db.journal_jobs()}
            assert sorted(jobs) == sorted(f"j{t}" for t in range(threads_n))
            for t in range(threads_n):
                assert (jobs[f"j{t}"].state, jobs[f"j{t}"].attempts,
                        jobs[f"j{t}"].result) == (
                    "running", rounds, f"h{t}-{rounds - 1}")
            assert len(db.spans()) == threads_n * rounds
        finally:
            db.close()


# -- engine: full-jitter backoff and cooperative drain ---------------------


class TestRetryJitter:
    def test_delays_stay_within_the_exponential_envelope(self):
        engine = CampaignEngine(jobs=1, backoff=0.5, reseed_base=42)
        for attempt in range(1, 8):
            delay = engine._retry_delay(attempt)
            assert 0.0 <= delay <= 0.5 * 2 ** (attempt - 1)

    def test_jitter_is_seeded_and_reproducible(self):
        first = CampaignEngine(jobs=1, backoff=0.5, reseed_base=42)
        second = CampaignEngine(jobs=1, backoff=0.5, reseed_base=42)
        assert ([first._retry_delay(a) for a in range(1, 6)]
                == [second._retry_delay(a) for a in range(1, 6)])

    def test_jitter_actually_varies(self):
        engine = CampaignEngine(jobs=1, backoff=0.5, reseed_base=42)
        samples = {engine._retry_delay(3) for _ in range(16)}
        assert len(samples) > 1  # full jitter, not a fixed schedule

    def test_zero_backoff_means_zero_delay(self):
        assert CampaignEngine(jobs=1, backoff=0.0)._retry_delay(5) == 0.0


class TestCooperativeDrain:
    def test_request_stop_drains_serial_campaign(self, tmp_path):
        engine = CampaignEngine(jobs=1, db=tmp_path / "c.sqlite")

        def stop_after_first(record):
            engine.request_stop()

        report = engine.run(_tasks([2, 3, 4]), on_record=stop_after_first)
        assert report.records[0].ok
        for record in report.records[1:]:
            assert record.status == "skipped"
            assert "cancelled" in record.error
        assert int(engine.registry.counter("cancelled").value) == 2
        with CampaignDB(tmp_path / "c.sqlite") as db:
            assert db.counts() == {"ok": 1}  # cancellations are not runs

    def test_request_stop_drains_parallel_campaign(self, tmp_path):
        engine = CampaignEngine(jobs=2, db=tmp_path / "c.sqlite")
        engine.request_stop()
        report = engine.run(_tasks([2, 3, 4]))
        assert all(r.status == "skipped" for r in report.records)
        with CampaignDB(tmp_path / "c.sqlite") as db:
            assert len(db) == 0


_SIGINT_SCRIPT = """
import multiprocessing, sys, time
from repro.campaign import CampaignEngine, CampaignTask

def slow(i):
    time.sleep(30)
    return i

engine = CampaignEngine(jobs=int(sys.argv[2]), db=sys.argv[1])
tasks = [CampaignTask(name=f"slow_{i}", fn=slow, kwargs={"i": i})
         for i in range(4)]
print("campaign-start", flush=True)
try:
    engine.run(tasks)
except KeyboardInterrupt:
    print(f"orphans={len(multiprocessing.active_children())}", flush=True)
    sys.exit(130)
print("not-interrupted", flush=True)
sys.exit(0)
"""


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
class TestCoordinatorSignals:
    def test_sigint_reaps_workers_and_exits_130(self, tmp_path, jobs):
        """Ctrl-C on a campaign must kill the workers, flush the DB, and
        re-raise — not leak orphan processes or corrupt sqlite.  At
        jobs=1 the attempt runs in process, and the interrupt must stop
        it at once instead of waiting the task out."""
        import subprocess
        import sys as _sys

        script = tmp_path / "campaign_sigint.py"
        script.write_text(_SIGINT_SCRIPT)
        db_path = tmp_path / "c.sqlite"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(engine_mod.__file__).resolve().parents[2]
        )
        proc = subprocess.Popen(
            [_sys.executable, str(script), str(db_path), str(jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            assert "campaign-start" in proc.stdout.readline()
            time.sleep(1.0)  # let the workers spawn and pick up tasks
            proc.send_signal(signal.SIGINT)
            sent = time.monotonic()
            assert proc.wait(timeout=60) == 130
            assert time.monotonic() - sent < 15  # the tasks sleep 30 s
            output = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
        assert "orphans=0" in output
        assert "not-interrupted" not in output
        # The DB survived the interrupt: intact schema, no cancelled rows
        # persisted as runs.
        with CampaignDB(db_path) as db:
            assert db.counts().get("ok", 0) == len(db)
