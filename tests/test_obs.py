"""Tests for fleet span tracing and telemetry (``repro.obs``).

Four layers: unit tests on the span primitives (NULL-span discipline,
parent resolution, recorder bookkeeping), export/validation round-trips,
telemetry math, and end-to-end propagation — a ``--jobs 2`` campaign and
an in-process service job must each yield one fully-closed span tree
whose trace id is uniform from the entry point down to the oracle, even
across worker crashes and journal resumes.
"""

import asyncio
import json
import os
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignDB,
    CampaignEngine,
    CampaignTask,
    TEST_CRASH_ENV,
    TaskRecord,
)
from repro.cli import main
from repro.obs import (
    NULL_SPAN,
    SpanContext,
    SpanRecorder,
    fleet_prometheus_text,
    percentile,
    render_report,
    summarize,
    validate_spans,
)
from repro.service import DONE, QUEUED, RUNNING, TERMINAL_STATES, LeakcheckService, http_request
from repro.trace import read_jsonl, write_jsonl


@pytest.fixture(autouse=True)
def _no_global_recorder():
    """Every test starts and ends with tracing off."""
    obs.disable()
    yield
    obs.disable()


# Module-level so they pickle across the campaign worker pipe.
def compute(x, seed=0):
    return {"x": x, "seed": seed}


def always_fail():
    raise RuntimeError("doomed by design")


# -- span primitives -------------------------------------------------------


class TestNullSpanDiscipline:
    def test_start_span_returns_the_shared_singleton_when_off(self):
        assert obs.active() is None
        first = obs.start_span("a", kind="k", attrs={"x": 1})
        second = obs.start_span("b")
        assert first is NULL_SPAN and second is NULL_SPAN

    def test_null_span_is_inert_and_falsy(self):
        with obs.start_span("a") as span:
            span.set("k", "v").set_many({"x": 1})
            span.outcome = "failed"
        assert not span
        assert span.attrs == {}
        span.end("whatever")  # no-op, no recorder touched
        obs.enable()
        with obs.start_span("b") as after:
            pass
        assert after.parent_id is None

    def test_engine_off_records_nothing(self, tmp_path):
        engine = CampaignEngine(jobs=1, db=tmp_path / "c.sqlite")
        report = engine.run([CampaignTask(name="t", fn=compute, kwargs={"x": 2})])
        assert report.status == "pass"
        assert obs.active() is None


class TestSpanLifecycle:
    def test_nesting_follows_the_context_local_current_span(self):
        recorder = obs.enable()
        with obs.start_span("outer", kind="outer") as outer:
            with obs.start_span("inner", kind="inner") as inner:
                assert inner.parent_id == outer.context.span_id
                assert inner.context.trace_id == outer.context.trace_id
        spans = recorder.drain()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert all(s["outcome"] == "ok" for s in spans)

    def test_explicit_parent_beats_the_current_span(self):
        recorder = obs.enable()
        remote = SpanContext(obs.new_trace_id(), "feedbeeffeedbeef")
        with obs.start_span("current"):
            child = recorder.start_span("child", parent=remote)
            child.end()
        child_dict = recorder.drain()[0]
        assert child_dict["trace"] == remote.trace_id
        assert child_dict["parent"] == remote.span_id

    def test_forced_trace_id_roots_a_new_trace(self):
        recorder = obs.enable()
        trace = obs.new_trace_id()
        recorder.start_span("job", trace_id=trace).end()
        span = recorder.drain()[0]
        assert span["trace"] == trace and span["parent"] is None

    def test_exception_marks_failed_and_captures_the_error(self):
        recorder = obs.enable()
        with pytest.raises(ValueError):
            with obs.start_span("boom"):
                raise ValueError("bad input")
        span = recorder.drain()[0]
        assert span["outcome"] == "failed"
        assert "ValueError: bad input" in span["attrs"]["error"]

    def test_preset_outcome_survives_clean_exit_and_end_is_idempotent(self):
        recorder = obs.enable()
        with obs.start_span("t") as span:
            span.outcome = "timeout"
        span.end("ok")  # second end must not re-record or override
        spans = recorder.drain()
        assert len(spans) == 1 and spans[0]["outcome"] == "timeout"

    def test_span_context_round_trips_over_a_pipe_payload(self):
        ctx = SpanContext(obs.new_trace_id(), obs.new_span_id())
        assert SpanContext.from_dict(ctx.to_dict()).to_dict() == ctx.to_dict()
        assert SpanContext.from_dict(None) is None
        assert SpanContext.from_dict({"trace": "", "span": "x"}) is None


class TestRecorder:
    def test_drain_by_trace_leaves_other_traces_in_place(self):
        recorder = SpanRecorder()
        a = recorder.start_span("a")
        b = recorder.start_span("b")
        a.end()
        b.end()
        got = recorder.drain(trace_id=a.context.trace_id)
        assert [s["name"] for s in got] == ["a"]
        assert [s["name"] for s in recorder.drain()] == ["b"]

    def test_recent_window_survives_a_drain(self):
        recorder = SpanRecorder(recent_capacity=8)
        recorder.start_span("x").end()
        recorder.drain()
        assert [s["name"] for s in recorder.recent()] == ["x"]

    def test_capacity_drops_oldest_and_counts_them(self):
        recorder = SpanRecorder(capacity=2)
        for i in range(5):
            recorder.start_span(f"s{i}").end()
        assert recorder.dropped == 3
        assert [s["name"] for s in recorder.drain()] == ["s3", "s4"]

    def test_adopt_absorbs_only_schema_v1_dicts(self):
        recorder = SpanRecorder()
        donor = SpanRecorder()
        donor.start_span("shipped").end()
        shipped = donor.drain()
        count = recorder.adopt(shipped + [{"v": 99}, "junk"])
        assert count == 1
        assert recorder.drain() == shipped

    def test_adopt_past_capacity_counts_drops_and_bounds_recent(self):
        recorder = SpanRecorder(capacity=3, recent_capacity=2)
        donor = SpanRecorder()
        for i in range(5):
            donor.start_span(f"s{i}").end()
        assert recorder.adopt(donor.drain()) == 5
        assert recorder.recorded == 5 and recorder.dropped == 2
        assert [s["name"] for s in recorder.recent()] == ["s3", "s4"]
        assert [s["name"] for s in recorder.recent(1)] == ["s4"]
        assert [s["name"] for s in recorder.drain()] == ["s2", "s3", "s4"]


# -- export + validation ---------------------------------------------------


def _make_tree(recorder):
    with recorder.start_span("root", kind="cli") as root:
        with recorder.start_span("mid", kind="campaign.task"):
            recorder.start_span("leaf", kind="task.attempt").end()
    return root.context.trace_id


class TestExportAndValidate:
    def test_jsonl_round_trip_validates_clean(self, tmp_path):
        recorder = obs.enable()
        _make_tree(recorder)
        path = tmp_path / "spans.jsonl"
        drained = recorder.drain()
        assert write_jsonl(drained, path) == 3
        spans = read_jsonl(path, decode=dict)
        assert spans == drained
        assert validate_spans(spans, single_trace=True) == []

    def test_reader_takes_sorted_spaced_span_lines(self, tmp_path):
        """Span logs written one ``json.dumps(span, sort_keys=True)`` per
        line, with default separators, read back as the same dicts."""
        recorder = obs.enable()
        _make_tree(recorder)
        drained = recorder.drain()
        path = tmp_path / "sorted.jsonl"
        path.write_text(
            "".join(json.dumps(s, sort_keys=True) + "\n" for s in drained)
        )
        assert read_jsonl(path, decode=dict) == drained

    def test_validation_catches_the_broken_shapes(self):
        recorder = obs.enable()
        _make_tree(recorder)
        spans = recorder.drain()
        spans[0]["end"] = spans[0]["start"] - 1.0
        spans[1]["parent"] = "f" * 16
        spans[2]["trace"] = obs.new_trace_id()
        dup = dict(spans[0])
        errors = validate_spans(spans + [dup, {"v": 1}], single_trace=True)
        text = "\n".join(errors)
        assert "end < start" in text
        assert "not in export" in text
        assert "duplicate span id" in text
        assert "missing keys" in text
        assert "single trace" in text

    def test_chrome_export_normalises_time_and_tracks_processes(self):
        recorder = obs.enable()
        _make_tree(recorder)
        doc = obs.spans_to_chrome(recorder.drain())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(slices) == 3
        assert min(e["ts"] for e in slices) == 0.0
        assert all(e["dur"] >= 0.0 for e in slices)
        assert {e["args"]["name"] for e in meta} == {f"pid {os.getpid()}"}
        # all three spans share one trace, hence one chrome thread lane
        assert len({e["tid"] for e in slices}) == 1


# -- telemetry maths -------------------------------------------------------


def _span(kind, start, end, outcome="ok", attrs=None, trace="t" * 32):
    return {
        "v": 1, "trace": trace, "span": obs.new_span_id(), "parent": None,
        "name": kind, "kind": kind, "start": start, "end": end,
        "outcome": outcome, "pid": 1, "attrs": attrs or {},
    }


class TestTelemetry:
    def test_percentile_is_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([], 0.5) == 0.0

    def test_summarize_counts_retries_cache_hits_and_queue_wait(self):
        spans = [
            _span("task.attempt", 0.0, 1.0),
            _span("task.attempt", 0.0, 1.0, outcome="failed",
                  attrs={"attempt": 2}),
            _span("campaign.task", 0.0, 1.0, attrs={"cache": "hit"}),
            _span("task.queue", 0.0, 0.5),
            _span("task.queue", 0.0, 0.25),
        ]
        summary = summarize(spans)
        assert summary.spans == 5 and summary.traces == 1
        assert summary.retries == 1
        assert summary.cache_hits == 1
        assert summary.queued == 2
        assert summary.queue_wait_max_s == pytest.approx(0.5)
        assert summary.outcomes["failed"] == 1
        attempt = summary.phases["task.attempt"]
        assert attempt.count == 2 and attempt.failed == 1

    def test_summarize_flags_stragglers(self):
        spans = [_span("task.attempt", 0.0, 0.1) for _ in range(9)]
        spans.append(_span("task.attempt", 0.0, 5.0, attrs={"task": "slow"}))
        summary = summarize(spans)
        assert len(summary.stragglers) == 1
        assert summary.stragglers[0]["task"] == "slow"
        assert summary.stragglers[0]["factor"] > 4.0

    def test_fleet_prometheus_text_is_well_formed(self):
        spans = [_span("task.attempt", 0.0, 1.0),
                 _span("task.queue", 0.0, 0.5)]
        text = fleet_prometheus_text(summarize(spans))
        assert "# TYPE repro_obs_spans_total counter" in text
        assert "# TYPE repro_obs_phase_seconds gauge" in text
        assert "repro_obs_spans_total 2" in text
        assert 'repro_obs_phase_seconds{kind="task.attempt",quantile="0.5"}' in text
        assert 'repro_obs_outcome_total{outcome="ok"} 2' in text

    def test_render_report_reads_like_a_table(self):
        spans = [_span("task.attempt", 0.0, 1.0)]
        report = render_report(summarize(spans))
        assert "spans 1" in report and "task.attempt" in report


# -- satellite: task record timestamps ------------------------------------


class TestTaskRecordTimestamps:
    def test_queue_wait_is_start_minus_queue(self):
        record = TaskRecord(name="t", status="ok", elapsed=1.0,
                            queued_at=10.0, started_at=12.5, finished_at=14.0)
        assert record.queue_wait == pytest.approx(2.5)
        early = TaskRecord(name="t", status="ok", queued_at=12.5,
                           started_at=10.0)
        assert early.queue_wait == 0.0  # clock skew never goes negative

    def test_unset_timestamps_mean_zero_wait(self):
        assert TaskRecord(name="t", status="ok", elapsed=0.0).queue_wait == 0.0

    def test_engine_stamps_lifecycle_times(self, tmp_path):
        engine = CampaignEngine(jobs=1, db=tmp_path / "c.sqlite")
        record = engine.run(
            [CampaignTask(name="t", fn=compute, kwargs={"x": 1})]
        ).records[0]
        assert record.queued_at > 0
        assert record.finished_at >= record.started_at >= record.queued_at


# -- end-to-end: campaign engine ------------------------------------------


def _kind_counts(spans):
    counts = {}
    for span in spans:
        counts[span["kind"]] = counts.get(span["kind"], 0) + 1
    return counts


class TestEngineTracing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_yields_one_closed_tree(self, tmp_path, jobs):
        recorder = obs.enable()
        engine = CampaignEngine(jobs=jobs, db=tmp_path / "c.sqlite")
        tasks = [CampaignTask(name=f"t{i}", fn=compute, kwargs={"x": i})
                 for i in range(4)]
        report = engine.run(tasks)
        assert report.status == "pass"
        spans = recorder.drain()
        assert validate_spans(spans, single_trace=True) == []
        counts = _kind_counts(spans)
        assert counts["campaign.run"] == 1
        assert counts["campaign.task"] == 4
        assert counts["task.attempt"] == 4
        assert counts["task.queue"] == 4
        pids = {s["pid"] for s in spans if s["kind"] == "task.attempt"}
        if jobs == 2:
            assert len(pids) == 2, "attempts should come from two workers"
        else:
            assert pids == {os.getpid()}, "jobs=1 attempts run in process"
        assert "queue-wait" in engine.summary_line()

    def test_cache_hits_are_marked_and_instant(self, tmp_path):
        db = tmp_path / "c.sqlite"
        CampaignEngine(jobs=1, db=db).run(
            [CampaignTask(name="t", fn=compute, kwargs={"x": 1})])
        recorder = obs.enable()
        CampaignEngine(jobs=1, db=db).run(
            [CampaignTask(name="t", fn=compute, kwargs={"x": 1})])
        cached = [s for s in recorder.drain() if s["kind"] == "campaign.task"]
        assert cached[0]["attrs"]["cache"] == "hit"

    def test_crashed_worker_still_closes_the_parent_span(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crash.marker"
        monkeypatch.setenv(TEST_CRASH_ENV, f"victim={marker}")
        recorder = obs.enable()
        engine = CampaignEngine(jobs=2, retries=0, backoff=0.01,
                                db=tmp_path / "c.sqlite")
        report = engine.run([
            CampaignTask(name="victim", fn=compute, kwargs={"x": 1}),
            CampaignTask(name="fine", fn=compute, kwargs={"x": 2}),
        ])
        assert marker.exists()
        assert report.record("victim").status == "failed"
        spans = recorder.drain()
        assert validate_spans(spans, single_trace=True) == []
        victim = [s for s in spans if s["kind"] == "campaign.task"
                  and s["attrs"].get("task") == "victim"]
        assert victim and victim[0]["outcome"] == "failed"
        # The worker died before shipping its span: the coordinator
        # synthesizes the attempt from its own clocks instead.
        synthesized = [s for s in spans if s["kind"] == "task.attempt"
                       and s["attrs"].get("synthesized")]
        assert synthesized and synthesized[0]["parent"] == victim[0]["span"]

    def test_retry_produces_one_attempt_span_per_try(self, tmp_path):
        recorder = obs.enable()
        engine = CampaignEngine(jobs=2, retries=1, backoff=0.01,
                                db=tmp_path / "c.sqlite")
        report = engine.run([CampaignTask(name="doomed", fn=always_fail)])
        assert report.record("doomed").attempts == 2
        attempts = [s for s in recorder.drain() if s["kind"] == "task.attempt"]
        assert sorted(s["attrs"]["attempt"] for s in attempts) == [1, 2]
        assert all(s["outcome"] == "failed" for s in attempts)


# -- end-to-end: service ---------------------------------------------------


async def _poll_terminal(host, port, job_id, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, _, data = await http_request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200, data
        if data["state"] in TERMINAL_STATES:
            return data
        await asyncio.sleep(0.03)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestServiceTracing:
    def test_job_trace_nests_service_engine_and_oracle(self, tmp_path):
        db_path = tmp_path / "svc.sqlite"

        async def scenario():
            service = LeakcheckService(str(db_path), port=0, concurrency=1)
            await service.start()
            host, port = service.host, service.port
            spec = {"kind": "probe", "spec": {"ops": 200, "seed": 1}}
            status, _, job = await http_request(host, port, "POST", "/jobs", spec)
            assert status == 202 and job["trace_id"]
            final = await _poll_terminal(host, port, job["id"])
            assert final["state"] == DONE

            status, _, debug = await http_request(host, port, "GET", "/debug/spans")
            assert status == 200 and debug["enabled"]
            status, _, text = await http_request(host, port, "GET", "/metrics")
            assert "repro_obs_spans_total" in text
            await service.close()
            return job["trace_id"]

        trace = asyncio.run(scenario())
        with CampaignDB(str(db_path)) as db:
            spans = db.spans(trace)
        assert validate_spans(spans, single_trace=True) == []
        by_id = {s["span"]: s for s in spans}
        kinds = _kind_counts(spans)
        for kind in ("service.job", "job.queue", "job.run",
                     "campaign.run", "campaign.task", "task.attempt"):
            assert kinds.get(kind), f"missing {kind} in {sorted(kinds)}"
        run = next(s for s in spans if s["kind"] == "campaign.run")
        job_run = by_id[run["parent"]]
        assert job_run["kind"] == "job.run"
        assert by_id[job_run["parent"]]["kind"] == "service.job"

    def test_journal_resume_keeps_the_original_trace_id(self, tmp_path):
        db_path = tmp_path / "svc.sqlite"
        original = obs.new_trace_id()
        spec = {"ops": 150, "seed": 3}
        with CampaignDB(str(db_path)) as db:
            db.journal_put(
                job_id="abandoned1", kind="probe",
                spec=json.dumps(spec, sort_keys=True), state=QUEUED,
                trace=original,
            )

        async def scenario():
            # A restart after kill -9: the journal row is all that's left.
            service = LeakcheckService(str(db_path), port=0, concurrency=1)
            await service.start()
            final = await _poll_terminal(
                service.host, service.port, "abandoned1")
            assert final["state"] == DONE
            assert final["trace_id"] == original
            await service.close()

        asyncio.run(scenario())
        with CampaignDB(str(db_path)) as db:
            spans = db.spans(original)
        assert any(s["kind"] == "service.job" for s in spans)
        assert all(s["trace"] == original for s in spans)

    def test_drain_emits_a_structured_summary_and_checkpoint_spans(
        self, tmp_path, probe_gate
    ):
        db_path = tmp_path / "svc.sqlite"

        async def scenario():
            service = LeakcheckService(
                str(db_path), port=0, concurrency=1, drain_grace=5.0)
            await service.start()
            # Hold the single worker on the gate with one job, then queue
            # a second: draining must checkpoint the queued one.
            held = {"kind": "probe", "spec": {"ops": 200, "seed": 1}}
            fast = {"kind": "probe", "spec": {"ops": 200, "seed": 2}}
            host, port = service.host, service.port
            _, _, running = await http_request(host, port, "POST", "/jobs", held)
            deadline = time.monotonic() + 10
            while running["state"] != RUNNING and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
                _, _, running = await http_request(
                    host, port, "GET", f"/jobs/{running['id']}")
            assert running["state"] == RUNNING
            status, _, queued = await http_request(host, port, "POST", "/jobs", fast)
            assert status == 202
            service.begin_drain()
            probe_gate.set()
            await service.close()
            line = service.drain_summary_line()
            assert line.startswith("drain: ")
            report = json.loads(line[len("drain: "):])
            assert report["checkpointed_jobs"] == [queued["id"]]
            return queued["trace_id"]

        trace = asyncio.run(scenario())
        with CampaignDB(str(db_path)) as db:
            spans = db.spans(trace)
        checkpoint = [s for s in spans if s["kind"] == "job.checkpoint"]
        assert checkpoint and checkpoint[0]["outcome"] == "checkpointed"


# -- CLI -------------------------------------------------------------------


class TestCliSpans:
    def test_spans_flag_writes_all_three_artifacts(self, capsys, tmp_path):
        out = tmp_path / "spans.jsonl"
        assert main(["figures", "fig8", "--quick", "--out", str(tmp_path),
                     "--spans", str(out)]) == 0
        assert obs.active() is None, "CLI must tear the recorder down"
        spans = read_jsonl(out, decode=dict)
        assert validate_spans(spans, single_trace=True) == []
        kinds = _kind_counts(spans)
        assert kinds["cli"] == 1 and kinds["campaign.run"] == 1
        assert (tmp_path / "spans.jsonl.chrome.json").exists()
        prom = (tmp_path / "spans.jsonl.prom").read_text()
        assert "repro_obs_spans_total" in prom

    def test_spans_report_and_tail_read_the_export(self, capsys, tmp_path):
        out = tmp_path / "spans.jsonl"
        assert main(["figures", "fig8", "--quick", "--out", str(tmp_path),
                     "--jobs", "2", "--spans", str(out)]) == 0
        capsys.readouterr()
        assert main(["spans", "report", str(out), "--strict"]) == 0
        report = capsys.readouterr().out
        assert "campaign.run" in report and "queue-wait" in report
        assert main(["spans", "tail", str(out), "--limit", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_spans_export_converts_between_formats(self, capsys, tmp_path):
        src = tmp_path / "spans.jsonl"
        assert main(["figures", "fig8", "--quick", "--out", str(tmp_path),
                     "--spans", str(src)]) == 0
        dst = tmp_path / "copy.jsonl"
        chrome = tmp_path / "copy.chrome.json"
        assert main(["spans", "export", str(src), "--out", str(dst),
                     "--chrome", str(chrome)]) == 0
        assert read_jsonl(dst, decode=dict) == read_jsonl(src, decode=dict)
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_strict_report_fails_on_an_empty_log(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["spans", "report", str(empty), "--strict"]) == 1

    @pytest.mark.parametrize("command", ["report", "export"])
    @pytest.mark.parametrize("content, where", [
        ('{"v": 1}\n\nnot json\n', ":3: not a JSON line"),
        ("[1, 2]\n", ":1: expected a JSON object"),
    ], ids=["not_json", "not_object"])
    def test_malformed_line_names_file_and_line(self, capsys, tmp_path,
                                                command, content, where):
        log = tmp_path / "bad.jsonl"
        log.write_text(content)
        argv = ["spans", command, str(log)]
        if command == "export":
            argv += ["--out", str(tmp_path / "copy.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {log}{where}")

    def test_report_reads_spans_from_a_campaign_db(self, capsys, tmp_path):
        db_path = tmp_path / "svc.sqlite"

        async def scenario():
            service = LeakcheckService(str(db_path), port=0, concurrency=1)
            await service.start()
            spec = {"kind": "probe", "spec": {"ops": 200, "seed": 1}}
            _, _, job = await http_request(
                service.host, service.port, "POST", "/jobs", spec)
            await _poll_terminal(service.host, service.port, job["id"])
            await service.close()

        asyncio.run(scenario())
        assert main(["spans", "report", str(db_path), "--strict"]) == 0
        assert "service.job" in capsys.readouterr().out
