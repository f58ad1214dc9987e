"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info [--preset sct|ht|sgx]``
    Print the machine configuration and metadata layout of a preset.

``list``
    List every experiment in ``repro.analysis.figures.FIGURES`` and its
    paper reference.

``figures [NAME ...] [--quick] [--out DIR] [--jobs N] [--no-cache]
[--campaign-db FILE] [--timeout S] [--retries N] [--fail-fast]``
    Regenerate paper figures (all by default) through the crash-isolated
    campaign engine: figures fan out across ``--jobs`` worker processes
    (0 = one per CPU core), each gets a wall-clock budget and bounded
    retries, a crashing or hung worker is reaped and its figure retried
    on a fresh worker, and every finished figure is recorded in the
    campaign DB as it lands.  Re-running against the same DB (by
    default ``OUT/campaign.sqlite``) resumes an interrupted batch: only
    figures with no ``ok`` row for this git revision execute.  Each
    table ends with one line per shape claim; the run exits 1 when a
    claim of its scale (``quick`` claims under ``--quick``, every claim
    otherwise) does not hold.

``faults [--preset sct|ht|sgx|all] [--sites N] [--seed S] [--jobs N]
[--no-cache] [--campaign-db FILE] [--timeout S] [--retries N]``
    Sweep seeded fault-injection campaigns against the functional-crypto
    machines (one campaign task per preset, sharded across ``--jobs``
    workers) and print the tamper-detection coverage matrix.  Exits
    non-zero unless every protected-state corruption was detected with
    zero false positives.

``channel [--bits N] [--noise READS] [--votes V] [--retries R]
[--budget CYCLES] [--gate ACC] [--seed S]``
    One ECC-framed covert transmission under a conflicting co-runner:
    the noisy-channel smoke test.  Prints raw vs post-ECC accuracy,
    goodput and degradation flags; exits non-zero if the framed payload
    accuracy falls below ``--gate`` (a fraction in [0, 1]).

``trace --victim NAME [--secret a|b] [--seed S] [--out FILE]
[--chrome FILE] [--capacity N]``
    Run one leakcheck victim under the structured event tracer and
    export the metadata event stream as JSONL and/or Chrome
    ``trace_event`` JSON (loadable in Perfetto / chrome://tracing).
    Prints per-kind event counts and the machine counter snapshot.

``leakcheck --victim NAME [--seed S] [--seeds N] [--alpha P]
[--json FILE] [--expect leaky|clean] [--jobs N] [--no-cache]
[--campaign-db FILE] [--timeout S] [--retries N]``
    Automated leakage detection: run the victim twice under paired
    secrets with identical public inputs and diff the metadata event
    streams (count + KS tests per event kind).  ``--seeds N`` sweeps N
    consecutive seeds (sharded across ``--jobs`` workers); ``--expect``
    requires every swept seed to match and turns the verdict into an
    exit code for CI gating.

``serve [--host H] [--port P] [--capacity N] [--concurrency N]
[--jobs N] [--timeout S] [--retries N] [--backoff S] [--drain-grace S]
[--campaign-db FILE] [--no-spans]``
    Run the fault-tolerant leakcheck job service: an HTTP server that
    accepts probe/leakcheck/synth jobs as JSON, journals every accepted
    job in the campaign DB before acknowledging it (jobs survive
    ``kill -9`` and resume on restart), dedups repeat submissions via
    the campaign result cache, sheds overload with 429 +
    ``Retry-After``, and drains gracefully on SIGTERM/SIGINT (exit 0).
    See ``docs/service.md``.

``spans {report,export,tail} [SOURCE]``
    Fleet telemetry over recorded span logs (docs/observability.md).
    SOURCE is a span JSONL file (from ``--spans``) or a campaign DB
    (``repro serve`` persists job traces there); default is the
    resolved campaign DB.  ``report`` prints per-kind latency
    percentiles, outcome/retry/straggler and queue-wait summaries
    (``--strict`` validates the log and gates CI); ``export`` rewrites
    a trace as JSONL / Chrome ``trace_event`` / Prometheus text;
    ``tail`` prints the most recent spans.  A JSONL line that is not a
    JSON object exits 2 with ``error: FILE:LINE: ...``.

``service-load --port P [-n N] [--concurrency N] [--kind K]
[--spec JSON] [--same-seed] [--json FILE]``
    Load-generate against a running service: submit N jobs, honour 429
    back-pressure, poll all jobs to a terminal state, and report
    sustained jobs/sec.  Exits non-zero unless every job reached
    ``done``.

``profile --victim NAME [--preset sct|ht|sgx] [--seed S]
[--collapsed FILE] [--prom FILE] [--min-share F]``
    Run one victim under the cycle-attribution profiler and print the
    hierarchical where-did-the-cycles-go report (conservation-checked).
    ``--collapsed`` exports flamegraph-ready collapsed stacks; ``--prom``
    exports the counter registry in Prometheus text format;
    ``--min-share`` (a fraction in [0, 1]) hides components below that
    share of a bucket's cycles.

``synth {generate,run,minimize,corpus,verify}``
    Attack-synthesis fuzzer (docs/synth.md).  ``generate`` prints seeded
    random IR programs; ``run`` fans a fuzz batch through the campaign
    engine against the leakcheck oracle, which records every result in
    the campaign DB (``--expect-leaky N`` turns the tally into a CI
    gate); the leaking programs that DB holds are the corpus.
    ``minimize`` delta-debugs corpus finds (or a ``--program`` JSON)
    into minimal witnesses per channel target; ``corpus`` prints
    per-(component, kind) coverage; both read ``--campaign-db`` (default:
    env ``REPRO_CAMPAIGN_DB``, else the cwd default).  ``verify`` re-runs
    checked-in witness files against the oracle and exits non-zero on
    any that went stale.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.analysis.report import format_result

#: Default campaign DB location; override per-invocation with
#: ``--campaign-db`` or globally with ``REPRO_CAMPAIGN_DB``.
_DEFAULT_CAMPAIGN_DB = ".repro-campaign.sqlite"

# -- shared option validation (consistent across subcommands) -------------


def _jobs_count(value: str) -> int:
    """``--jobs``: positive worker count; 0 means one per CPU core."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs must be an integer, got {value!r}"
        ) from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one worker per CPU core), got {jobs}"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def _count(value: str) -> int:
    """A non-negative integer: ``--retries`` and ``channel --noise``."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {number}"
        )
    return number


def _seconds(value: str, *, positive: bool) -> float:
    """A wait the campaign engine accepts
    (:func:`repro.campaign.worker.check_seconds`): finite, at most
    ``MAX_TIMEOUT_S``, and positive or, unless ``positive``, zero."""
    from repro.campaign.worker import MAX_TIMEOUT_S, check_seconds

    try:
        return check_seconds("seconds", float(value), positive=positive)
    except ValueError:
        low = "(0" if positive else "[0"
        raise argparse.ArgumentTypeError(
            f"expected seconds in {low}, {MAX_TIMEOUT_S}], got {value!r}"
        ) from None


def _timeout_seconds(value: str) -> float:
    """``--timeout`` and the other waits: positive seconds."""
    return _seconds(value, positive=True)


def _backoff_seconds(value: str) -> float:
    """``serve --backoff``: seconds, zero included."""
    return _seconds(value, positive=False)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {number}"
        )
    return number


def _fraction(value: str) -> float:
    """A fraction in [0, 1]; ``nan`` and the infinities are not."""
    try:
        fraction = float(value)
    except ValueError:
        fraction = None
    if fraction is None or not 0.0 <= fraction <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a fraction in [0, 1], got {value!r}"
        )
    return fraction


def _alpha(value: str) -> float:
    """``--alpha``: a significance level strictly inside (0, 1), the
    rule service job specs follow; ``nan`` and the infinities are not."""
    try:
        alpha = float(value)
    except ValueError:
        alpha = None
    if alpha is None or not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a significance level in (0, 1), got {value!r}"
        )
    return alpha


def _port(value: str, lowest: int) -> int:
    try:
        port = int(value)
    except ValueError:
        port = None
    if port is None or not lowest <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port in [{lowest}, 65535], got {value!r}"
        )
    return port


def _listen_port(value: str) -> int:
    """``serve --port``: a TCP port, where 0 picks a free one."""
    return _port(value, 0)


def _service_port(value: str) -> int:
    """``service-load --port``: the TCP port a service listens on."""
    return _port(value, 1)


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    """The campaign-engine flags shared by figures/faults/leakcheck/synth run."""
    parser.add_argument(
        "--jobs", type=_jobs_count, default=1, metavar="N",
        help="worker processes (0 = one per CPU core; default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not serve results from the campaign DB (still records runs)",
    )
    parser.add_argument(
        "--campaign-db", metavar="FILE", default=None,
        help="persistent campaign DB path (default: env REPRO_CAMPAIGN_DB, "
        f"else OUT/campaign.sqlite when --out is given, else "
        f"{_DEFAULT_CAMPAIGN_DB})",
    )
    parser.add_argument(
        "--timeout", type=_timeout_seconds, default=None, metavar="S",
        help="wall-clock budget per task in seconds, at most 2**31 - 1 "
        "(default: none)",
    )
    parser.add_argument(
        "--retries", type=_count, default=0, metavar="N",
        help="retry failed/crashed tasks up to N times with backoff",
    )
    parser.add_argument(
        "--spans", metavar="FILE", default=None,
        help="trace this invocation and export the span tree as JSONL "
        "(plus FILE.chrome.json and FILE.prom; default: env REPRO_SPANS)",
    )


def _resolve_campaign_db(
    args: argparse.Namespace,
    out_dir: str | os.PathLike[str] | None = None,
) -> str | pathlib.Path:
    """``--campaign-db`` > ``REPRO_CAMPAIGN_DB`` > OUT dir > cwd default."""
    if args.campaign_db:
        return args.campaign_db
    env = os.environ.get("REPRO_CAMPAIGN_DB")
    if env:
        return env
    if out_dir is not None:
        return pathlib.Path(out_dir) / "campaign.sqlite"
    return _DEFAULT_CAMPAIGN_DB


def _campaign_engine(
    args: argparse.Namespace,
    *,
    out_dir: str | os.PathLike[str] | None = None,
    reseed_base: int | None = None,
    fail_fast: bool = False,
):
    from repro.campaign import CampaignEngine

    return CampaignEngine(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        reseed_base=reseed_base,
        db=_resolve_campaign_db(args, out_dir),
        use_cache=not args.no_cache,
        fail_fast=fail_fast,
    )


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.config import preset_config
    from repro.proc import SecureProcessor

    config = preset_config(args.preset)
    proc = SecureProcessor(config)
    print(f"preset          : {config.name}")
    print(f"cores/sockets   : {config.cores}/{config.sockets}")
    print(f"integrity tree  : {config.tree.kind.value} arities={config.tree.arities}")
    print(f"counter scheme  : {config.counters.scheme.value}")
    print(f"update policy   : {config.tree_update_policy.value}")
    print(f"metadata cache  : {config.metadata_cache.size_bytes // 1024} KiB, "
          f"{config.metadata_cache.ways}-way, {config.metadata_cache.replacement}")
    print()
    print(proc.layout.describe())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.analysis.figures import FIGURES

    for name, figure in FIGURES.items():
        print(f"{name:<20} {figure.label}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import FIGURES
    from repro.analysis.report import FULL, QUICK
    from repro.campaign import CampaignTask
    from repro.perf import prometheus_text

    names = args.names or list(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {unknown}; see 'python -m repro list'",
              file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    scale = QUICK if args.quick else FULL
    tasks = [
        CampaignTask(
            name=name,
            fn=FIGURES[name].fn,
            kwargs=FIGURES[name].quick if args.quick else {},
        )
        for name in names
    ]
    broken: list[tuple[str, str]] = []

    def _on_record(record) -> None:
        if record.status == "skipped":
            print(f"-- {record.name}: {record.error}\n")
            return
        if not record.ok:
            print(f"!! {record.name} failed: {record.error}", file=sys.stderr)
            return
        text = format_result(record.result)
        print(text)
        broken.extend(
            (record.name, claim.name)
            for claim in record.result.broken_claims(scale)
        )
        if record.cached:
            print("   [campaign cache]\n")
        else:
            print(f"   [{record.elapsed:.1f}s]\n")
        if out_dir:
            (out_dir / f"{record.name}.txt").write_text(text + "\n")

    engine = _campaign_engine(
        args,
        out_dir=out_dir,
        reseed_base=args.seed,
        fail_fast=args.fail_fast,
    )
    report = engine.run(tasks, on_record=_on_record)
    print(report.summary())
    print(engine.summary_line())
    for name, claim in broken:
        print(f"!! {name}: {scale}-scale claim broken: {claim}", file=sys.stderr)
    if out_dir:
        (out_dir / "campaign_metrics.prom").write_text(
            prometheus_text(engine.registry, namespace="repro_campaign")
        )
    return 0 if report.status == "pass" and not broken else 1


def _cmd_channel(args: argparse.Namespace) -> int:
    from repro.analysis.report import experiment_machine
    from repro.attacks.covert import CovertChannelT
    from repro.attacks.framing import ReliableChannel
    from repro.attacks.noise import co_located_noise
    from repro.config import MIB
    from repro.utils.rng import derive_rng

    rng = derive_rng(args.seed, "cli-channel")
    payload = [rng.randint(0, 1) for _ in range(args.bits)]
    proc, allocator = experiment_machine("sct", protected_size=128 * MIB)
    channel = CovertChannelT(proc, allocator)
    if args.noise:
        channel.noise = co_located_noise(
            channel, allocator, reads_per_step=args.noise
        )
    raw = channel.transmit(payload)
    framed = ReliableChannel(channel).send(
        payload,
        max_retries=args.retries,
        votes=args.votes,
        budget=args.budget,
    )
    print(f"payload bits     : {args.bits}")
    print(f"noise reads/step : {args.noise}")
    print(f"raw accuracy     : {raw.accuracy:.4f}")
    print(f"raw wire BER     : {framed.raw_ber:.4f}")
    print(f"ECC accuracy     : {framed.payload_accuracy:.4f}")
    print(f"goodput          : {framed.goodput_bits_per_kilocycle:.4f} bits/kcycle")
    print(f"frames delivered : {framed.frames_delivered}/{len(framed.delivered)} "
          f"(retransmissions={framed.retransmissions}, "
          f"corrected bits={framed.corrected_bits})")
    if framed.degraded:
        print(f"degraded         : {', '.join(framed.degraded_reasons)}")
    if framed.payload_accuracy < args.gate:
        print(
            f"FAIL: ECC payload accuracy {framed.payload_accuracy:.4f} "
            f"below gate {args.gate}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignTask
    from repro.config import PRESETS
    from repro.faults import campaign_figure_result, run_campaign

    presets = list(PRESETS) if args.preset == "all" else [args.preset]
    tasks = [
        CampaignTask(
            name=f"faults_{preset}",
            fn=run_campaign,
            kwargs={"preset": preset, "sites": args.sites, "seed": args.seed},
        )
        for preset in presets
    ]
    engine = _campaign_engine(args)
    batch = engine.run(tasks)
    reports = {
        preset: record.result
        for preset, record in zip(presets, batch.records)
        if record.ok
    }
    if reports:
        print(format_result(campaign_figure_result(reports)))
    print(engine.summary_line())
    for preset, record in zip(presets, batch.records):
        if not record.ok:
            print(f"!! {preset}: campaign task {record.status}: "
                  f"{record.error}", file=sys.stderr)
    all_detected = bool(reports) and all(
        report.fully_detected for report in reports.values()
    )
    for preset, report in reports.items():
        if not report.fully_detected:
            for outcome in report.failures():
                print(
                    f"!! {preset}: site {outcome.index} ({outcome.site.value}) "
                    f"{outcome.description}: {outcome.note}",
                    file=sys.stderr,
                )
    return 0 if all_detected and len(reports) == len(presets) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.config import preset_config
    from repro.leakcheck import get_victim
    from repro.proc import SecureProcessor
    from repro.trace import Tracer, write_chrome_trace, write_jsonl

    spec = get_victim(args.victim)
    secrets = spec.secrets(args.seed)
    secret = secrets[0] if args.secret == "a" else secrets[1]
    proc = SecureProcessor(preset_config("sct", functional_crypto=False))
    tracer = Tracer(capacity=args.capacity)
    proc.attach(tracer)
    spec.run(proc, secret)
    events = tracer.events()
    print(f"victim={spec.name} secret={args.secret} seed={args.seed}: "
          f"{len(events)} events ({tracer.dropped} dropped)")
    for (component, kind), count in sorted(tracer.counts().items()):
        print(f"  {component:<18} {kind:<16} {count}")
    if args.out:
        written = write_jsonl(events, args.out)
        print(f"wrote {written} events to {args.out}")
    if args.chrome:
        write_chrome_trace(events, args.chrome)
        print(f"wrote Chrome trace_event JSON to {args.chrome}")
    snapshot = proc.registry.snapshot()
    print("counters (non-zero):")
    for path in sorted(snapshot):
        if snapshot[path]:
            print(f"  {path:<28} {snapshot[path]:g}")
    return 0


def _cmd_leakcheck(args: argparse.Namespace) -> int:
    import json as _json
    import pathlib as _pathlib

    from repro.leakcheck import build_leakcheck_tasks, list_victims

    if args.list:
        for spec in list_victims():
            print(f"{spec.name:<10} {spec.description}")
        return 0
    if args.victim is None:
        print("error: --victim is required (or --list to enumerate)",
              file=sys.stderr)
        return 2
    seeds = [args.seed + offset for offset in range(args.seeds)]
    tasks = build_leakcheck_tasks(
        args.victim, seed=args.seed, seeds=args.seeds, alpha=args.alpha
    )
    engine = _campaign_engine(args)
    batch = engine.run(tasks)
    reports = []
    failed = False
    for seed, record in zip(seeds, batch.records):
        if not record.ok:
            failed = True
            print(f"!! seed {seed}: leakcheck task {record.status}: "
                  f"{record.error}", file=sys.stderr)
            continue
        reports.append(record.result)
        for line in record.result.summary_lines():
            print(line)
    if args.seeds > 1:
        print(engine.summary_line())
    if args.json and reports:
        if len(reports) == 1:
            _pathlib.Path(args.json).write_text(reports[0].to_json() + "\n")
        else:
            _pathlib.Path(args.json).write_text(
                _json.dumps([r.to_dict() for r in reports], indent=2,
                            sort_keys=True) + "\n"
            )
        print(f"wrote report to {args.json}")
    if args.expect is not None:
        expected_leaky = args.expect == "leaky"
        for report in reports:
            if report.leaky != expected_leaky:
                print(
                    f"FAIL: seed {report.seed}: expected {args.expect}, got "
                    f"{'leaky' if report.leaky else 'clean'}",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import LeakcheckService

    async def _serve() -> int:
        service = LeakcheckService(
            str(_resolve_campaign_db(args)),
            host=args.host,
            port=args.port,
            capacity=args.capacity,
            concurrency=args.concurrency,
            job_timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            engine_jobs=args.jobs,
            drain_grace=args.drain_grace,
            spans=not args.no_spans,
        )
        await service.start()
        loop = asyncio.get_running_loop()
        # SIGTERM/SIGINT start a graceful drain: stop admitting, let
        # running jobs finish (or checkpoint them), exit 0.  A second
        # signal is absorbed by the same idempotent handler, so an
        # impatient operator cannot corrupt the drain.
        for signo in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signo, service.begin_drain)
        print(
            f"leakcheck service listening on "
            f"http://{service.host}:{service.port} "
            f"(db={service.db_path}, capacity={service.capacity}, "
            f"workers={service.concurrency})",
            flush=True,
        )
        await service.wait_closed()
        # close() waits for any job a forced drain left running, so its
        # campaign run is recorded before the DB closes.
        await service.close()
        if service.drain_report is not None:
            # One machine-parseable line per drain: what was
            # checkpointed, what was force-stopped, under what grace.
            print(service.drain_summary_line(), flush=True)
        print(service.summary_line())
        return 0

    return asyncio.run(_serve())


def _load_spans(
    source: str | os.PathLike[str], trace: str | None = None
) -> list[dict]:
    """Read schema-v1 span dicts from a JSONL file or a campaign DB.

    Detection is by content, not extension: SQLite files carry a fixed
    16-byte magic, anything else is treated as a JSONL span log.
    """
    from repro.trace import read_jsonl

    path = pathlib.Path(source)
    if not path.exists():
        raise ValueError(f"span source not found: {path}")
    with open(path, "rb") as handle:
        magic = handle.read(16)
    if magic.startswith(b"SQLite format 3"):
        from repro.campaign import CampaignDB

        db = CampaignDB(str(path))
        try:
            return db.spans(trace)
        finally:
            db.close()
    spans = read_jsonl(path, decode=dict)
    if trace:
        spans = [s for s in spans if s.get("trace") == trace]
    return spans


def _write_span_files(
    spans: list[dict],
    out: str | os.PathLike[str],
    *,
    chrome: str | os.PathLike[str] | None,
    prom: str | os.PathLike[str] | None,
) -> list[str]:
    """Write a span log as JSONL to ``out``, plus the optional Chrome
    ``trace_event`` timeline and Prometheus fleet summary; returns the
    paths written."""
    from repro.obs import fleet_prometheus_text, summarize, write_chrome_spans
    from repro.trace import write_jsonl

    out = pathlib.Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(spans, out)
    written = [str(out)]
    if chrome:
        write_chrome_spans(spans, chrome)
        written.append(str(chrome))
    if prom:
        pathlib.Path(prom).write_text(fleet_prometheus_text(summarize(spans)))
        written.append(str(prom))
    return written


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import render_report, summarize

    source = args.source or str(_resolve_campaign_db(args))
    spans = _load_spans(source, getattr(args, "trace", None))
    if args.spans_command == "report":
        errors = obs.validate_spans(spans)
        print(render_report(summarize(spans), top=args.top))
        if errors:
            print(f"\nspan log problems ({len(errors)}):")
            for line in errors[:20]:
                print(f"  {line}")
            if args.strict:
                return 1
        elif args.strict and not spans:
            print("no spans recorded", file=sys.stderr)
            return 1
        return 0
    if args.spans_command == "export":
        written = _write_span_files(
            spans, args.out, chrome=args.chrome, prom=args.prom
        )
        print(f"exported {len(spans)} spans: {', '.join(written)}")
        return 0
    # tail: the most recently finished spans, oldest first.
    spans.sort(key=lambda s: s.get("end", 0.0))
    for span in spans[-args.limit:]:
        dur_ms = (span.get("end", 0.0) - span.get("start", 0.0)) * 1000.0
        print(
            f"{span.get('end', 0.0):.3f} {span.get('kind', '?'):16s} "
            f"{span.get('outcome', '?'):10s} {dur_ms:9.1f}ms "
            f"trace={str(span.get('trace', ''))[:8]} "
            f"pid={span.get('pid', 0)}"
        )
    return 0


def _cmd_service_load(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import ServiceClientError, format_load_report, run_load

    spec: dict = {}
    if args.spec:
        try:
            spec = json.loads(args.spec)
        except json.JSONDecodeError as error:
            raise ValueError(f"--spec must be valid JSON: {error}") from None
        if not isinstance(spec, dict):
            raise ValueError("--spec must be a JSON object")
    try:
        report = asyncio.run(
            run_load(
                args.host,
                args.port,
                jobs=args.n,
                concurrency=args.concurrency,
                kind=args.kind,
                spec=spec,
                distinct_seeds=not args.same_seed,
                poll_interval=args.poll_interval,
            )
        )
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote load report to {args.json}")
    print(format_load_report(report))
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.config import preset_config
    from repro.leakcheck import get_victim
    from repro.perf import CycleAttributor, prometheus_text
    from repro.proc import SecureProcessor

    spec = get_victim(args.victim)
    secret, _ = spec.secrets(args.seed)
    config = preset_config(args.preset, functional_crypto=False)
    proc = SecureProcessor(config)
    attributor = CycleAttributor()
    proc.attach(attributor)
    spec.run(proc, secret)
    attributor.verify()
    print(f"victim={spec.name} preset={args.preset} seed={args.seed}")
    print(attributor.report(min_share=args.min_share))
    if args.collapsed:
        lines = attributor.write_collapsed(args.collapsed)
        print(f"\nwrote {lines} collapsed stacks to {args.collapsed}")
    if args.prom:
        pathlib.Path(args.prom).write_text(prometheus_text(proc.registry))
        print(f"wrote Prometheus metrics to {args.prom}")
    return 0


# -- synth: attack-synthesis fuzzer (docs/synth.md) -----------------------


def _synth_target_choices() -> tuple[str, ...]:
    from repro.synth import target_names

    return tuple(target_names())


def _gen_config(args: argparse.Namespace):
    import dataclasses

    from repro.synth import GenConfig

    config = GenConfig()
    overrides: dict[str, object] = {}
    if getattr(args, "max_ops", None) is not None:
        overrides["max_ops"] = args.max_ops
        overrides["min_ops"] = min(config.min_ops, args.max_ops)
    if getattr(args, "guard_prob", None) is not None:
        overrides["p_guard"] = args.guard_prob
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config.validate()


def _cmd_synth_generate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.synth import format_program, generate_batch, program_to_dict

    batch = generate_batch(args.seed, args.count, _gen_config(args))
    if args.json:
        pathlib.Path(args.json).write_text(
            _json.dumps(
                [{"gen_seed": gen_seed, "program": program_to_dict(program)}
                 for gen_seed, program in batch],
                indent=2, sort_keys=True,
            ) + "\n"
        )
        print(f"wrote {len(batch)} program(s) to {args.json}")
        return 0
    for gen_seed, program in batch:
        print(f"# gen_seed={gen_seed}")
        print(format_program(program))
        print()
    return 0


def _cmd_synth_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.synth import run_fuzz

    engine = _campaign_engine(args, reseed_base=args.seed)
    report = run_fuzz(
        preset=args.preset,
        defense=args.defense,
        budget=args.budget,
        seed=args.seed,
        alpha=args.alpha,
        gen=_gen_config(args),
        engine=engine,
    )
    for line in report.summary_lines():
        print(line)
    print(engine.summary_line())
    for error in report.errors:
        print(f"!! {error}", file=sys.stderr)
    if args.json:
        doc = {
            "preset": report.preset,
            "defense": report.defense,
            "seed": report.seed,
            "budget": report.budget,
            "evaluated": report.evaluated,
            "failed": report.failed,
            "leaky": report.leaky,
            "metadata_leaky": report.metadata_leaky,
            "new_in_corpus": report.new_in_corpus,
            "coverage": dict(sorted(report.coverage.items())),
        }
        pathlib.Path(args.json).write_text(
            _json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote fuzz report to {args.json}")
    if report.failed:
        return 1
    if args.expect_leaky is not None and report.leaky < args.expect_leaky:
        print(
            f"FAIL: found {report.leaky} leaking program(s), "
            f"expected at least {args.expect_leaky}",
            file=sys.stderr,
        )
        return 1
    return 0


def _read_corpus(args: argparse.Namespace):
    """The corpus of the resolved campaign DB, filtered to ``--preset``
    and ``--defense``; None when the DB file does not exist."""
    from repro.campaign import CampaignDB
    from repro.synth import read_corpus

    path = _resolve_campaign_db(args)
    if not os.path.exists(path):
        return None
    with CampaignDB(path) as db:
        return read_corpus(db, preset=args.preset, defense=args.defense)


def _cmd_synth_minimize(args: argparse.Namespace) -> int:
    from repro.synth import (
        MinimizationError,
        format_program,
        minimize_program,
        program_from_json,
        resolve_target,
        write_witness,
    )

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = args.target or ["metaleak_t", "metaleak_c"]

    candidates: dict[str, object] = {}
    if args.program:
        program = program_from_json(pathlib.Path(args.program).read_text())
        for target in targets:
            candidates[target] = program
    else:
        corpus = _read_corpus(args)
        if corpus is not None:
            for target in targets:
                entry = corpus.best_for(resolve_target(target))
                if entry is not None:
                    candidates[target] = entry.program

    status = 0
    for target in targets:
        program = candidates.get(target)
        if program is None:
            print(
                f"!! {target}: no corpus program hits this target on "
                f"preset={args.preset} defense={args.defense}; "
                f"run 'repro synth run' first",
                file=sys.stderr,
            )
            status = 1
            continue
        try:
            result = minimize_program(
                program,  # type: ignore[arg-type]
                target=target,
                preset=args.preset,
                defense=args.defense,
                alpha=args.alpha,
                max_oracle_calls=args.max_oracle_calls,
                progress=lambda line, t=target: print(f"[{t}] {line}"),
            )
        except MinimizationError as error:
            print(f"!! {target}: {error}", file=sys.stderr)
            status = 1
            continue
        path = write_witness(result, out_dir / f"witness_{target}.json")
        print(f"[{target}] witness: {result.initial_ops} -> "
              f"{result.final_ops} op(s), {result.oracle_calls} oracle "
              f"calls -> {path}")
        print(format_program(result.witness))
    return status


def _cmd_synth_corpus(args: argparse.Namespace) -> int:
    path = _resolve_campaign_db(args)
    corpus = _read_corpus(args)
    if corpus is None:
        print(f"error: no campaign DB at {path}; run 'repro synth run' "
              f"first", file=sys.stderr)
        return 2
    for line in corpus.summary_lines(str(path)):
        print(line)
    if args.programs:
        for key, entry in corpus.entries.items():
            channels = ", ".join(f"{c}/{k}" for c, k in entry.channels)
            print(
                f"  {key[:12]}  {entry.preset}/{entry.defense} "
                f"gen_seed={entry.gen_seed} ops={len(entry.program.ops)} "
                f"[{channels}]"
            )
    return 0


def _cmd_synth_verify(args: argparse.Namespace) -> int:
    from repro.synth import MinimizationError, load_witness

    status = 0
    for path in args.witnesses:
        try:
            witness = load_witness(path)
            result = witness.verify(alpha=args.alpha)
        except (MinimizationError, ValueError, OSError) as error:
            print(f"FAIL {path}: {error}", file=sys.stderr)
            status = 1
            continue
        channels = ", ".join(f"{c}/{k}" for c, k in result.channels[:6])
        print(f"ok   {path}: target={witness.target} "
              f"preset={witness.preset} still leaks [{channels}]")
    return status


def _cmd_synth(args: argparse.Namespace) -> int:
    handler = {
        "generate": _cmd_synth_generate,
        "run": _cmd_synth_run,
        "minimize": _cmd_synth_minimize,
        "corpus": _cmd_synth_corpus,
        "verify": _cmd_synth_verify,
    }[args.synth_command]
    return handler(args)


def build_parser() -> argparse.ArgumentParser:
    from repro.config import DEFENSES, PRESETS
    from repro.service.jobs import job_kinds

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MetaLeak reproduction: secure-processor metadata "
        "side channels (ISCA 2024)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a machine preset")
    info.add_argument("--preset", choices=PRESETS, default="sct")
    info.set_defaults(func=_cmd_info)

    listing = commands.add_parser("list", help="list regenerable figures")
    listing.set_defaults(func=_cmd_list)

    figures = commands.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="*", help="figure names (default: all)")
    figures.add_argument("--quick", action="store_true", help="reduced scale")
    figures.add_argument("--out", help="directory for result tables")
    figures.add_argument(
        "--seed", type=int, default=0,
        help="base seed for reseeded retries (figures accepting seed=)",
    )
    figures.add_argument(
        "--fail-fast", action="store_true",
        help="stop scheduling new figures after the first failure",
    )
    _add_campaign_options(figures)
    figures.set_defaults(func=_cmd_figures)

    faults = commands.add_parser(
        "faults", help="run tamper-detection fault-injection campaigns"
    )
    faults.add_argument(
        "--preset", choices=(*PRESETS, "all"), default="all"
    )
    faults.add_argument(
        "--sites", type=_positive_int, default=200,
        help="injection sites per preset",
    )
    faults.add_argument("--seed", type=int, default=2024)
    _add_campaign_options(faults)
    faults.set_defaults(func=_cmd_faults)

    channel = commands.add_parser(
        "channel", help="run one ECC-framed covert transmission under noise"
    )
    channel.add_argument(
        "--bits", type=_positive_int, default=32, help="payload length in bits"
    )
    channel.add_argument(
        "--noise", type=_count, default=2, metavar="READS",
        help="conflicting co-runner intensity in reads/step (0 = quiet)",
    )
    channel.add_argument(
        "--votes", type=_positive_int, default=3,
        help="majority-vote repetitions per wire bit",
    )
    channel.add_argument(
        "--retries", type=_count, default=8,
        help="maximum ARQ retransmission rounds",
    )
    channel.add_argument(
        "--budget", type=_positive_int, default=None, metavar="CYCLES",
        help="cycle budget for the whole exchange (default: unlimited)",
    )
    channel.add_argument(
        "--gate", type=_fraction, default=0.99, metavar="ACC",
        help="minimum framed payload accuracy, a fraction in [0, 1]; "
        "below it exits non-zero (default 0.99)",
    )
    channel.add_argument("--seed", type=int, default=21)
    channel.set_defaults(func=_cmd_channel)

    from repro.leakcheck.victims import victim_names

    trace = commands.add_parser(
        "trace", help="record and export a victim's metadata event stream"
    )
    trace.add_argument("--victim", choices=victim_names(), required=True)
    trace.add_argument(
        "--secret", choices=("a", "b"), default="a",
        help="which of the paired secrets to run (default: a)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="JSONL output path")
    trace.add_argument(
        "--chrome", help="Chrome trace_event JSON output path (Perfetto)"
    )
    trace.add_argument(
        "--capacity", type=_positive_int, default=1 << 18,
        help="tracer ring-buffer capacity in events",
    )
    trace.set_defaults(func=_cmd_trace)

    leakcheck = commands.add_parser(
        "leakcheck", help="automated paired-secret leakage detection"
    )
    leakcheck.add_argument("--victim", choices=victim_names(), default=None)
    leakcheck.add_argument(
        "--list", action="store_true",
        help="list registered victims with descriptions and exit",
    )
    leakcheck.add_argument("--seed", type=int, default=0)
    leakcheck.add_argument(
        "--seeds", type=_positive_int, default=1, metavar="N",
        help="sweep N consecutive seeds starting at --seed (default 1)",
    )
    leakcheck.add_argument(
        "--alpha", type=_alpha, default=0.01,
        help="significance level for the per-kind KS tests",
    )
    leakcheck.add_argument("--json", help="write the full report as JSON")
    leakcheck.add_argument(
        "--expect", choices=("leaky", "clean"), default=None,
        help="exit non-zero unless every swept verdict matches (CI gating)",
    )
    _add_campaign_options(leakcheck)
    leakcheck.set_defaults(func=_cmd_leakcheck)

    serve = commands.add_parser(
        "serve",
        help="run the fault-tolerant leakcheck job service (HTTP)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=_listen_port, default=8642,
        help="listen port; 0 picks a free port (default 8642)",
    )
    serve.add_argument(
        "--capacity", type=_positive_int, default=64, metavar="N",
        help="admission bound: queued jobs beyond N are shed with 429 "
        "(default 64)",
    )
    serve.add_argument(
        "--concurrency", type=_positive_int, default=2, metavar="N",
        help="jobs executed concurrently (default 2)",
    )
    serve.add_argument(
        "--jobs", type=_jobs_count, default=1, metavar="N",
        help="campaign worker processes per job "
        "(0 = one per CPU core; default 1 = in-thread)",
    )
    serve.add_argument(
        "--timeout", type=_timeout_seconds, default=None, metavar="S",
        help="wall-clock budget per task within a job, in seconds up to "
        "2**31 - 1 (default: none)",
    )
    serve.add_argument(
        "--retries", type=_count, default=0, metavar="N",
        help="retry failed/crashed tasks up to N times with backoff",
    )
    serve.add_argument(
        "--backoff", type=_backoff_seconds, default=0.5, metavar="S",
        help="base retry backoff in seconds (>= 0), full jitter "
        "(default 0.5)",
    )
    serve.add_argument(
        "--drain-grace", type=_timeout_seconds, default=30.0, metavar="S",
        help="seconds to let running jobs finish on SIGTERM/SIGINT "
        "before asking their engines to stop (default 30)",
    )
    serve.add_argument(
        "--campaign-db", metavar="FILE", default=None,
        help="campaign DB path, also the job journal (default: env "
        f"REPRO_CAMPAIGN_DB, else {_DEFAULT_CAMPAIGN_DB})",
    )
    serve.add_argument(
        "--no-spans", action="store_true",
        help="disable span tracing and fleet telemetry for this service",
    )
    serve.set_defaults(func=_cmd_serve)

    spans = commands.add_parser(
        "spans",
        help="fleet telemetry: report/export/tail recorded span logs",
    )
    spans_commands = spans.add_subparsers(dest="spans_command", required=True)

    def _spans_source_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "source", nargs="?", default=None,
            help="span JSONL file or campaign DB (default: resolved "
            "campaign DB)",
        )
        sub.add_argument(
            "--trace", metavar="ID", default=None,
            help="restrict to one trace id",
        )
        sub.add_argument(
            "--campaign-db", metavar="FILE", default=None,
            help="campaign DB used when no SOURCE is given (default: env "
            f"REPRO_CAMPAIGN_DB, else {_DEFAULT_CAMPAIGN_DB})",
        )

    spans_report = spans_commands.add_parser(
        "report", help="per-kind latency percentiles and fleet summary",
    )
    _spans_source_options(spans_report)
    spans_report.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="stragglers to list (default 5)",
    )
    spans_report.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on an invalid or empty span log (CI gate)",
    )
    spans_report.set_defaults(func=_cmd_spans)

    spans_export = spans_commands.add_parser(
        "export", help="rewrite spans as JSONL / Chrome trace / Prometheus",
    )
    _spans_source_options(spans_export)
    spans_export.add_argument(
        "--out", required=True, metavar="FILE",
        help="output JSONL span log",
    )
    spans_export.add_argument(
        "--chrome", metavar="FILE", default=None,
        help="also write a Chrome trace_event timeline (Perfetto-loadable)",
    )
    spans_export.add_argument(
        "--prom", metavar="FILE", default=None,
        help="also write the fleet summary as Prometheus text",
    )
    spans_export.set_defaults(func=_cmd_spans)

    spans_tail = spans_commands.add_parser(
        "tail", help="print the most recently finished spans",
    )
    _spans_source_options(spans_tail)
    spans_tail.add_argument(
        "--limit", type=_positive_int, default=20, metavar="N",
        help="spans to show (default 20)",
    )
    spans_tail.set_defaults(func=_cmd_spans)

    service_load = commands.add_parser(
        "service-load",
        help="load-generate against a running leakcheck service",
    )
    service_load.add_argument(
        "-n", type=_positive_int, default=16, metavar="N",
        help="jobs to submit (default 16)",
    )
    service_load.add_argument(
        "--host", default="127.0.0.1", help="service address",
    )
    service_load.add_argument(
        "--port", type=_service_port, required=True, help="service port",
    )
    service_load.add_argument(
        "--concurrency", type=_positive_int, default=8, metavar="N",
        help="client-side concurrent submissions (default 8)",
    )
    service_load.add_argument(
        "--kind", choices=job_kinds(),
        default="probe",
        help="job kind to submit (default probe)",
    )
    service_load.add_argument(
        "--spec", default=None, metavar="JSON",
        help='job spec as JSON, e.g. \'{"ops": 300}\' or '
        '\'{"victim": "rsa"}\'',
    )
    service_load.add_argument(
        "--same-seed", action="store_true",
        help="submit identical jobs (measures the dedup fast path) "
        "instead of distinct seeds",
    )
    service_load.add_argument(
        "--poll-interval", type=_timeout_seconds, default=0.05, metavar="S",
        help="status poll interval in seconds (default 0.05)",
    )
    service_load.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the load report as JSON",
    )
    service_load.set_defaults(func=_cmd_service_load)

    synth = commands.add_parser(
        "synth",
        help="attack-synthesis fuzzer with witness minimization",
    )
    synth_commands = synth.add_subparsers(
        dest="synth_command", required=True
    )

    def _synth_gen_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--max-ops", type=_positive_int, default=None, metavar="N",
            help="cap generated program length (default: generator default)",
        )
        sub.add_argument(
            "--guard-prob", type=float, default=None, metavar="P",
            help="probability an op is secret-guarded "
            "(default: generator default)",
        )

    def _synth_machine_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--preset", choices=PRESETS, default="sct",
            help="machine preset the oracle runs on (default sct)",
        )
        sub.add_argument(
            "--defense", choices=DEFENSES, default="none",
            help="defence overlay applied to the preset (default none)",
        )
        sub.add_argument(
            "--alpha", type=_alpha, default=0.01,
            help="significance level for the per-kind KS tests",
        )

    def _synth_db_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--campaign-db", metavar="FILE", default=None,
            help="campaign DB whose synth runs are the corpus (default: "
            f"env REPRO_CAMPAIGN_DB, else {_DEFAULT_CAMPAIGN_DB})",
        )

    synth_generate = synth_commands.add_parser(
        "generate", help="emit seeded random programs (no oracle runs)"
    )
    synth_generate.add_argument("--seed", type=int, default=0)
    synth_generate.add_argument(
        "--count", type=_positive_int, default=1, metavar="N",
        help="programs to generate (default 1)",
    )
    _synth_gen_options(synth_generate)
    synth_generate.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the batch as JSON instead of printing listings",
    )
    synth_generate.set_defaults(func=_cmd_synth)

    synth_run = synth_commands.add_parser(
        "run", help="fuzz: fan generated programs through the leak oracle"
    )
    synth_run.add_argument("--seed", type=int, default=0)
    synth_run.add_argument(
        "--budget", type=_positive_int, default=64, metavar="N",
        help="programs to generate and evaluate (default 64)",
    )
    _synth_machine_options(synth_run)
    _synth_gen_options(synth_run)
    synth_run.add_argument(
        "--expect-leaky", type=int, default=None, metavar="N",
        help="exit non-zero unless at least N leaking programs were found "
        "(CI gating)",
    )
    synth_run.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the fuzz report as JSON",
    )
    _add_campaign_options(synth_run)
    synth_run.set_defaults(func=_cmd_synth)

    synth_minimize = synth_commands.add_parser(
        "minimize",
        help="delta-debug corpus finds into minimal witness files",
    )
    synth_minimize.add_argument(
        "--target", action="append", default=None,
        choices=_synth_target_choices(),
        help="channel family to witness; repeatable "
        "(default: metaleak_t and metaleak_c)",
    )
    _synth_machine_options(synth_minimize)
    _synth_db_option(synth_minimize)
    synth_minimize.add_argument(
        "--program", metavar="FILE", default=None,
        help="minimize this program JSON instead of picking from the corpus",
    )
    synth_minimize.add_argument(
        "--out", default="witnesses", metavar="DIR",
        help="directory for witness_<target>.json files (default witnesses)",
    )
    synth_minimize.add_argument(
        "--max-oracle-calls", type=_positive_int, default=400, metavar="N",
        help="oracle budget per target (default 400)",
    )
    synth_minimize.set_defaults(func=_cmd_synth)

    synth_corpus = synth_commands.add_parser(
        "corpus", help="summarize the leaking programs the campaign DB holds"
    )
    _synth_db_option(synth_corpus)
    synth_corpus.add_argument(
        "--preset", choices=PRESETS, default=None,
        help="only results found on this preset",
    )
    synth_corpus.add_argument(
        "--defense", choices=DEFENSES, default=None,
        help="only results found under this defence",
    )
    synth_corpus.add_argument(
        "--programs", action="store_true",
        help="also list individual corpus entries",
    )
    synth_corpus.set_defaults(func=_cmd_synth)

    synth_verify = synth_commands.add_parser(
        "verify", help="re-run checked-in witnesses against the oracle"
    )
    synth_verify.add_argument(
        "witnesses", nargs="+", metavar="WITNESS",
        help="witness JSON files to re-verify",
    )
    synth_verify.add_argument(
        "--alpha", type=_alpha, default=0.01,
        help="significance level for the per-kind KS tests",
    )
    synth_verify.set_defaults(func=_cmd_synth)

    profile = commands.add_parser(
        "profile", help="cycle-attribution profile of one victim run"
    )
    profile.add_argument("--victim", choices=victim_names(), required=True)
    profile.add_argument("--preset", choices=PRESETS, default="sct")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--min-share", type=_fraction, default=0.0, metavar="F",
        help="hide components below this share of a bucket's cycles",
    )
    profile.add_argument(
        "--collapsed", metavar="FILE",
        help="write flamegraph collapsed-stack export (flamegraph.pl format)",
    )
    profile.add_argument(
        "--prom", metavar="FILE",
        help="write the counter registry in Prometheus text format",
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def _run_with_spans(args: argparse.Namespace) -> int:
    """Dispatch ``args.func``, tracing it when span export is requested.

    ``--spans FILE`` (or ``REPRO_SPANS=FILE``) mints the trace at the
    outermost entry point — this CLI invocation — so every campaign
    task, worker attempt and oracle evaluation below it shares one
    trace id.  Three artifacts are written next to FILE: the JSONL span
    log (schema v1), a Chrome ``trace_event`` timeline, and a
    Prometheus text snapshot of the fleet summary.  Without the flag
    this is a plain call: no recorder, no allocation, zero overhead.
    """
    path = getattr(args, "spans", None) or os.environ.get("REPRO_SPANS")
    if not path:
        return args.func(args)
    from repro import obs

    recorder = obs.SpanRecorder()
    obs.enable(recorder)
    root = recorder.start_span(
        "cli", kind="cli",
        attrs={"command": getattr(args, "command", ""), "pid": os.getpid()},
    )
    try:
        with root:
            code = args.func(args)
            if code != 0:
                root.outcome = "failed"
                root.set("exit_code", code)
        return code
    finally:
        obs.disable()
        spans = recorder.drain()
        out = pathlib.Path(path)
        chrome = out.with_name(out.name + ".chrome.json")
        prom = out.with_name(out.name + ".prom")
        _write_span_files(spans, out, chrome=chrome, prom=prom)
        print(
            f"spans: wrote {len(spans)} spans to {out} "
            f"(+ {chrome.name}, {prom.name})",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_spans(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
