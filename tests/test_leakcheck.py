"""Tests for the automated leakage detector (``repro.leakcheck``)."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFENSES
from repro.leakcheck import (
    KindFinding,
    LeakReport,
    VictimSpec,
    get_victim,
    run_leakcheck,
    victim_names,
)
from repro.leakcheck.detector import (
    _MIN_KS_SAMPLES,
    _compare_kind,
    _stream_samples,
    leak_verdict,
)
from repro.synth import (
    compile_program,
    evaluate_program,
    generate_program,
    synth_config,
)
from repro.trace import TraceEvent
from repro.utils.stats import ks_pvalue, ks_statistic


def _detector_ks(a, b) -> tuple[float, float]:
    """(statistic, p-value) as the detector computes them: ``ks_statistic``
    then ``ks_pvalue``, over samples sorted as ``_stream_samples`` sorts
    them."""
    xs = sorted(map(float, a))
    ys = sorted(map(float, b))
    statistic = ks_statistic(xs, ys)
    return statistic, ks_pvalue(len(xs), len(ys), statistic)


class TestKsTwoSample:
    def test_identical_samples(self):
        statistic, pvalue = _detector_ks([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert statistic == 0.0
        assert pvalue > 0.99

    def test_disjoint_samples(self):
        statistic, pvalue = _detector_ks(range(50), range(100, 150))
        assert statistic == 1.0
        assert pvalue < 1e-9

    def test_discrete_ties(self):
        statistic, _ = _detector_ks([1] * 50 + [2] * 50, [1] * 80 + [2] * 20)
        assert statistic == pytest.approx(0.3)


def _reference_ks(a, b) -> tuple[float, float]:
    """The two-sample KS test as a plain merge loop over both samples:
    the implementation every faster one must match bit for bit."""
    xs = sorted(float(v) for v in a)
    ys = sorted(float(v) for v in b)
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n and j < m:
        if xs[i] < ys[j]:
            i += 1
        elif ys[j] < xs[i]:
            j += 1
        else:
            tied = xs[i]
            while i < n and xs[i] == tied:
                i += 1
            while j < m and ys[j] == tied:
                j += 1
        d = max(d, abs(i / n - j / m))
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam <= 0:
        return d, 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * 2.0 * math.exp(-2.0 * (k * lam) ** 2)
        total += term
        if abs(term) < 1e-10:
            break
        sign = -sign
    return d, min(1.0, max(0.0, total))


# Few distinct values (heavy ties, both signs of zero) mixed with
# arbitrary finite floats.
_tied = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 64.0, 211.0, -5.5])
_value = st.one_of(_tied, _tied, _tied, st.floats(allow_nan=False))
_sample = st.lists(_value, min_size=1, max_size=200)


def _assert_matches_reference(a, b):
    statistic, pvalue = _detector_ks(a, b)
    reference_statistic, reference_pvalue = _reference_ks(a, b)
    assert statistic.hex() == reference_statistic.hex()
    assert pvalue.hex() == reference_pvalue.hex()


class TestKsReference:
    @given(_sample, _sample)
    @settings(max_examples=300, deadline=None)
    def test_matches_merge_loop(self, a, b):
        _assert_matches_reference(a, b)

    @given(_sample, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_identical_samples(self, a, rng):
        b = list(a)
        rng.shuffle(b)
        _assert_matches_reference(a, b)
        assert _detector_ks(a, b)[0] == 0.0

    @given(
        st.lists(st.floats(max_value=-1.0, allow_nan=False), min_size=1,
                 max_size=200),
        st.lists(st.floats(min_value=1.0, allow_nan=False), min_size=1,
                 max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_disjoint_samples(self, a, b):
        _assert_matches_reference(a, b)
        assert _detector_ks(a, b)[0] == 1.0


class TestRegistry:
    def test_known_victims(self):
        assert {"rsa", "mbedtls", "kvstore", "jpeg", "const"} <= set(
            victim_names()
        )

    def test_unknown_victim_rejected(self):
        with pytest.raises(ValueError, match="unknown leakcheck victim"):
            get_victim("nope")


class TestDetector:
    def test_rsa_flags_metadata_events(self):
        report = run_leakcheck("rsa", seed=0)
        assert report.leaky
        flagged = {(f.component, f.kind) for f in report.flagged_findings}
        # The MetaLeak signals proper: counter fetches and tree walks.
        assert any(component == "mee" for component, _ in flagged)
        assert ("mee", "tree_walk") in flagged or (
            "mee",
            "counter_miss",
        ) in flagged or ("mee", "counter_hit") in flagged

    def test_kvstore_flags_write_side(self):
        report = run_leakcheck("kvstore", seed=0)
        assert report.leaky
        flagged_components = {f.component for f in report.flagged_findings}
        assert flagged_components & {"memctrl", "dram"}

    @pytest.mark.parametrize("seed", range(20))
    def test_constant_time_victim_clean(self, seed):
        report = run_leakcheck("const", seed=seed)
        assert not report.leaky, [
            (f.component, f.kind, f.reasons) for f in report.flagged_findings
        ]

    def test_report_json_round_trip(self):
        report = run_leakcheck("rsa", seed=1)
        restored = LeakReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.leaky == report.leaky
        assert restored.flagged_findings
        assert restored.findings[0].tests == report.findings[0].tests

    def test_user_supplied_victim_spec(self):
        def secrets(seed):
            return seed, seed + 1

        def run(proc, secret):
            # Reads scale with the secret: blatantly leaky.
            for i in range(8 + (int(secret) % 2) * 8):
                proc.read(i * 64)
            proc.drain_writes()

        spec = VictimSpec(
            name="custom", description="test", secrets=secrets, run=run
        )
        report = run_leakcheck(spec, seed=4)
        assert report.victim == "custom"
        assert report.leaky

    def test_determinism(self):
        first = run_leakcheck("rsa", seed=3)
        second = run_leakcheck("rsa", seed=3)
        assert first.to_dict() == second.to_dict()

    def test_truncated_trace_is_not_certified_clean(self):
        """Secret 1 misses once, then both runs make identical reads: the
        runs differ only in a head that a small ring drops, and equal
        tails must not pass for equal traces."""

        def run(proc, secret):
            if secret:
                proc.flush(0)
                proc.read(0)
            for _ in range(200):
                proc.read(0)

        spec = VictimSpec(
            name="early", description="test",
            secrets=lambda seed: (0, 1), run=run,
        )
        with pytest.raises(ValueError, match="capacity=100"):
            run_leakcheck(spec, capacity=100)
        report = run_leakcheck(spec)
        assert report.leaky
        assert report.dropped_a == report.dropped_b == 0


# sha256 over the canonical report JSON of _golden_reports().  A change
# to any count, KS statistic, p-value or reason changes it, so a speedup
# of the traced memory path or the detector must leave it as it is.
_GOLDEN_DIGEST = (
    "ddd087077802e6982f53bcf2aace2c465fb924059bd61f89fcf3129c9ce24e93"
)


def _rounded(value):
    """Floats to 12 significant digits: a host's libm may differ from
    another's in the last bit of a p-value, and nothing else may."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _golden_reports():
    """40 seeded fuzz programs on the synth machine, then every victim."""
    config = synth_config()
    for gen_seed in range(40):
        spec = compile_program(generate_program(gen_seed), name=f"g{gen_seed}")
        yield run_leakcheck(spec, seed=0, config=config)
    for name in victim_names():
        yield run_leakcheck(name, seed=0)


class TestGoldenVerdicts:
    def test_reports_match_recorded_digest(self):
        digest = hashlib.sha256()
        leaky = 0
        for report in _golden_reports():
            canonical = json.dumps(_rounded(report.to_dict()), sort_keys=True)
            digest.update(canonical.encode() + b"\n")
            leaky += report.leaky
        # Both verdicts occur, so the digest covers flagged and clean paths.
        assert 0 < leaky < 40 + len(victim_names())
        assert digest.hexdigest() == _GOLDEN_DIGEST


# sha256 over (gen_seed, leaky, metadata_leaky, channels, events) of the
# fuzz oracle's results on _oracle_cases(), recorded while the oracle
# still built the full report: the verdict path's own golden value.
_ORACLE_DIGEST = (
    "068a720cf499b1315b90e40bfd45853732d63b4e32b729a7b451c1b5fd504cc2"
)


def _oracle_cases():
    """40 seeded fuzz programs, spread over every preset × defense."""
    machines = [
        (preset, defense)
        for preset in ("sct", "ht", "sgx")
        for defense in DEFENSES
    ]
    for gen_seed in range(40):
        yield (gen_seed, *machines[gen_seed % len(machines)])


class TestGoldenOracleResults:
    def test_results_match_recorded_digest(self):
        digest = hashlib.sha256()
        for gen_seed, preset, defense in _oracle_cases():
            result = evaluate_program(
                program=generate_program(gen_seed), preset=preset,
                defense=defense, gen_seed=gen_seed,
            )
            fields = [gen_seed, result.leaky, result.metadata_leaky,
                      result.channels, result.events]
            digest.update(json.dumps(fields).encode() + b"\n")
        assert digest.hexdigest() == _ORACLE_DIGEST


def _random_events(rng: random.Random, count: int) -> list[TraceEvent]:
    cycle = rng.randrange(100)
    events = []
    for _ in range(count):
        cycle += rng.choice((0, 0, 1, rng.randrange(500)))
        events.append(TraceEvent(
            cycle=cycle,
            component="c",
            kind="k",
            addr=rng.choice((None, rng.randrange(1 << 20) * 64)),
            value=rng.choice((None, 0.0, float(rng.randrange(300)))),
        ))
    return events


def _finding_via_ks(events: list[TraceEvent], alpha: float) -> KindFinding:
    """The finding the KS path builds for two copies of ``events``."""
    finding = KindFinding("c", "k", len(events), len(events))
    samples = _stream_samples(events)
    for dimension, sample in zip(("value", "addr", "interarrival"), samples):
        if len(sample) < _MIN_KS_SAMPLES:
            continue
        statistic = ks_statistic(sample, list(sample))
        pvalue = ks_pvalue(len(sample), len(sample), statistic)
        finding.tests[dimension] = {"statistic": statistic, "pvalue": pvalue}
        if pvalue < alpha:
            finding.flagged = True
            finding.reasons.append(f"{dimension} KS p={pvalue:.3g} < {alpha}")
    return finding


class TestIdenticalStreamShortCircuit:
    @pytest.mark.parametrize("seed", range(40))
    # alpha 1.5 flags even p = 1.0, so the alpha comparison is exercised.
    @pytest.mark.parametrize("alpha", [0.01, 1.5])
    def test_matches_ks_finding(self, seed, alpha):
        rng = random.Random(seed)
        # Sizes straddle _MIN_KS_SAMPLES, so dimensions drop in and out.
        events = _random_events(rng, rng.randrange(3 * _MIN_KS_SAMPLES))
        copy = [TraceEvent(*event) for event in events]
        got = _compare_kind("c", "k", events, copy, alpha)
        assert got.to_dict() == _finding_via_ks(events, alpha).to_dict()
        for result in got.tests.values():
            assert result == {"statistic": 0.0, "pvalue": 1.0}

    def test_sparse_dimensions_skip_below_threshold(self):
        events = [TraceEvent(cycle=i, component="c", kind="k",
                             value=1.0 if i < 3 else None)
                  for i in range(_MIN_KS_SAMPLES + 1)]
        finding = _compare_kind("c", "k", events, list(events), 0.01)
        # value has 3 samples, addr none, interarrival exactly the minimum.
        assert set(finding.tests) == {"interarrival"}
        assert not finding.flagged


def _stream(cycles, *, values=None, addrs=None) -> list[TraceEvent]:
    """One hand-built ("c", "k") stream; ``values``/``addrs`` default to
    a value and an address per event that depend only on its index."""
    count = len(cycles)
    values = [float(i % 4) for i in range(count)] if values is None else values
    addrs = [i * 64 for i in range(count)] if addrs is None else addrs
    return [
        TraceEvent(cycle=cycle, component="c", kind="k", addr=addr,
                   value=value)
        for cycle, addr, value in zip(cycles, addrs, values)
    ]


def _emitting_victim(events_a, events_b) -> VictimSpec:
    """A victim whose two runs emit the given events and touch no memory."""

    def run(proc, secret):
        for event in (events_b if secret else events_a):
            proc.tracer.emit(
                event.component, event.kind, cycle=event.cycle,
                addr=event.addr, value=event.value,
            )

    return VictimSpec(
        name="emitting", description="test",
        secrets=lambda seed: (0, 1), run=run,
    )


_N = 5 * _MIN_KS_SAMPLES
_ALL = {"value", "addr", "interarrival"}
#: case -> (first run's stream, second run's stream, the report's
#: reasons, its tested dimensions).  Each reason is matched by prefix,
#: since p-values follow the data.
_BRANCHES = {
    "counts_differ": (
        _stream(range(_N)), _stream(range(_N + 2)),
        [f"count {_N} != {_N + 2}"], _ALL,
    ),
    "identical": (_stream(range(_N)), _stream(range(_N)), [], _ALL),
    "interarrival_only": (
        _stream(range(_N)), _stream(range(0, 10 * _N, 10)),
        ["interarrival KS p="], _ALL,
    ),
    "value_only": (
        _stream(range(_N), values=[1.0] * _N),
        _stream(range(_N), values=[2.0] * _N),
        ["value KS p="], _ALL,
    ),
    "differ_unflagged": (
        _stream(range(_N), values=[float(i) for i in range(_N)]),
        _stream(range(_N), values=[float(i + 1) for i in range(_N)]),
        [], _ALL,
    ),
    "below_ks_minimum": (
        _stream(range(_MIN_KS_SAMPLES - 1),
                values=[1.0] * (_MIN_KS_SAMPLES - 1)),
        _stream(range(_MIN_KS_SAMPLES - 1),
                values=[2.0] * (_MIN_KS_SAMPLES - 1)),
        [], set(),
    ),
    "one_side_only": (_stream(range(_N)), [], [f"count {_N} != 0"], set()),
}


class TestVerdictBranches:
    """``leak_verdict`` stops at each stream's first reason; on every
    branch of the flag rule it must flag what the full report flags."""

    @pytest.mark.parametrize("case", sorted(_BRANCHES))
    def test_verdict_equals_report(self, case):
        events_a, events_b, reasons, tested = _BRANCHES[case]
        spec = _emitting_victim(events_a, events_b)
        config = synth_config()
        report = run_leakcheck(spec, config=config)
        (finding,) = report.findings
        assert set(finding.tests) == tested
        assert len(finding.reasons) == len(reasons)
        for got, prefix in zip(finding.reasons, reasons):
            assert got.startswith(prefix)
        channels, events = leak_verdict(
            spec, alpha=0.01, capacity=1 << 18, config=config
        )
        assert channels == tuple(
            (flagged.component, flagged.kind)
            for flagged in report.flagged_findings
        )
        assert events == report.events_a + report.events_b == (
            len(events_a) + len(events_b)
        )

    def test_streams_that_differ_but_pass_were_tested(self):
        events_a, events_b, _, _ = _BRANCHES["differ_unflagged"]
        report = run_leakcheck(_emitting_victim(events_a, events_b),
                               config=synth_config())
        assert report.findings[0].tests["value"]["statistic"] > 0.0

    def test_truncated_run_raises(self):
        events_a, events_b, _, _ = _BRANCHES["counts_differ"]
        with pytest.raises(ValueError, match="capacity=16"):
            leak_verdict(
                _emitting_victim(events_a, events_b), alpha=0.01,
                capacity=16, config=synth_config(),
            )
