"""Tests for performance observability (``repro.perf``)."""

import json

import pytest

from repro.cli import main
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.perf import (
    AttributionError,
    CycleAttributor,
    compare,
    load_result,
    prometheus_text,
    run_scenario,
    scenario_names,
    write_result,
)
from repro.proc.paths import AccessPath
from repro.proc.processor import AccessResult, SecureProcessor


def _machine(preset: str = "sct") -> SecureProcessor:
    overrides = {"functional_crypto": False, "timer_jitter_sigma": 0.0}
    if preset != "sgx":
        overrides["protected_size"] = 64 * MIB
    return SecureProcessor(preset_config(preset, **overrides))


def _exercise_paths(proc: SecureProcessor) -> list[AccessResult]:
    """Steer one address through hit, counter-hit and tree-walk paths.

    Returns the results of the reads and writes, in issue order.
    """
    layout = proc.layout
    results = []
    for i in range(6):
        addr = (8 + 3 * i) * PAGE_SIZE
        counter_addr = layout.counter_block_addr(addr)
        proc.quiesce()
        results.append(proc.read(addr))  # cold: full tree walk (Path-4)
        results.append(proc.read(addr))  # L1 hit (Path-1)
        results.append(proc.write(addr, b"y"))
        proc.flush(addr)
        proc.quiesce()
        results.append(proc.read(addr))  # counter cached (Path-2)
        proc.flush(addr)
        proc.mee.invalidate_metadata(counter_addr)
        proc.quiesce()
        results.append(proc.read(addr))  # tree leaf cached (Path-3)
        proc.flush(addr)
        proc.mee.flush_metadata_cache(proc.cycle)
    proc.drain_writes()
    return results


class TestConservation:
    @pytest.mark.parametrize("preset", ["sct", "ht"])
    def test_attribution_conserves_cycles(self, preset):
        """Every access's parts sum exactly to its end-to-end latency.

        Violations raise at record time, so reaching the end with the
        aggregate identity intact is the property: across cache hits,
        counter hits and full tree walks, no cycle is lost or invented.
        """
        proc = _machine(preset)
        attributor = CycleAttributor()
        proc.attach(attributor)
        results = _exercise_paths(proc)
        attributor.verify()
        assert attributor.accesses > 0
        assert sum(attributor.component_totals().values()) == attributor.cycles
        for result in results:
            assert sum(result.breakdown.values()) == result.latency
        seen = {profile.path for profile in attributor.profiles()}
        assert "L1_HIT" in seen
        assert "MEM_COUNTER_HIT" in seen
        assert "MEM_TREE_MISS" in seen

    def test_tree_walk_components_attributed_per_level(self):
        proc = _machine("sct")
        attributor = CycleAttributor()
        proc.attach(attributor)
        _exercise_paths(proc)
        totals = attributor.component_totals()
        assert any(key.startswith("meta.tree.l0.") for key in totals)
        assert totals.get("mee.mac", 0) > 0

    def test_violation_raises(self):
        attributor = CycleAttributor()
        with pytest.raises(AttributionError):
            attributor.on_access(
                op="read", path=AccessPath.L1_HIT, core=0, addr=0,
                cycle=0, latency=10, parts={"cache.l1_hit": 7},
            )

    def test_profiling_off_by_default(self):
        """With no profiler attached, no breakdowns are built at all."""
        proc = _machine("sct")
        assert proc.profiler is None
        result = proc.read(8 * PAGE_SIZE)
        assert result.breakdown is None

    def test_breakdown_matches_result_latency(self):
        proc = _machine("sct")
        proc.attach(CycleAttributor())
        result = proc.read(8 * PAGE_SIZE)
        assert result.breakdown is not None
        assert sum(result.breakdown.values()) == result.latency


class TestReports:
    def _attributed(self) -> CycleAttributor:
        proc = _machine("sct")
        attributor = CycleAttributor()
        proc.attach(attributor)
        _exercise_paths(proc)
        return attributor

    def test_report_mentions_paths_and_paper_names(self):
        report = self._attributed().report()
        assert "conserved" in report
        assert "MEM_TREE_MISS" in report and "Path-4" in report
        assert "shadowed" in report

    def test_collapsed_stacks_format(self, tmp_path):
        attributor = self._attributed()
        lines = attributor.collapsed_stacks()
        assert lines
        for line in lines:
            frames, _, count = line.rpartition(" ")
            assert frames and int(count) > 0
        total = sum(int(line.rpartition(" ")[2]) for line in lines)
        assert total == attributor.cycles
        out = tmp_path / "profile.folded"
        written = attributor.write_collapsed(out)
        assert written == len(lines)
        assert out.read_text().splitlines() == lines


class TestMetrics:
    def test_prometheus_text_shape(self):
        proc = _machine("sct")
        _exercise_paths(proc)
        text = prometheus_text(proc.registry)
        assert "# TYPE repro_dram_reads_total counter" in text
        assert "# TYPE repro_memctrl_write_queue_depth gauge" in text
        # Dotted registry paths become legal prometheus metric names.
        for line in text.splitlines():
            name = line.split()[2 if line.startswith("#") else 0]
            assert "." not in name

    def test_every_family_has_help_and_type(self):
        proc = _machine("sct")
        _exercise_paths(proc)
        lines = prometheus_text(proc.registry).splitlines()
        families = {line.split()[0] for line in lines
                    if not line.startswith("#")}
        helped = {line.split()[2] for line in lines
                  if line.startswith("# HELP ")}
        typed = {line.split()[2] for line in lines
                 if line.startswith("# TYPE ")}
        # Gauges included: scrapers that key on HELP for family
        # boundaries must parse them the same way as counters.
        assert families and families == helped == typed

    def test_label_values_are_escaped(self):
        from repro.perf.metrics import escape_label_value, prom_sample

        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        sample = prom_sample("m_total", {"task": 'fig "8"\nv2'}, 3)
        assert sample == 'm_total{task="fig \\"8\\"\\nv2"} 3'
        # One escaped physical line: the newline must not split the sample.
        assert len(sample.splitlines()) == 1

    def test_prom_sample_renders_ints_and_floats(self):
        from repro.perf.metrics import prom_sample

        assert prom_sample("m", None, 4.0) == "m 4"
        assert prom_sample("m", None, 0.25) == "m 0.25"
        assert prom_sample("m", {"a": "b", "c": "d"}, 1) == 'm{a="b",c="d"} 1'


class TestBench:
    def test_simulated_columns_deterministic_per_seed(self):
        a = run_scenario("steady_sct", seed=7, quick=True)
        b = run_scenario("steady_sct", seed=7, quick=True)
        assert a.simulated_cycles == b.simulated_cycles
        assert a.accesses == b.accesses
        assert a.counters == b.counters
        c = run_scenario("steady_sct", seed=8, quick=True)
        assert c.simulated_cycles != a.simulated_cycles

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("nope")

    def test_synth_throughput_counts_oracle_evaluations(self):
        result = run_scenario("synth_throughput", seed=3, quick=True)
        assert result.preset == "synth"
        # Every generated program was evaluated; quick mode runs 12.
        assert result.accesses == 12
        assert result.counters["executed"] == 12
        assert result.sim_accesses_per_second > 0

    def test_result_round_trip(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        path = write_result(result, tmp_path)
        assert path.name == "BENCH_steady_sct.json"
        assert load_result(path) == result
        data = json.loads(path.read_text())
        for key in ("schema_version", "scenario", "preset", "seed", "quick",
                    "git_rev", "simulated_cycles", "accesses",
                    "host_wall_time_s", "sim_accesses_per_second",
                    "peak_rss_kb", "counters"):
            assert key in data

    def test_compare_flags_regression(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        # Baseline claims 25% higher throughput than we just measured:
        # beyond the 20% default threshold, so this must regress.
        inflated = json.loads(result.to_json())
        inflated["sim_accesses_per_second"] = (
            result.sim_accesses_per_second / 0.75
        )
        (tmp_path / result.filename).write_text(json.dumps(inflated))
        outcomes = compare([result], tmp_path, threshold=0.2)
        assert [o.status for o in outcomes] == ["regression"]
        # Same baseline, looser threshold: passes.
        outcomes = compare([result], tmp_path, threshold=0.5)
        assert [o.status for o in outcomes] == ["ok"]

    def test_compare_missing_baseline_and_mode_mismatch(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        assert [o.status for o in compare([result], tmp_path)] == [
            "no-baseline"
        ]
        full = json.loads(result.to_json())
        full["quick"] = False
        (tmp_path / result.filename).write_text(json.dumps(full))
        assert [o.status for o in compare([result], tmp_path)] == ["skipped"]

    def test_compare_flags_diverged_simulated_columns(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        baseline = json.loads(result.to_json())
        for column in ("simulated_cycles", "accesses"):
            changed = dict(baseline, **{column: baseline[column] + 1})
            (tmp_path / result.filename).write_text(json.dumps(changed))
            (outcome,) = compare([result], tmp_path)
            assert outcome.status == "diverged"
            assert outcome.ratio is None
            # Another seed's baseline is another workload: throughput only.
            changed["seed"] = 2
            (tmp_path / result.filename).write_text(json.dumps(changed))
            assert [o.status for o in compare([result], tmp_path)] == ["ok"]
        # Counters are not compared.
        changed = dict(baseline, counters={"gone.counter": 1})
        (tmp_path / result.filename).write_text(json.dumps(changed))
        assert [o.status for o in compare([result], tmp_path)] == ["ok"]

    def test_compare_threshold_validated(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        for bad in (0, -0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                compare([result], tmp_path, threshold=bad)
            with pytest.raises(ValueError):
                compare([result], tmp_path, min_ratio=bad)

    def test_compare_reports_ratio_and_min_ratio_gate(self, tmp_path):
        result = run_scenario("steady_sct", seed=1, quick=True)
        # Baseline deterministically at half the measured throughput:
        # the old->new ratio is exactly 2x.
        slow = json.loads(result.to_json())
        slow["sim_accesses_per_second"] = result.sim_accesses_per_second / 2
        (tmp_path / result.filename).write_text(json.dumps(slow))
        (ok,) = compare([result], tmp_path)
        assert ok.status == "ok"
        assert ok.ratio == pytest.approx(2.0)
        assert "2.00x" in ok.detail
        # A reachable speedup gate passes; an unreachable one flags the
        # scenario even though the plain regression threshold is met.
        (ok,) = compare([result], tmp_path, min_ratio=1.5)
        assert ok.status == "ok"
        (gated,) = compare([result], tmp_path, min_ratio=4.0)
        assert gated.status == "regression"
        assert "speedup gate" in gated.detail
        assert gated.ratio == pytest.approx(2.0)
        # Scenarios outside the gated prefix are exempt from min_ratio.
        (exempt,) = compare(
            [result], tmp_path, min_ratio=4.0, min_ratio_prefix="covert_"
        )
        assert exempt.status == "ok"

    def test_run_scenario_repeats(self):
        with pytest.raises(ValueError):
            run_scenario("steady_sct", quick=True, repeats=0)
        once = run_scenario("steady_sct", seed=7, quick=True, repeats=1)
        twice = run_scenario("steady_sct", seed=7, quick=True, repeats=2)
        # Simulated columns are repeat-invariant (asserted internally on
        # every repeated run); only host wall time may differ.
        assert twice.simulated_cycles == once.simulated_cycles
        assert twice.accesses == once.accesses
        assert twice.counters == once.counters

    def test_profile_scenario_attribution(self):
        from repro.perf import bench

        attributor, proc = bench.profile_scenario("steady_sct", quick=True)
        # Conservation already verified inside profile_scenario; the
        # attribution must cover the scenario's simulated work.
        assert proc.cycle > 0
        assert attributor.collapsed_stacks()
        with pytest.raises(ValueError):
            bench.profile_scenario("service_jobs", quick=True)


class TestBenchCli:
    def test_bench_writes_results_and_compares_clean(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "bench", "steady_sct", "covert_t", "--quick",
            "--out", str(out), "--seed", "3",
        ]) == 0
        files = sorted(p.name for p in out.glob("BENCH_*.json"))
        assert files == ["BENCH_covert_t.json", "BENCH_steady_sct.json"]
        # Host throughput between two live runs is load-dependent, so make
        # the baseline deterministically slow: the comparison must be clean.
        baseline_path = out / "BENCH_steady_sct.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["sim_accesses_per_second"] /= 10
        baseline_path.write_text(json.dumps(baseline))
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(tmp_path / "b"),
            "--seed", "3", "--compare", str(out), "--threshold", "0.2",
        ]) == 0

    def test_bench_exits_nonzero_on_injected_regression(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(out),
        ]) == 0
        baseline_path = out / "BENCH_steady_sct.json"
        baseline = json.loads(baseline_path.read_text())
        # Inject a baseline 1000x faster than this machine: a >=20% apparent
        # throughput regression that --compare must turn into exit 1.
        baseline["sim_accesses_per_second"] *= 1000
        baseline_path.write_text(json.dumps(baseline))
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(tmp_path / "b"),
            "--compare", str(out), "--threshold", "0.2",
        ]) == 1

    def test_bench_compare_names_diverged_scenario(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(out),
        ]) == 0
        baseline_path = out / "BENCH_steady_sct.json"
        baseline = json.loads(baseline_path.read_text())
        # Throughput passes easily; only the simulated workload differs.
        baseline["simulated_cycles"] += 1
        baseline["sim_accesses_per_second"] /= 10
        baseline_path.write_text(json.dumps(baseline))
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(tmp_path / "b"),
            "--compare", str(out), "--threshold", "0.9",
        ]) == 1
        captured = capsys.readouterr()
        assert "diverged" in captured.out
        assert "simulated columns differ" in captured.err
        assert "steady_sct" in captured.err

    def test_bench_validates_threshold_and_names(self, tmp_path):
        assert main([
            "bench", "--threshold", "-1", "--out", str(tmp_path),
        ]) == 2
        assert main([
            "bench", "bogus", "--out", str(tmp_path),
        ]) == 2

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert capsys.readouterr().out.split() == scenario_names()

    def test_bench_min_ratio_gate_names_offender(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(out),
        ]) == 0
        # An unreachable speedup requirement must fail and the exit-1
        # message must name the offending scenario.
        assert main([
            "bench", "steady_sct", "--quick", "--out", str(tmp_path / "b"),
            "--compare", str(out), "--threshold", "0.9",
            "--min-ratio", "1e9",
        ]) == 1
        captured = capsys.readouterr()
        assert "steady_sct" in captured.err
        assert "x)" in captured.err  # the offender's measured ratio
        assert main([
            "bench", "--min-ratio", "-2", "--out", str(tmp_path),
        ]) == 2

    def test_profile_scenario_cli(self, tmp_path, capsys):
        folded = tmp_path / "s.folded"
        assert main([
            "profile", "--scenario", "steady_sct", "--quick",
            "--collapsed", str(folded),
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario=steady_sct" in out
        assert folded.read_text().strip()
        assert main(["profile"]) == 2
        assert main([
            "profile", "--victim", "rsa", "--scenario", "steady_sct",
        ]) == 2

    def test_profile_cli(self, tmp_path, capsys):
        folded = tmp_path / "p.folded"
        prom = tmp_path / "p.prom"
        assert main([
            "profile", "--victim", "rsa", "--collapsed", str(folded),
            "--prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert folded.read_text().strip()
        assert "# TYPE" in prom.read_text()
