"""Tests for performance observability (``repro.perf``)."""

import pytest

from repro.cli import main
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.perf import AttributionError, CycleAttributor, prometheus_text
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


class TestProfileCli:
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
        assert main(["profile", "--victim", "rsa", "--min-share", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["profile"])
        assert excinfo.value.code == 2
        assert "--victim" in capsys.readouterr().err
        for share in ("2", "-1", "nan", "inf", "x"):
            with pytest.raises(SystemExit) as excinfo:
                main(["profile", "--victim", "rsa", "--min-share", share])
            assert excinfo.value.code == 2
            assert "--min-share" in capsys.readouterr().err
