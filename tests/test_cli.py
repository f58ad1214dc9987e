"""Tests for the command-line interface."""

import inspect
import time

import pytest

from repro.analysis import figures as figures_mod
from repro.analysis.figures import FIGURES, Figure
from repro.analysis.report import FULL
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.preset == "sct"

    def test_figures_args(self):
        args = build_parser().parse_args(["figures", "fig8", "--quick"])
        assert args.names == ["fig8"]
        assert args.quick


class TestCommands:
    def test_list_covers_all_figures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name, figure in FIGURES.items():
            assert f"{name:<20} {figure.label}" in output

    @pytest.mark.parametrize("preset", ["sct", "ht", "sgx"])
    def test_info_presets(self, preset, capsys):
        assert main(["info", "--preset", preset]) == 0
        output = capsys.readouterr().out
        assert "integrity tree" in output
        assert "protected data" in output

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_quick_figure_runs(self, capsys, tmp_path):
        assert main(["figures", "fig8", "--quick", "--out", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output
        assert (tmp_path / "fig8.txt").exists()

    def test_quick_kwargs_are_valid_figures(self):
        for figure in FIGURES.values():
            inspect.signature(figure.fn).bind(**figure.quick)

    def test_info_rejects_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "--preset", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def _fake_figure(label="fake"):
    from repro.analysis.report import FigureResult

    def figure(**_kwargs):
        result = FigureResult(figure=label, title="stub")
        result.add("value", 1)
        return result

    return figure


# Module-level figure stand-ins: unlike closures they pickle to a worker
# and are cacheable, so a re-run can be checked through the campaign DB.
_STAND_IN = {"runs": [], "broken": set()}


def _stand_in(label):
    _STAND_IN["runs"].append(label)
    if label in _STAND_IN["broken"]:
        raise RuntimeError("still broken")
    return _fake_figure(label)()


def stand_in_fig6(**_kwargs):
    return _stand_in("fig6")


def stand_in_fig8(**_kwargs):
    return _stand_in("fig8")


def sleepy_figure(**_kwargs):
    time.sleep(3)


def claiming_figure(**_kwargs):
    result = _fake_figure("claiming")()
    result.claim("quick claim holds", True)
    result.claim("full claim fails", False, FULL)
    return result


def broken_quick_figure(**_kwargs):
    result = _fake_figure("broken")()
    result.claim("quick claim fails", False)
    return result


def _register(monkeypatch, name, fn):
    """Stand ``fn`` in for registry entry ``name``."""
    monkeypatch.setitem(figures_mod.FIGURES, name, Figure(fn, "stand-in"))


@pytest.fixture
def stand_ins(monkeypatch):
    _register(monkeypatch, "fig6", stand_in_fig6)
    _register(monkeypatch, "fig8", stand_in_fig8)
    monkeypatch.setitem(_STAND_IN, "runs", [])
    monkeypatch.setitem(_STAND_IN, "broken", set())
    return _STAND_IN


class TestHardenedFigureRuns:
    """The resilient-runner behaviours of ``repro figures``."""

    def test_one_failure_does_not_stop_the_batch(
        self, capsys, tmp_path, monkeypatch
    ):
        _register(monkeypatch, "fig6", _fake_figure())
        _register(
            monkeypatch,
            "fig8",
            lambda **_kw: (_ for _ in ()).throw(RuntimeError("forced crash")),
        )
        _register(monkeypatch, "fig14", _fake_figure())
        code = main(
            ["figures", "fig6", "fig8", "fig14", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "fig8 failed" in captured.err
        assert "forced crash" in captured.err
        # The figures around the failure still completed and were written.
        assert (tmp_path / "fig6.txt").exists()
        assert (tmp_path / "fig14.txt").exists()
        assert "batch partial: 2/3 ok, 1 failed, 0 skipped" in captured.out

    def test_resume_reruns_only_the_failure(
        self, capsys, tmp_path, monkeypatch, stand_ins
    ):
        from repro.campaign import CampaignDB

        # Resuming is re-running against the same campaign DB, which
        # defaults into the --out directory.
        monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
        stand_ins["broken"].add("fig8")
        command = ["figures", "fig6", "fig8", "--out", str(tmp_path)]
        assert main(command) == 1
        assert stand_ins["runs"] == ["fig6", "fig8"]
        capsys.readouterr()

        stand_ins["runs"].clear()
        stand_ins["broken"].clear()
        assert main(command) == 0
        out = capsys.readouterr().out
        assert stand_ins["runs"] == ["fig8"]  # fig6 served from the DB
        assert "[campaign cache]" in out
        assert "1 executed, 1 cached" in out
        with CampaignDB(tmp_path / "campaign.sqlite") as db:
            assert db.counts() == {"ok": 2, "failed": 1}

    def test_timeout_records_and_continues(self, capsys, tmp_path, monkeypatch):
        from repro.campaign import CampaignDB

        # A module-level figure runs in a worker that the timeout ends;
        # the closure cannot be pickled and runs under SIGALRM in process.
        _register(monkeypatch, "fig6", sleepy_figure)
        _register(monkeypatch, "fig8", _fake_figure())
        code = main(
            [
                "figures", "fig6", "fig8",
                "--out", str(tmp_path), "--timeout", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "batch partial: 1/2 ok, 1 failed, 0 skipped" in out
        assert (tmp_path / "fig8.txt").exists()
        with CampaignDB(tmp_path / "campaign.sqlite") as db:
            assert db.counts() == {"timeout": 1}  # closures are not cached

    def test_fail_fast_skips_remaining(self, capsys, monkeypatch):
        ran = []
        _register(
            monkeypatch,
            "fig6",
            lambda **_kw: (_ for _ in ()).throw(RuntimeError("dead")),
        )
        _register(
            monkeypatch,
            "fig8",
            lambda **_kw: ran.append("fig8") or _fake_figure()(),
        )
        assert main(["figures", "fig6", "fig8", "--fail-fast"]) == 1
        assert not ran
        assert "fail-fast" in capsys.readouterr().out

    def test_retry_flag_reaches_the_runner(self, tmp_path, monkeypatch):
        calls = []

        def flaky(**_kwargs):
            calls.append(1)
            if len(calls) < 2:
                raise RuntimeError("transient")
            return _fake_figure()()

        _register(monkeypatch, "fig6", flaky)
        code = main(
            ["figures", "fig6", "--out", str(tmp_path), "--retries", "2"]
        )
        assert code == 0
        assert len(calls) == 2


def _claim_lines(text):
    return [line for line in text.splitlines() if line.startswith("claim ")]


class TestClaimGate:
    """``repro figures`` exits 1 when a claim of the run's scale fails."""

    def test_broken_quick_claim_fails_a_quick_run(
        self, capsys, tmp_path, monkeypatch
    ):
        _register(monkeypatch, "fig6", broken_quick_figure)
        code = main(["figures", "fig6", "--quick", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "claim FAIL [quick] quick claim fails" in captured.out
        assert "fig6: quick-scale claim broken: quick claim fails" in captured.err
        # The figure itself ran fine: only the claim fails the batch.
        assert "batch pass: 1/1 ok" in captured.out
        assert "claim FAIL" in (tmp_path / "fig6.txt").read_text()

    def test_full_claim_gates_only_a_full_run(self, capsys, tmp_path, monkeypatch):
        _register(monkeypatch, "fig6", claiming_figure)
        assert main(["figures", "fig6", "--quick", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert _claim_lines(captured.out) == [
            "claim ok   [quick] quick claim holds",
            "claim FAIL [full] full claim fails",
        ]
        assert "claim broken" not in captured.err
        assert main(["figures", "fig6", "--out", str(tmp_path)]) == 1
        assert (
            "fig6: full-scale claim broken: full claim fails"
            in capsys.readouterr().err
        )

    def test_cache_served_rerun_reports_the_same_verdicts(
        self, capsys, tmp_path, monkeypatch
    ):
        _register(monkeypatch, "fig6", claiming_figure)
        command = ["figures", "fig6", "--out", str(tmp_path)]
        assert main(command) == 1
        first = capsys.readouterr()
        assert main(command) == 1
        second = capsys.readouterr()
        assert "[campaign cache]" in second.out
        assert "0 executed, 1 cached" in second.out
        assert _claim_lines(second.out) == _claim_lines(first.out)
        assert len(_claim_lines(first.out)) == 2
        assert second.err == first.err


class TestFaultsCommand:
    def test_quick_campaign_passes(self, capsys):
        assert main(["faults", "--preset", "sct", "--sites", "7"]) == 0
        output = capsys.readouterr().out
        assert "data-bit detected" in output
        assert "false positives" in output

    def test_invalid_sites_exit_code(self, capsys):
        assert main(["faults", "--preset", "sct", "--sites", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_accepts_all_presets(self):
        args = build_parser().parse_args(["faults", "--preset", "all"])
        assert args.preset == "all"
        assert args.sites == 200


class TestCampaignOptions:
    """The shared --jobs/--no-cache/--campaign-db/--timeout/--retries."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["figures"], id="figures"),
        pytest.param(["faults"], id="faults"),
        pytest.param(["leakcheck", "--victim", "rsa"], id="leakcheck"),
        pytest.param(["synth", "run"], id="synth-run"),
    ])
    def test_every_campaign_subcommand_has_the_flags(self, argv):
        args = build_parser().parse_args([*argv, "--jobs", "3"])
        assert args.jobs == 3
        assert args.retries == 0
        assert args.timeout is None
        assert args.campaign_db is None
        assert not args.no_cache

    def test_jobs_zero_means_one_per_core(self):
        import os

        args = build_parser().parse_args(["figures", "--jobs", "0"])
        assert args.jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "-1"],
            ["--jobs", "two"],
            ["--retries", "-2"],
            ["--retries", "many"],
            ["--timeout", "0"],
            ["--timeout", "-3"],
            ["--timeout", "soon"],
            # setitimer cannot arm these: `leakcheck --timeout inf` used
            # to exit 1 with an OverflowError from inside the task.
            ["--timeout", "inf"],
            ["--timeout", "1e300"],
        ],
    )
    @pytest.mark.parametrize("argv", [
        pytest.param(["figures"], id="figures"),
        pytest.param(["faults"], id="faults"),
        pytest.param(["synth", "run"], id="synth-run"),
        pytest.param(["leakcheck", "--victim", "rsa"], id="leakcheck"),
        pytest.param(["serve"], id="serve"),
    ])
    def test_bad_values_are_rejected_consistently(self, argv, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err or "invalid" in err

    def test_parallel_figures_run_matches_serial(self, capsys, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["figures", "fig8", "--quick",
                     "--out", str(serial_dir)]) == 0
        assert main(["figures", "fig8", "--quick",
                     "--out", str(parallel_dir), "--jobs", "2"]) == 0
        assert (serial_dir / "fig8.txt").read_text() == \
            (parallel_dir / "fig8.txt").read_text()

    def test_warm_campaign_db_serves_the_rerun(self, capsys, tmp_path):
        db = tmp_path / "campaign.sqlite"
        base = ["figures", "fig8", "--quick", "--out", str(tmp_path),
                "--campaign-db", str(db)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "[campaign cache]" in out
        assert "all 1 task(s) served from campaign cache" in out
        assert db.exists()

    def test_no_cache_forces_re_execution(self, capsys, tmp_path):
        db = tmp_path / "campaign.sqlite"
        base = ["figures", "fig8", "--quick", "--out", str(tmp_path),
                "--campaign-db", str(db)]
        assert main(base) == 0
        capsys.readouterr()
        assert main([*base, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[campaign cache]" not in out
        assert "1 executed" in out

    def test_campaign_db_defaults_into_the_out_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
        assert main(["figures", "fig8", "--quick",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "campaign.sqlite").exists()

    def test_campaign_metrics_are_exported(self, capsys, tmp_path):
        assert main(["figures", "fig8", "--quick",
                     "--out", str(tmp_path)]) == 0
        prom = (tmp_path / "campaign_metrics.prom").read_text()
        assert "repro_campaign_tasks_total 1" in prom
        assert "repro_campaign_workers_crashed_total" in prom


_ALPHA_COMMANDS = [
    pytest.param(["leakcheck", "--victim", "const"], id="leakcheck"),
    pytest.param(["synth", "run"], id="synth-run"),
    pytest.param(["synth", "minimize"], id="synth-minimize"),
    pytest.param(["synth", "verify", "w.json"], id="synth-verify"),
]


class TestValueRanges:
    """Flags whose range the program enforces are checked at parse time:
    an out-of-range value exits 2 naming the flag, not a traceback or a
    run with a meaningless setting."""

    @pytest.mark.parametrize("alpha", ["2", "inf", "nan", "0", "1", "-1", "x"])
    @pytest.mark.parametrize("argv", _ALPHA_COMMANDS)
    def test_alpha_outside_the_open_unit_interval_is_rejected(
        self, argv, alpha, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--alpha", alpha])
        assert excinfo.value.code == 2
        assert "argument --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", _ALPHA_COMMANDS)
    def test_alpha_inside_the_open_unit_interval_parses(self, argv):
        parser = build_parser()
        assert parser.parse_args([*argv]).alpha == 0.01
        assert parser.parse_args([*argv, "--alpha", "0.01"]).alpha == 0.01
        assert parser.parse_args([*argv, "--alpha", "0.5"]).alpha == 0.5

    @pytest.mark.parametrize("command, port", [
        ("serve", "-1"),
        ("serve", "65536"),
        ("serve", "70000"),
        ("serve", "x"),
        ("service-load", "0"),
        ("service-load", "-1"),
        ("service-load", "70000"),
        ("service-load", "x"),
    ])
    def test_port_outside_its_range_is_rejected(self, command, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--port", port])
        assert excinfo.value.code == 2
        assert "argument --port" in capsys.readouterr().err

    @pytest.mark.parametrize("command, port", [
        ("serve", "0"),
        ("serve", "65535"),
        ("service-load", "1"),
        ("service-load", "65535"),
    ])
    def test_port_inside_its_range_parses(self, command, port):
        args = build_parser().parse_args([command, "--port", port])
        assert args.port == int(port)

    @pytest.mark.parametrize("gate", ["nan", "-1", "2", "inf", "x"])
    def test_gate_outside_the_unit_interval_is_rejected(self, gate, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["channel", "--gate", gate])
        assert excinfo.value.code == 2
        assert "argument --gate" in capsys.readouterr().err

    def test_gate_inside_the_unit_interval_parses(self):
        parser = build_parser()
        assert parser.parse_args(["channel"]).gate == 0.99
        assert parser.parse_args(["channel", "--gate", "0"]).gate == 0.0
        assert parser.parse_args(["channel", "--gate", "1"]).gate == 1.0

    @pytest.mark.parametrize("backoff", ["-1", "nan", "inf", "1e300", "x"])
    def test_backoff_that_is_not_finite_seconds_is_rejected(
        self, backoff, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--backoff", backoff])
        assert excinfo.value.code == 2
        assert "argument --backoff" in capsys.readouterr().err

    def test_backoff_of_zero_or_more_seconds_parses(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).backoff == 0.5
        assert parser.parse_args(["serve", "--backoff", "0"]).backoff == 0.0
        assert parser.parse_args(["serve", "--backoff", "2.5"]).backoff == 2.5

    def test_timeout_up_to_the_ceiling_parses(self):
        from repro.campaign.worker import MAX_TIMEOUT_S

        args = build_parser().parse_args(
            ["figures", "--timeout", str(MAX_TIMEOUT_S)]
        )
        assert args.timeout == MAX_TIMEOUT_S


class TestLeakcheckList:
    def test_list_enumerates_victims(self, capsys):
        assert main(["leakcheck", "--list"]) == 0
        out = capsys.readouterr().out
        from repro.leakcheck import list_victims

        for spec in list_victims():
            assert spec.name in out

    def test_victim_required_without_list(self, capsys):
        assert main(["leakcheck"]) == 2
        assert "--victim is required" in capsys.readouterr().err


class TestSynthCommands:
    def test_generate_is_deterministic(self, capsys):
        assert main(["synth", "generate", "--seed", "5", "--count", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["synth", "generate", "--seed", "5", "--count", "2"]) == 0
        assert capsys.readouterr().out == first
        assert "gen_seed=5" in first and "gen_seed=6" in first

    def test_generate_json(self, capsys, tmp_path):
        out = tmp_path / "batch.json"
        assert main(["synth", "generate", "--count", "3",
                     "--json", str(out)]) == 0
        import json

        batch = json.loads(out.read_text())
        assert len(batch) == 3
        assert all("program" in item for item in batch)

    def test_run_minimize_corpus_verify_pipeline(self, capsys, tmp_path):
        db = str(tmp_path / "k.sqlite")
        assert main([
            "synth", "run", "--seed", "0", "--budget", "4",
            "--max-ops", "8", "--campaign-db", db, "--expect-leaky", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "synth: preset=sct" in out
        assert "target metaleak_t" in out

        assert main(["synth", "corpus", "--campaign-db", db]) == 0
        assert "leaking program(s) from 4 evaluated" in \
            capsys.readouterr().out

        witness_dir = tmp_path / "w"
        assert main([
            "synth", "minimize", "--campaign-db", db,
            "--target", "metadata", "--out", str(witness_dir),
        ]) == 0
        witness = witness_dir / "witness_metadata.json"
        assert witness.exists()
        capsys.readouterr()

        assert main(["synth", "verify", str(witness)]) == 0
        assert "still leaks" in capsys.readouterr().out

    def test_expect_leaky_gate_fails_loudly(self, capsys, tmp_path):
        assert main([
            "synth", "run", "--seed", "0", "--budget", "1",
            "--max-ops", "8", "--campaign-db", str(tmp_path / "k.sqlite"),
            "--expect-leaky", "999",
        ]) == 1
        assert "expected at least 999" in capsys.readouterr().err

    def test_minimize_without_corpus_hit_fails(self, capsys, tmp_path):
        from repro.campaign import CampaignDB

        empty = tmp_path / "empty.sqlite"
        CampaignDB(empty).close()
        missing = tmp_path / "nope.sqlite"
        for db in (empty, missing):
            assert main([
                "synth", "minimize", "--campaign-db", str(db),
                "--out", str(tmp_path / "w"),
            ]) == 1
            assert "no corpus program hits" in capsys.readouterr().err
        assert not missing.exists()

    def test_minimize_reads_the_campaign_db_by_default(
        self, capsys, tmp_path, monkeypatch
    ):
        import os

        from repro.campaign import CampaignDB, CampaignEngine
        from repro.synth import GenConfig, run_fuzz

        monkeypatch.chdir(tmp_path)
        # A batch recorded in the DB that REPRO_CAMPAIGN_DB names (set
        # per test by conftest) is what minimize reads without options.
        with CampaignDB(os.environ["REPRO_CAMPAIGN_DB"]) as db:
            run_fuzz(budget=2, seed=0, gen=GenConfig(max_ops=8),
                     engine=CampaignEngine(jobs=1, db=db))
        assert main(["synth", "minimize", "--target", "any",
                     "--max-oracle-calls", "4",
                     "--out", str(tmp_path / "w")]) == 0
        assert (tmp_path / "w" / "witness_any.json").exists()

    def test_corpus_missing_file_errors(self, capsys, tmp_path):
        missing = tmp_path / "nope.sqlite"
        assert main(["synth", "corpus", "--campaign-db", str(missing)]) == 2
        assert f"no campaign DB at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    def test_corpus_rejects_an_unknown_defense(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "corpus", "--defense", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_corpus_filters_the_whole_report(self, capsys, tmp_path):
        db = str(tmp_path / "k.sqlite")
        assert main(["synth", "run", "--seed", "0", "--budget", "2",
                     "--max-ops", "8", "--campaign-db", db]) == 0
        capsys.readouterr()
        assert main(["synth", "corpus", "--campaign-db", db,
                     "--preset", "sgx", "--programs"]) == 0
        out = capsys.readouterr().out.splitlines()
        # Only the summary line: no coverage and no program lines.
        assert out == [
            f"corpus: 0 leaking program(s) from 0 evaluated ({db})"
        ]

    def test_verify_checked_in_witnesses(self, capsys):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parent.parent
        paths = [str(repo / "witnesses" / f"witness_metaleak_{x}.json")
                 for x in ("t", "c")]
        assert main(["synth", "verify", *paths]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 2

    def test_verify_rejects_stale_witness(self, capsys, tmp_path):
        import json

        from repro.synth import (
            Guard, Op, OpKind, Program, minimize_program, witness_to_dict,
        )

        result = minimize_program(
            Program(pages=2, ops=(
                Op(kind=OpKind.READ, count=4),
                Op(kind=OpKind.WRITE, guard=Guard.IF_ONE,
                   page=1, count=8, stride=2),
            )),
            target="metadata",
        )
        doc = witness_to_dict(result)
        # Corrupt the program into its unguarded (clean) skeleton.
        for op in doc["program"]["ops"]:
            op["guard"] = "always"
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(doc))
        assert main(["synth", "verify", str(stale)]) == 1
        assert "no longer leaks" in capsys.readouterr().err
