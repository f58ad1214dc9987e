"""Tests for the attack-synthesis fuzzer (``repro.synth``).

Covers the IR (validation, address arithmetic, canonical JSON), the
campaign payload codec round-trip for programs (enums, tuples, nested
dataclasses), the seeded generator, the oracle bridge, the corpus read
over the campaign DB, the fuzz driver (including campaign-cache
behaviour), the delta-debugging minimizer's invariants, the checked-in
witness fixtures that re-derive both paper attacks, and the service's
``synth`` job kind.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.campaign import (
    CampaignDB,
    CampaignEngine,
    CampaignTask,
    decode_payload,
    encode_payload,
)
from repro.config import DEFENSES
from repro.leakcheck import run_leakcheck
from repro.synth import (
    TARGETS,
    GenConfig,
    Guard,
    MinimizationError,
    Op,
    OpKind,
    Program,
    ProgramError,
    SynthResult,
    build_fuzz_tasks,
    compile_program,
    corpus_key,
    evaluate_program,
    generate_batch,
    generate_program,
    load_witness,
    minimize_program,
    program_from_json,
    program_to_json,
    read_corpus,
    resolve_target,
    run_fuzz,
    strip_guards,
    target_names,
    task_name,
    validate_program,
)
from repro.synth.ir import LINES_PER_PAGE, op_lines
from repro.synth.runner import METADATA_COMPONENTS, synth_config

REPO = pathlib.Path(__file__).resolve().parent.parent
WITNESS_DIR = REPO / "witnesses"

#: A hand-written program that leaks: a secret-guarded strided write
#: burst diverges the paired runs through the whole metadata path.
LEAKER = Program(
    pages=2,
    ops=(
        Op(kind=OpKind.READ, page=0, offset=0, count=4, stride=1),
        Op(kind=OpKind.WRITE, guard=Guard.IF_ONE, page=1, offset=0,
           count=8, stride=2),
        Op(kind=OpKind.DRAIN),
    ),
)

#: Small generator config keeping property-test oracle runs cheap.
SMALL_GEN = GenConfig(max_pages=2, min_ops=4, max_ops=8)

#: Generated programs with a stream whose counts are equal and that a KS
#: test flags: the first on write-service interarrival times (SCT and
#: HT), the second on flush addresses (every preset, its only flag).
_KS_ONLY_SEEDS = (7001 * 1_000_003 + 102, 7001 * 1_000_003 + 105)


# -- IR --------------------------------------------------------------------


class TestIR:
    def test_validate_accepts_and_chains(self):
        assert validate_program(LEAKER) is LEAKER

    @pytest.mark.parametrize(
        "program",
        [
            Program(pages=0, ops=(Op(kind=OpKind.READ),)),
            Program(pages=1, ops=()),
            Program(pages=1, ops=(Op(kind=OpKind.READ, page=3),)),
            Program(pages=1,
                    ops=(Op(kind=OpKind.READ, offset=LINES_PER_PAGE),)),
            Program(pages=1, ops=(Op(kind=OpKind.READ, count=0),)),
            Program(pages=1, ops=(Op(kind=OpKind.READ, stride=0),)),
        ],
    )
    def test_validate_rejects(self, program):
        with pytest.raises(ProgramError):
            validate_program(program)

    def test_op_lines_wrap_inside_span(self):
        program = Program(
            pages=1,
            ops=(Op(kind=OpKind.READ, offset=LINES_PER_PAGE - 1,
                    count=3, stride=1),),
        )
        lines = op_lines(program, program.ops[0])
        assert lines == [LINES_PER_PAGE - 1, 0, 1]

    def test_drain_touches_no_lines(self):
        assert op_lines(LEAKER, Op(kind=OpKind.DRAIN)) == []

    def test_evict_ignores_stride(self):
        program = Program(
            pages=1, ops=(Op(kind=OpKind.EVICT, count=3, stride=7),)
        )
        assert op_lines(program, program.ops[0]) == [0, 1, 2]

    def test_json_round_trip_is_canonical(self):
        text = program_to_json(LEAKER)
        assert program_from_json(text) == LEAKER
        assert program_to_json(program_from_json(text)) == text
        # Canonical form: sorted keys, no whitespace.
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_strip_guards_clears_every_guard(self):
        stripped = strip_guards(LEAKER)
        assert stripped.guarded_ops == 0
        assert len(stripped.ops) == len(LEAKER.ops)
        assert stripped != LEAKER

    def test_from_json_validates(self):
        with pytest.raises(ProgramError):
            program_from_json('{"pages": 0, "ops": [], "cleanse": false}')


# -- campaign payload codec (programs are campaign task kwargs) ------------


class TestProgramPayloadCodec:
    def test_round_trip_preserves_enums_tuples_nesting(self):
        restored = decode_payload(encode_payload(LEAKER))
        assert restored == LEAKER
        assert isinstance(restored, Program)
        assert isinstance(restored.ops, tuple)
        assert restored.ops[1].kind is OpKind.WRITE
        assert restored.ops[1].guard is Guard.IF_ONE

    def test_encoding_is_byte_stable(self):
        clone = dataclasses.replace(LEAKER)
        assert encode_payload(LEAKER) == encode_payload(clone)

    def test_task_config_hash_stable_across_equal_programs(self):
        def hash_of(program):
            return CampaignTask(
                name="synth_x",
                fn=evaluate_program,
                kwargs={"program": program, "preset": "sct"},
            ).config_hash

        assert hash_of(LEAKER) == hash_of(dataclasses.replace(LEAKER))
        assert hash_of(LEAKER) != hash_of(strip_guards(LEAKER))

    def test_result_round_trips(self):
        result = SynthResult(
            program=LEAKER, preset="sct", defense="none", alpha=0.01,
            gen_seed=7, leaky=True, metadata_leaky=True,
            channels=(("mee", "tree_walk"), ("dram", "read")), events=123,
        )
        restored = decode_payload(encode_payload(result))
        assert restored == result
        assert restored.channels == (("mee", "tree_walk"), ("dram", "read"))


# -- generator -------------------------------------------------------------


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_program(11) == generate_program(11)
        assert generate_program(11) != generate_program(12)

    def test_batch_uses_consecutive_seeds(self):
        batch = generate_batch(100, 4)
        assert [gen_seed for gen_seed, _ in batch] == [100, 101, 102, 103]
        for gen_seed, program in batch:
            assert program == generate_program(gen_seed)

    @pytest.mark.parametrize("seed", range(25))
    def test_every_program_valid_and_guarded(self, seed):
        program = generate_program(seed, SMALL_GEN)
        validate_program(program)
        assert program.guarded_ops >= 1
        assert program.pages <= SMALL_GEN.max_pages
        assert len(program.ops) <= SMALL_GEN.max_ops

    def test_config_validation(self):
        with pytest.raises(ProgramError):
            GenConfig(min_ops=10, max_ops=5).validate()
        with pytest.raises(ProgramError):
            GenConfig(p_guard=1.5).validate()
        with pytest.raises(ProgramError):
            GenConfig(weights=(0, 0, 0, 0, 0)).validate()

    def test_batch_count_must_be_positive(self):
        with pytest.raises(ProgramError):
            generate_batch(0, 0)


# -- oracle bridge ---------------------------------------------------------


class TestOracle:
    def test_hand_written_leaker_hits_both_paper_targets(self):
        result = evaluate_program(program=LEAKER)
        assert result.leaky
        assert result.metadata_leaky
        assert result.hits(TARGETS["metaleak_t"])
        assert result.hits(TARGETS["metaleak_c"])

    def test_unguarded_skeleton_is_clean(self):
        result = evaluate_program(program=strip_guards(LEAKER))
        assert not result.leaky
        assert result.channels == ()
        assert not result.hits(frozenset())

    def test_compile_program_pairs_single_bit(self):
        spec = compile_program(LEAKER)
        assert spec.secrets(0) == (0, 1)
        assert spec.secrets(99) == (0, 1)

    def test_resolve_target(self):
        assert resolve_target("metaleak_t") == frozenset({"mee", "tree"})
        assert resolve_target("metaleak_c") == frozenset({"memctrl", "dram"})
        assert resolve_target("any") == frozenset()
        with pytest.raises(ValueError):
            resolve_target("bogus")
        assert set(target_names()) == {
            "any", "metadata", "metaleak_c", "metaleak_t",
        }

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            evaluate_program(program=LEAKER, defense="bogus")

    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("preset", ["sct", "ht", "sgx"])
    def test_verdict_equals_full_report(self, preset, defense):
        """The oracle stops at each stream's first reason; what it
        returns is still exactly what the full report flags."""
        ks_only = 0
        for gen_seed in (*range(8), *_KS_ONLY_SEEDS):
            program = generate_program(gen_seed)
            result = evaluate_program(
                program=program, preset=preset, defense=defense
            )
            report = run_leakcheck(
                compile_program(program), seed=0,
                config=synth_config(preset, defense),
            )
            channels = tuple(
                (finding.component, finding.kind)
                for finding in report.flagged_findings
            )
            assert result.channels == channels
            assert result.leaky == report.leaky
            assert result.metadata_leaky == any(
                component in METADATA_COMPONENTS for component, _ in channels
            )
            assert result.events == report.events_a + report.events_b
            ks_only += sum(
                finding.count_a == finding.count_b
                for finding in report.flagged_findings
            )
        # Some flag came from a KS test alone, so the KS path is covered.
        assert ks_only > 0


# -- corpus ----------------------------------------------------------------


def _result(program, *, leaky=True, channels=(("mee", "tree_walk"),),
            gen_seed=0, preset="sct", defense="none"):
    return SynthResult(
        program=program, preset=preset, defense=defense, alpha=0.01,
        gen_seed=gen_seed, leaky=leaky,
        metadata_leaky=any(c in {"mee", "tree", "memctrl", "dram", "crypto"}
                           for c, _ in channels),
        channels=channels, events=10,
    )


def _record(db, result, *, status="ok", payload=None):
    """Record ``result`` the way the engine records its synth task."""
    task = CampaignTask(
        name=task_name(result.preset, result.defense, result.gen_seed),
        fn=evaluate_program,
        kwargs={"program": result.program, "preset": result.preset,
                "defense": result.defense, "alpha": result.alpha,
                "gen_seed": result.gen_seed},
    )
    if payload is None and status == "ok":
        payload = encode_payload(result)
    db.record_run(
        config_hash=task.config_hash, git_rev="test", name=task.name,
        seed=None, status=status, attempts=1, elapsed=0.0, payload=payload,
    )


class TestCorpus:
    """``read_corpus``: the leaking programs among a DB's synth runs."""

    def test_add_stores_only_leaky_and_upserts(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            _record(db, _result(LEAKER))
            _record(db, _result(LEAKER))  # a cache-less re-run
            _record(db, _result(LEAKER, gen_seed=5))  # a re-discovery
            _record(db, _result(strip_guards(LEAKER), leaky=False,
                                channels=(), gen_seed=1))
            corpus = read_corpus(db)
        # One entry per (program, machine), the latest result wins; the
        # clean program counts as evaluated but is not listed.
        assert [e.gen_seed for e in corpus.entries.values()] == [5]
        assert corpus.evaluated == 3

    def test_entries_smallest_first_and_best_for(self, tmp_path):
        one_op = Program(pages=1, ops=(Op(kind=OpKind.READ),))
        one_write = Program(pages=1, ops=(Op(kind=OpKind.WRITE),))
        with CampaignDB(tmp_path / "c.sqlite") as db:
            _record(db, _result(LEAKER, channels=(("memctrl", "read"),)))
            _record(db, _result(one_write, gen_seed=9,
                                channels=(("dram", "write"),)))
            _record(db, _result(one_op, gen_seed=4,
                                channels=(("mee", "tree_walk"),)))
            corpus = read_corpus(db)
        entries = list(corpus.entries.values())
        assert [(len(e.program.ops), e.gen_seed) for e in entries] == [
            (1, 4), (1, 9), (3, 0),
        ]
        best = corpus.best_for(resolve_target("metaleak_t"))
        assert best is not None and best.program == one_op
        assert best.hits(resolve_target("metaleak_t"))
        best = corpus.best_for(resolve_target("metaleak_c"))
        assert best is not None and best.program == one_write
        assert corpus.best_for(frozenset({"crypto"})) is None

    def test_coverage_counts_programs_per_channel(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            _record(db, _result(LEAKER, channels=(("mee", "tree_walk"),
                                                  ("dram", "read"))))
            _record(db, _result(strip_guards(LEAKER), gen_seed=1,
                                channels=(("dram", "read"),)))
            corpus = read_corpus(db)
        assert corpus.coverage() == {
            ("mee", "tree_walk"): 1, ("dram", "read"): 2,
        }
        lines = corpus.summary_lines("c.sqlite")
        assert lines[0] == (
            "corpus: 2 leaking program(s) from 2 evaluated (c.sqlite)"
        )
        assert any("mee" in line for line in lines)

    def test_key_depends_on_machine(self, tmp_path):
        assert corpus_key(LEAKER, "sct", "none") != \
            corpus_key(LEAKER, "sgx", "none")
        assert corpus_key(LEAKER, "sct", "none") != \
            corpus_key(LEAKER, "sct", "split_llc")
        with CampaignDB(tmp_path / "c.sqlite") as db:
            for preset, defense in (("sct", "none"), ("sgx", "none"),
                                    ("sct", "split_llc")):
                _record(db, _result(LEAKER, preset=preset, defense=defense))
            assert len(read_corpus(db).entries) == 3
            sgx = read_corpus(db, preset="sgx")
            split = read_corpus(db, defense="split_llc")
        assert [(e.preset, e.defense) for e in sgx.entries.values()] == [
            ("sgx", "none"),
        ]
        assert sgx.evaluated == 1
        assert [(e.preset, e.defense) for e in split.entries.values()] == [
            ("sct", "split_llc"),
        ]

    def test_undecodable_row_is_skipped(self, tmp_path):
        stale = encode_payload(_result(LEAKER, gen_seed=1)).replace(
            '"events":', '"retired_field":'
        )
        with CampaignDB(tmp_path / "c.sqlite") as db:
            _record(db, _result(LEAKER, gen_seed=1), payload=stale)
            _record(db, _result(LEAKER, gen_seed=2), payload="{not json")
            _record(db, _result(LEAKER, gen_seed=3), status="failed")
            _record(db, _result(LEAKER, gen_seed=4))
            db.record_run(
                config_hash="x", git_rev="test", name="synthesis_g0",
                seed=None, status="ok", attempts=1, elapsed=0.0,
                payload=encode_payload(_result(LEAKER, gen_seed=6)),
            )
            assert len(db.runs(name_prefix="synth_")) == 4
            corpus = read_corpus(db)
        assert [e.gen_seed for e in corpus.entries.values()] == [4]
        assert corpus.evaluated == 1


# -- fuzz driver -----------------------------------------------------------


class TestFuzz:
    def test_tasks_are_deterministic_and_named(self):
        tasks = build_fuzz_tasks(budget=3, seed=5, gen=SMALL_GEN)
        again = build_fuzz_tasks(budget=3, seed=5, gen=SMALL_GEN)
        assert [t.name for t in tasks] == [
            "synth_sct_none_g5", "synth_sct_none_g6", "synth_sct_none_g7",
        ]
        assert [t.config_hash for t in tasks] == \
            [t.config_hash for t in again]
        assert task_name("sgx", "split_llc", 9) == "synth_sgx_split_llc_g9"

    def test_run_fuzz_finds_leaks_and_fills_corpus(self, tmp_path):
        with CampaignDB(tmp_path / "c.sqlite") as db:
            report = run_fuzz(budget=4, seed=0, gen=SMALL_GEN,
                              engine=CampaignEngine(jobs=1, db=db))
            corpus = read_corpus(db)
        assert report.evaluated == 4
        assert report.failed == 0
        assert report.leaky >= 1
        assert report.new_in_corpus == len(corpus.entries) >= 1
        assert corpus.evaluated == 4
        assert any(line.startswith("synth:")
                   for line in report.summary_lines())

    def test_identical_batch_adds_nothing_to_the_corpus(self, tmp_path):
        kwargs = dict(budget=3, seed=7, gen=SMALL_GEN)
        with CampaignDB(tmp_path / "c.sqlite") as db:
            first = run_fuzz(engine=CampaignEngine(jobs=1, db=db), **kwargs)
            before = read_corpus(db)
            cached = run_fuzz(engine=CampaignEngine(jobs=1, db=db), **kwargs)
            rerun = run_fuzz(
                engine=CampaignEngine(jobs=1, db=db, use_cache=False),
                **kwargs,
            )
            after = read_corpus(db)
        assert first.new_in_corpus == len(before.entries) >= 1
        assert cached.new_in_corpus == rerun.new_in_corpus == 0
        assert after.evaluated == before.evaluated == 3
        assert list(after.entries) == list(before.entries)

    def test_run_fuzz_without_a_db_reads_nothing(self):
        report = run_fuzz(budget=2, seed=0, gen=SMALL_GEN,
                          engine=CampaignEngine(jobs=1))
        assert report.leaky >= 1
        assert report.new_in_corpus == 0

    def test_second_batch_served_from_campaign_cache(self, tmp_path):
        db = CampaignDB(tmp_path / "campaign.sqlite")
        kwargs = dict(budget=3, seed=7, gen=SMALL_GEN)
        first = run_fuzz(engine=CampaignEngine(jobs=1, db=db), **kwargs)
        engine = CampaignEngine(jobs=1, db=db)
        second = run_fuzz(engine=engine, **kwargs)
        assert second.evaluated == first.evaluated == 3
        assert [r.channels for r in second.results] == \
            [r.channels for r in first.results]
        assert engine.registry.snapshot()["executed"] == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            run_fuzz(budget=0)


# -- minimizer -------------------------------------------------------------


class TestMinimizer:
    # Seeds whose SMALL_GEN draw leaks a metadata channel (so every
    # parametrization exercises a real minimization, none skip).
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6, 10])
    def test_property_witness_still_leaks(self, seed, monkeypatch):
        """Every accepted reduction re-ran the oracle and still leaked."""
        import repro.synth.minimize as minimize_mod

        program = generate_program(seed, SMALL_GEN)
        baseline = evaluate_program(program=program)
        if not baseline.hits(resolve_target("metadata")):
            pytest.skip(f"seed {seed} draw does not leak metadata")

        calls: list[Program] = []
        real = minimize_mod.evaluate_program

        def counting(**kwargs):
            calls.append(kwargs["program"])
            return real(**kwargs)

        monkeypatch.setattr(minimize_mod, "evaluate_program", counting)
        result = minimize_program(program, target="metadata")
        # The minimizer never fabricates: the witness it returns is the
        # last program the oracle confirmed, and re-running it now (with
        # the real oracle) still flags a metadata channel.
        assert calls[-1] == result.witness
        fresh = evaluate_program(program=result.witness)
        assert fresh.hits(resolve_target("metadata"))
        assert result.final_ops <= result.initial_ops
        assert result.oracle_calls == len(calls)
        assert 1 <= result.final_ops <= len(program.ops)
        validate_program(result.witness)

    def test_non_leaking_program_raises(self):
        clean = strip_guards(LEAKER)
        with pytest.raises(MinimizationError):
            minimize_program(clean, target="metadata")

    def test_oracle_budget_respected(self):
        result = minimize_program(LEAKER, target="metadata",
                                  max_oracle_calls=3)
        assert result.oracle_calls <= 4  # budget + final re-check
        fresh = evaluate_program(program=result.witness)
        assert fresh.hits(resolve_target("metadata"))

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError):
            minimize_program(LEAKER, max_oracle_calls=1)


# -- checked-in witness fixtures (the paper attacks, re-derived) -----------


class TestWitnessFixtures:
    """The fuzzer's minimized finds are regression fixtures.

    ``witnesses/witness_metaleak_t.json`` and ``_c.json`` were produced
    by ``repro synth run`` + ``repro synth minimize`` (see docs/synth.md)
    and must keep tripping the detector on their recorded channels.
    """

    def test_fixtures_exist(self):
        assert (WITNESS_DIR / "witness_metaleak_t.json").exists()
        assert (WITNESS_DIR / "witness_metaleak_c.json").exists()

    def test_metaleak_t_witness_flags_tree_path(self):
        witness = load_witness(WITNESS_DIR / "witness_metaleak_t.json")
        assert witness.target == "metaleak_t"
        result = witness.verify()
        flagged = {component for component, _ in result.channels}
        assert flagged & {"mee", "tree"}

    def test_metaleak_c_witness_flags_memctrl_path(self):
        witness = load_witness(WITNESS_DIR / "witness_metaleak_c.json")
        assert witness.target == "metaleak_c"
        result = witness.verify()
        flagged = {component for component, _ in result.channels}
        assert flagged & {"memctrl", "dram"}

    def test_witness_write_and_load_round_trip(self, tmp_path):
        result = minimize_program(LEAKER, target="metaleak_t")
        from repro.synth import write_witness

        path = write_witness(result, tmp_path / "w.json")
        witness = load_witness(path)
        assert witness.program == result.witness
        assert witness.verify().leaky

    def test_load_rejects_foreign_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "other"}')
        with pytest.raises(ValueError):
            load_witness(bogus)


# -- the clean control: const victim stays clean ---------------------------


class TestCleanControl:
    def test_const_victim_clean_across_20_seeds(self):
        """The detector's false-positive control for the synth gate."""
        from repro.leakcheck import run_leakcheck

        for seed in range(20):
            report = run_leakcheck("const", seed=seed)
            assert not report.leaky, f"const flagged at seed {seed}"


# -- service job kind ------------------------------------------------------


class TestSynthJobKind:
    def test_expansion_matches_fuzz_tasks(self):
        from repro.service.jobs import build_job_tasks, job_kinds

        assert "synth" in job_kinds()
        normalized, tasks = build_job_tasks(
            "synth", {"budget": 3, "seed": 4}
        )
        assert normalized == {
            "preset": "sct", "defense": "none", "seed": 4,
            "budget": 3, "alpha": 0.01,
        }
        expected = build_fuzz_tasks(budget=3, seed=4)
        assert [t.name for t in tasks] == [t.name for t in expected]
        assert [t.config_hash for t in tasks] == \
            [t.config_hash for t in expected]

    @pytest.mark.parametrize(
        "spec",
        [
            {"preset": "bogus"},
            {"defense": "bogus"},
            {"budget": 0},
            {"budget": 10_000},
            {"alpha": 0.0},
            {"alpha": True},
        ],
    )
    def test_bad_specs_rejected(self, spec):
        from repro.service.jobs import build_job_tasks

        with pytest.raises(ValueError):
            build_job_tasks("synth", spec)
