"""Unit tests for repro.utils (bitops, rng, stats, provenance)."""

import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.utils import (
    DeterministicRng,
    accuracy,
    align_up,
    derive_rng,
    is_power_of_two,
    log2_exact,
    summarize,
)


class TestBitops:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(64) == 6
        with pytest.raises(ValueError):
            log2_exact(48)

    def test_align(self):
        assert align_up(0x12345, 0x1000) == 0x13000
        assert align_up(0x12000, 0x1000) == 0x12000

    def test_align_non_power_rejected(self):
        with pytest.raises(ValueError):
            align_up(10, 3)

    @given(st.integers(min_value=0, max_value=2**48), st.integers(min_value=0, max_value=20))
    def test_align_roundtrip_property(self, value, shift):
        alignment = 1 << shift
        up = align_up(value, alignment)
        assert value <= up
        assert up % alignment == 0
        assert up - value < alignment


class TestRng:
    def test_determinism(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_labels_independent(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "y")
        assert a.random() != b.random()

    def test_child_derivation(self):
        root = derive_rng(7)
        assert isinstance(root.child("noise"), DeterministicRng)
        assert root.child("noise").random() == derive_rng(7, "noise").random()

    def test_seed_types(self):
        assert derive_rng("seed").random() == derive_rng(b"seed").random()
        assert derive_rng(-5).random() == derive_rng(-5).random()

    @pytest.mark.parametrize(
        "seed", [0, -5, 2**70, "seed", b"\x00raw"],
        ids=["zero", "negative", "wide", "str", "bytes"],
    )
    @pytest.mark.parametrize(
        "labels", [(), ("timer",), ("campaign", "sct")], ids=["0", "1", "2"]
    )
    def test_matches_chained_children(self, seed, labels):
        """``derive_rng`` seeds one generator from the material a chain of
        ``child`` calls from the root seed reaches, and draws the same."""
        if isinstance(seed, int):
            material = seed.to_bytes(16, "little", signed=True)
        elif isinstance(seed, str):
            material = seed.encode()
        else:
            material = seed
        chained = DeterministicRng(material)
        for label in labels:
            chained = chained.child(label)
        rng = derive_rng(seed, *labels)
        assert rng.seed_material == chained.seed_material
        draws = [(r.random(), r.getrandbits(64), r.randrange(1000), r.gauss(0, 1))
                 for r in (rng, chained)]
        assert draws[0] == draws[1]


class TestStats:
    def test_summarize_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.median == 3
        assert math.isclose(s.mean, 3.0)

    def test_summarize_single(self):
        s = summarize([10])
        assert s.minimum == s.maximum == s.median == 10

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_str(self):
        assert "med=" in str(summarize([1, 2, 3]))

    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert accuracy([1, 0, 0], [1, 0, 1]) == pytest.approx(2 / 3)
        # Short prediction counts missing as errors.
        assert accuracy([1], [1, 0]) == 0.5

    def test_accuracy_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([1, 0], [])


# A fresh interpreter, so no earlier lookup has memoised the revision.
_GIT_REV_SCRIPT = """
import subprocess
from repro.utils import provenance

forks = []

def failing_git(args, **kwargs):
    forks.append(args)
    if {oserror}:
        raise OSError("git not found")
    return subprocess.CompletedProcess(args, 128, "", "not a git repository")

subprocess.run = failing_git
print(provenance.git_rev(), provenance.git_rev(), len(forks))
"""


class TestProvenance:
    @pytest.mark.parametrize("oserror", [False, True], ids=["exit", "oserror"])
    def test_failing_git_forks_once(self, oserror):
        """Outside a checkout, ``"unknown"`` is memoised like a revision:
        a process forks ``git`` at most once."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _GIT_REV_SCRIPT.format(oserror=oserror)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["unknown", "unknown", "1"]
