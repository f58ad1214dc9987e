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
    align_down,
    align_up,
    bit_error_rate,
    derive_rng,
    extract_bits,
    hamming_accuracy,
    is_power_of_two,
    log2_exact,
    mask,
    otsu_threshold,
    summarize,
)


class TestBitops:
    def test_mask_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(7) == 127
        assert mask(64) == (1 << 64) - 1

    def test_mask_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    def test_extract_bits(self):
        assert extract_bits(0b101100, 2, 3) == 0b011
        assert extract_bits(0xFF, 4, 4) == 0xF
        assert extract_bits(0, 10, 10) == 0

    def test_extract_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            extract_bits(1, -1, 2)

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
        assert align_down(0x12345, 0x1000) == 0x12000
        assert align_up(0x12345, 0x1000) == 0x13000
        assert align_up(0x12000, 0x1000) == 0x12000

    def test_align_non_power_rejected(self):
        with pytest.raises(ValueError):
            align_down(10, 3)

    @given(st.integers(min_value=0, max_value=2**48), st.integers(min_value=0, max_value=20))
    def test_align_roundtrip_property(self, value, shift):
        alignment = 1 << shift
        down = align_down(value, alignment)
        up = align_up(value, alignment)
        assert down <= value <= up
        assert down % alignment == 0
        assert up % alignment == 0
        assert up - down in (0, alignment)

    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=32))
    def test_extract_bits_bounded(self, value, low, count):
        assert 0 <= extract_bits(value, low, count) < (1 << count) + 1


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

    def test_bit_error_rate(self):
        assert bit_error_rate([1, 1], [1, 0]) == 0.5

    def test_hamming_accuracy(self):
        assert hamming_accuracy(0b1010, 0b1010, 4) == 1.0
        assert hamming_accuracy(0b1010, 0b0010, 4) == 0.75
        with pytest.raises(ValueError):
            hamming_accuracy(1, 1, 0)

    def test_otsu_separates_bimodal(self):
        sample = [100.0] * 50 + [500.0] * 50
        threshold = otsu_threshold(sample)
        assert 100 < threshold < 500

    def test_otsu_degenerate(self):
        # A uniform sample has a single band: there is no threshold to
        # find, and returning any number would be silently meaningless.
        with pytest.raises(ValueError, match="degenerate"):
            otsu_threshold([42.0, 42.0])
        with pytest.raises(ValueError, match="empty"):
            otsu_threshold([])

    def test_accuracy_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([1, 0], [])
        with pytest.raises(ValueError, match="empty"):
            bit_error_rate([], [])

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=50),
        st.lists(st.floats(min_value=500, max_value=600), min_size=2, max_size=50),
    )
    def test_otsu_property_bimodal(self, low, high):
        threshold = otsu_threshold(low + high)
        assert max(low) <= threshold <= min(high) + 1e-6


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
