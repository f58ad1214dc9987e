"""Tests for the noise-resilient pipeline: calibration scoring, ECC-framed
channels, graceful degradation, and watchdog cycle budgets."""

import pytest

from repro.analysis.kvstore_attack import run_kvstore_attack
from repro.attacks import (
    BandStats,
    BitSymbolAdapter,
    Calibration,
    CovertChannelC,
    CovertChannelT,
    EvictionSetSearch,
    ReliableChannel,
    score_calibration,
)
from repro.attacks.noise import co_located_noise
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.os import PageAllocator
from repro.proc import SecureProcessor
from repro.utils.rng import derive_rng
from repro.utils.watchdog import BudgetExceeded, CycleBudget, ensure_budget


def make_env(**overrides):
    overrides.setdefault("protected_size", 128 * MIB)
    overrides.setdefault("functional_crypto", False)
    proc = SecureProcessor(preset_config("sct", **overrides))
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores)
    return proc, alloc


def payload_bits(count, seed=21):
    rng = derive_rng(seed, "resilience-bits")
    return [rng.randint(0, 1) for _ in range(count)]


class TestCalibrationScoring:
    def test_separable_bands_score_high(self):
        cal = score_calibration([100.0] * 8, [300.0] * 8)
        assert cal.ok
        assert cal.quality > 0.9
        assert 100.0 < cal.threshold < 300.0

    def test_overlapping_bands_score_low(self):
        fast = [100.0, 180.0, 120.0, 190.0]
        slow = [150.0, 210.0, 140.0, 230.0]
        cal = score_calibration(fast, slow)
        assert cal.quality < score_calibration([100.0] * 4, [300.0] * 4).quality

    def test_inverted_bands_are_rejected(self):
        cal = score_calibration([300.0] * 8, [100.0] * 8)
        assert cal.quality == 0.0
        assert not cal.ok

    def test_confidence_scales_with_margin(self):
        cal = score_calibration([100.0] * 8, [300.0] * 8)
        on_threshold = cal.confidence(cal.threshold)
        far_away = cal.confidence(cal.threshold + cal.separation)
        assert on_threshold == 0.0
        assert far_away > 0.5


class TestValidation:
    def test_verify_rejects_nonpositive_trials(self):
        proc, alloc = make_env()
        target = alloc.alloc_specific(96) * PAGE_SIZE
        search = EvictionSetSearch(proc, alloc, target_block=target, core=1)
        with pytest.raises(ValueError, match="trials"):
            search.verify([128], trials=0)

    def test_covert_transmit_validates_votes(self):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        with pytest.raises(ValueError, match="votes"):
            channel.transmit([1, 0], votes=0)


class TestCycleBudget:
    def test_budget_expires_and_raises(self):
        proc, _ = make_env()
        budget = CycleBudget(proc, 1000)
        assert not budget.expired
        proc.read(64 * PAGE_SIZE)
        while not budget.expired:
            proc.read(64 * PAGE_SIZE + (proc.cycle % 32) * 64)
        with pytest.raises(BudgetExceeded):
            budget.check("test loop")

    def test_ensure_budget_normalises(self):
        proc, _ = make_env()
        assert ensure_budget(proc, None).unbounded
        assert ensure_budget(proc, 500).remaining <= 500
        budget = CycleBudget(proc, 500)
        assert ensure_budget(proc, budget) is budget

    def test_transmit_respects_budget_without_livelock(self):
        """A tiny budget truncates the transmission: partial result, no hang."""
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        start = proc.cycle
        max_cycles = 200_000
        report = channel.transmit(payload_bits(64), budget=max_cycles)
        # The abort must come at the first bit boundary past the budget:
        # one round's worth of slack, not a livelock's worth.
        assert proc.cycle - start < max_cycles + 100_000
        assert report.truncated
        assert report.degraded
        assert "budget" in report.degraded_reasons
        assert len(report.received) < 64

    def test_kvstore_budget_degrades_not_raises(self):
        result = run_kvstore_attack(buckets=3, budget=1_000_000)
        assert result.degraded
        assert "budget" in result.degraded_reasons
        assert result.truncated


class TestMiscalibratedAttack:
    def test_bogus_threshold_degrades_structurally(self):
        """A deliberately mis-calibrated monitor pair must yield a structured
        low-confidence/degraded report — no exception, no livelock."""
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        # Sabotage both monitors: thresholds far below every real latency,
        # so every reload reads as a miss and quality collapses.
        for monitor in (channel.tx_monitor, channel.bd_monitor):
            monitor.calibration = Calibration(
                threshold=1.0,
                fast=BandStats.from_samples([10.0] * 8),
                slow=BandStats.from_samples([20.0] * 8),
                quality=0.0,
            )
            monitor.threshold = 1.0
        start = proc.cycle
        report = channel.transmit(payload_bits(24), budget=80_000_000)
        assert proc.cycle - start < 81_000_000  # bounded, no livelock
        assert report.degraded
        assert "degenerate-calibration" in report.degraded_reasons
        assert report.mean_confidence < 0.5
        assert len(report.received) == len(report.sent)  # structured result

class TestNoiseSweepWithEcc:
    """The ISSUE's acceptance sweep: raw BER grows with noise intensity
    while the ECC-framed channel keeps delivering the payload."""

    INTENSITIES = (0, 2, 4)

    def _run(self, reads_per_step, payload):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        if reads_per_step:
            channel.noise = co_located_noise(
                channel, alloc, reads_per_step=reads_per_step
            )
        return ReliableChannel(channel).send(payload, max_retries=8, votes=3)

    def test_raw_ber_grows_but_ecc_payload_holds(self):
        payload = payload_bits(32)
        bers = []
        for intensity in self.INTENSITIES:
            framed = self._run(intensity, payload)
            bers.append(framed.raw_ber)
            # ECC acceptance gate, at the noisiest setting too: >= 99%.
            assert framed.payload_accuracy >= 0.99, (
                f"ECC payload accuracy {framed.payload_accuracy} at "
                f"{intensity} reads/step"
            )
            assert framed.delivered
        # Raw wire BER must measurably degrade with intensity:
        # monotonically-ish — the noisiest point is the worst, the clean
        # point is error-free.
        assert bers[0] == 0.0
        assert bers[-1] > 0.01
        assert bers[-1] == max(bers)

    def test_framed_c_channel_delivers(self):
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        framed = ReliableChannel(BitSymbolAdapter(channel)).send(
            payload_bits(16), max_retries=2
        )
        assert framed.payload_accuracy == 1.0
        assert framed.delivered


class TestKvstoreRecovery:
    def test_clean_run_recovers_buckets_with_confidence(self):
        result = run_kvstore_attack(buckets=3)
        assert result.bucket_accuracy == 1.0
        assert result.confidences
        assert all(c == 1.0 for c in result.confidences)
        assert not result.degraded
        assert result.puts_observed == result.puts_true
