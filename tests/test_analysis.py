"""Integration tests for the case-study drivers and figure registry.

These run the real end-to-end experiments at reduced scale; the
full-scale runs live in benchmarks/.
"""

import pytest

from repro.analysis import (
    format_result,
    run_jpeg_metaleak_c,
    run_jpeg_metaleak_t,
    run_mbedtls_attack,
    run_rsa_attack,
)
from repro.analysis.figures import FIGURES
from repro.analysis.report import QUICK, FigureResult
from repro.campaign.payload import decode_payload, encode_payload
from repro.utils.stats import aligned_accuracy, edit_distance


class TestReport:
    def test_format_contains_rows(self):
        result = FigureResult(figure="F", title="t")
        result.add("a", 1.0, 2.0, "cycles")
        text = format_result(result)
        assert "F" in text and "a" in text and "cycles" in text

    def test_row_lookup(self):
        result = FigureResult(figure="F", title="t")
        result.add("a", 1.0)
        assert result.row("a").measured == 1.0
        with pytest.raises(KeyError):
            result.row("missing")

    def test_numpy_claim_is_stored_as_bool_and_round_trips(self):
        import numpy

        result = FigureResult(figure="F", title="t")
        result.claim("numpy verdict", numpy.float64(2.0) > 1.0)
        assert type(result.claims[0].holds) is bool
        assert decode_payload(encode_payload(result)) == result


class TestEditDistance:
    def test_basics(self):
        assert edit_distance("abc", "abc") == 0
        assert edit_distance("abc", "abd") == 1
        assert edit_distance("abc", "ab") == 1
        assert edit_distance("", "abc") == 3

    def test_aligned_accuracy(self):
        assert aligned_accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert aligned_accuracy([1, 1], [1, 0, 1]) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            aligned_accuracy([1], [])


class TestJpegCaseStudy:
    def test_metaleak_t_noiseless_is_perfect(self):
        # "text" has spatially varying detail, so the activity map is
        # non-degenerate and correlation is meaningful.
        outcome = run_jpeg_metaleak_t("text", size=16)
        assert outcome.stealing_accuracy == 1.0
        assert outcome.reconstruction_correlation == pytest.approx(1.0)
        assert outcome.steps == 4 * 63

    def test_metaleak_t_images_differ(self):
        flat = run_jpeg_metaleak_t("gradient", size=16)
        busy = run_jpeg_metaleak_t("checkerboard", size=16)
        # Both recover accurately regardless of image content.
        assert flat.stealing_accuracy > 0.95
        assert busy.stealing_accuracy > 0.95

    @pytest.mark.slow
    def test_metaleak_c_recovers_zeros(self):
        outcome = run_jpeg_metaleak_c("gradient", size=16)
        assert outcome.zero_accuracy > 0.9


class TestRsaCaseStudy:
    def test_sct_noiseless_recovers_exponent(self):
        from repro.config import MIB, SecureProcessorConfig

        config = SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        )
        outcome = run_rsa_attack("sct", exponent_bits=48, config=config)
        assert outcome.bit_accuracy == 1.0
        assert outcome.recovered_bits == outcome.true_bits

    def test_sgx_noiseless_recovers_exponent(self):
        from repro.config import MIB, SecureProcessorConfig

        config = SecureProcessorConfig.sgx_default(
            epc_size=64 * MIB, functional_crypto=False
        )
        outcome = run_rsa_attack("sgx", exponent_bits=48, config=config)
        assert outcome.bit_accuracy == 1.0

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            run_rsa_attack("tpm")


class TestMbedtlsCaseStudy:
    def test_noiseless_detection_perfect(self):
        from repro.config import MIB, SecureProcessorConfig

        config = SecureProcessorConfig.sgx_default(
            epc_size=64 * MIB, functional_crypto=False
        )
        outcome = run_mbedtls_attack(secret_bits=48, config=config)
        assert outcome.op_accuracy == 1.0
        assert outcome.labels == outcome.truth


class TestFigureClaims:
    @pytest.mark.parametrize("name", list(FIGURES))
    def test_quick_claims_hold(self, name):
        figure = FIGURES[name]
        result = figure.fn(**figure.quick)
        broken = result.broken_claims(QUICK)
        assert not broken, [claim.name for claim in broken]
