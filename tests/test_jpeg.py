"""Tests for the JPEG victim pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MIB, PAGE_SIZE, preset_config
from repro.os import PageAllocator, Process
from repro.proc import SecureProcessor
from repro.victims.jpeg import (
    JpegEncoder,
    JpegVictim,
    dct2,
    idct2,
    inverse_zigzag,
    mask_accuracy,
    quant_table,
    quantize,
    dequantize,
    reconstruct_from_mask,
    sample_image,
    sample_image_names,
    zigzag,
    ZIGZAG_ORDER,
)
from repro.victims.jpeg.encoder import EncodedImage
from repro.victims.jpeg.huffman import (
    EOB,
    ZRL,
    AcSymbol,
    bit_category,
    encode_bitstream,
    run_length_encode,
)
from repro.victims.jpeg.reconstruct import (
    activity_map,
    feature_correlation,
    pixel_correlation,
    zero_recovery_accuracy,
)


def run_length_decode(symbols: list[AcSymbol]) -> list[int]:
    """Invert :func:`run_length_encode` back to 63 AC coefficients."""
    coefficients: list[int] = []
    for symbol in symbols:
        if (symbol.run, symbol.size) == EOB:
            break
        if (symbol.run, symbol.size) == ZRL:
            coefficients.extend([0] * 16)
            continue
        coefficients.extend([0] * symbol.run)
        coefficients.append(symbol.amplitude)
    coefficients.extend([0] * (63 - len(coefficients)))
    return coefficients[:63]


def reconstruct_reference(encoded: EncodedImage) -> np.ndarray:
    """Full decode of the true encoding (the paper's Oracle column)."""
    height, width = encoded.shape
    blocks_per_row = width // 8
    table = quant_table(encoded.quality)
    image = np.zeros(encoded.shape)
    for block_index, ac in enumerate(encoded.ac_blocks):
        sequence = np.zeros(64)
        sequence[0] = encoded.dc[block_index]
        sequence[1:] = ac
        coefficients = dequantize(inverse_zigzag(sequence), table)
        pixels = idct2(coefficients) + 128.0
        by, bx = divmod(block_index, blocks_per_row)
        image[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = pixels
    return np.clip(image, 0, 255)


class TestDct:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        block = rng.uniform(-128, 127, (8, 8))
        assert np.allclose(idct2(dct2(block)), block)

    def test_dc_of_flat_block(self):
        block = np.full((8, 8), 80.0)
        coefficients = dct2(block)
        assert coefficients[0, 0] == pytest.approx(80.0 * 8)
        assert np.allclose(coefficients.ravel()[1:], 0)

    def test_orthonormal_energy(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(8, 8))
        assert np.sum(block**2) == pytest.approx(np.sum(dct2(block) ** 2))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            dct2(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            idct2(np.zeros((8, 4)))


class TestZigzag:
    def test_order_properties(self):
        assert len(ZIGZAG_ORDER) == 64
        assert len(set(ZIGZAG_ORDER)) == 64
        assert ZIGZAG_ORDER[0] == (0, 0)
        assert ZIGZAG_ORDER[1] in ((0, 1), (1, 0))

    def test_roundtrip(self):
        block = np.arange(64).reshape(8, 8)
        assert np.array_equal(inverse_zigzag(zigzag(block)), block)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            inverse_zigzag(np.zeros(10))


class TestQuant:
    def test_quality_scaling(self):
        low = quant_table(10)
        high = quant_table(90)
        assert (low >= high).all()
        assert low.min() >= 1

    def test_quality_range(self):
        with pytest.raises(ValueError):
            quant_table(0)

    def test_quantize_roundtrip_coarse(self):
        table = quant_table(50)
        coefficients = np.full((8, 8), 100.0)
        recovered = dequantize(quantize(coefficients, table), table)
        assert np.abs(recovered - coefficients).max() <= table.max() / 2


class TestRunLength:
    def test_roundtrip(self):
        ac = [0, 5, 0, 0, -3, 0, 1] + [0] * 56
        assert run_length_decode(run_length_encode(ac)) == ac

    def test_long_zero_run_uses_zrl(self):
        ac = [0] * 20 + [7] + [0] * 42
        symbols = run_length_encode(ac)
        assert (symbols[0].run, symbols[0].size) == (15, 0)  # ZRL
        assert run_length_decode(symbols) == ac

    def test_trailing_zeros_eob(self):
        ac = [3] + [0] * 62
        symbols = run_length_encode(ac)
        assert (symbols[-1].run, symbols[-1].size) == (0, 0)  # EOB

    def test_bit_category(self):
        assert bit_category(0) == 0
        assert bit_category(1) == 1
        assert bit_category(-3) == 2
        assert bit_category(1023) == 10

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ValueError):
            run_length_encode([4096] + [0] * 62)

    @given(st.lists(st.integers(min_value=-200, max_value=200), min_size=63, max_size=63))
    @settings(max_examples=50)
    def test_roundtrip_property(self, ac):
        assert run_length_decode(run_length_encode(ac)) == ac

    def test_bitstream_produced(self):
        symbols = [run_length_encode([1, 0, -2] + [0] * 60)]
        bits, table = encode_bitstream(symbols)
        assert set(bits) <= {"0", "1"}
        assert len(bits) > 0


class TestEncoder:
    def test_flat_image_compresses_tiny(self):
        encoder = JpegEncoder(50)
        flat = np.full((16, 16), 128.0)
        encoded = encoder.encode(flat)
        assert all(all(c == 0 for c in block) for block in encoded.ac_blocks)

    def test_detailed_image_has_nonzeros(self):
        encoder = JpegEncoder(50)
        encoded = encoder.encode(sample_image("checkerboard", 16))
        assert any(any(c != 0 for c in block) for block in encoded.ac_blocks)

    def test_zero_masks_shape(self):
        encoder = JpegEncoder(50)
        encoded = encoder.encode(sample_image("gradient", 16))
        masks = encoded.zero_masks()
        assert len(masks) == 4
        assert all(len(m) == 63 for m in masks)

    def test_compression_beats_raw(self):
        encoder = JpegEncoder(50)
        encoded = encoder.encode(sample_image("gradient", 32))
        assert encoded.compressed_bits < 32 * 32 * 8

    def test_unaligned_image_rejected(self):
        with pytest.raises(ValueError):
            JpegEncoder().encode(np.zeros((10, 10)))

    def test_reference_decode_close(self):
        image = sample_image("circles", 16)
        encoded = JpegEncoder(90).encode(image)
        decoded = reconstruct_reference(encoded)
        assert pixel_correlation(decoded, image) > 0.95


class TestSampleImages:
    def test_all_generate(self):
        for name in sample_image_names():
            image = sample_image(name, 16)
            assert image.shape == (16, 16)
            assert image.min() >= 0 and image.max() <= 255

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            sample_image("nonexistent")

    def test_size_multiple_of_8(self):
        with pytest.raises(ValueError):
            sample_image("circles", 17)


class TestReconstruction:
    def test_mask_accuracy_bounds(self):
        truth = [[True, False], [False, True]]
        assert mask_accuracy(truth, truth) == 1.0
        flipped = [[not v for v in row] for row in truth]
        assert mask_accuracy(flipped, truth) == 0.0

    def test_zero_recovery_accuracy(self):
        truth = [[True, True, False]]
        recovered = [[True, False, False]]
        assert zero_recovery_accuracy(recovered, truth) == 0.5

    def test_activity_map_tracks_detail(self):
        masks = [[True] * 63, [False] * 63]
        amap = activity_map(masks, (8, 16))
        assert amap[0, 0] == 0
        assert amap[0, 8] == 63

    def test_feature_correlation_perfect_for_truth(self):
        encoded = JpegEncoder(50).encode(sample_image("text", 16))
        truth = encoded.zero_masks()
        assert feature_correlation(truth, truth, encoded.shape) == pytest.approx(1.0)

    def test_reconstruct_shape_and_range(self):
        masks = [[True] * 63] * 4
        image = reconstruct_from_mask(masks, (16, 16))
        assert image.shape == (16, 16)
        assert image.min() >= 0 and image.max() <= 255


class TestJpegVictim:
    def setup_method(self):
        self.proc = SecureProcessor(
            preset_config(
                "sct", protected_size=64 * MIB, functional_crypto=False
            )
        )
        self.alloc = PageAllocator(self.proc.layout.data_size // PAGE_SIZE)
        self.process = Process(self.proc, self.alloc, cleanse=True)

    def test_variables_on_distinct_pages(self):
        victim = JpegVictim(self.process)
        assert victim.r_frame != victim.nbits_frame

    def test_steps_match_coefficients(self):
        victim = JpegVictim(self.process)
        image = sample_image("gradient", 16)
        steps = list(victim.encode_image(image))
        assert len(steps) == 4 * 63

    def test_step_ground_truth_matches_encoding(self):
        victim = JpegVictim(self.process)
        image = sample_image("checkerboard", 16)
        generator = victim.encode_image(image)
        steps = []
        while True:
            try:
                steps.append(next(generator))
            except StopIteration as stop:
                encoded = stop.value
                break
        truth = encoded.zero_masks()
        for step in steps:
            assert truth[step.block][step.k - 1] == step.is_zero

    def test_victim_touches_correct_pages(self):
        victim = JpegVictim(self.process)
        # A block of all-zero coefficients must touch only the r page.
        list(victim.encode_one_block([0] * 63))
        assert self.proc.registry.get("proc.writes") > 0
