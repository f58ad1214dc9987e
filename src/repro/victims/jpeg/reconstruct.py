"""Image reconstruction from leaked zero/non-zero masks (Figure 15).

The attacker learns, per block and per zigzag position, whether the AC
coefficient was zero.  Reconstruction runs the paper's local pipeline:
starting from a blank image, the leaked entropy information guides the
generation of compressed coefficients — non-zero positions get a default
magnitude (one quantisation step, matching the smallest non-zero value),
and the inverse pipeline produces an image that retains the original's
discernible features.
"""

from __future__ import annotations

import numpy as np

from repro.victims.jpeg.dct import idct2
from repro.victims.jpeg.quant import dequantize, quant_table
from repro.victims.jpeg.zigzag import inverse_zigzag


def reconstruct_from_mask(
    masks: list[list[bool]], shape: tuple[int, int]
) -> np.ndarray:
    """Rebuild an image from per-position zero masks.

    ``masks[b][k]`` is True when block ``b``'s AC coefficient ``k+1`` (in
    zigzag order) was zero.  Each non-zero position gets one quantisation
    step of the quality-50 table, and every DC term is a flat mid-gray.
    """
    height, width = shape
    blocks_per_row = width // 8
    table = quant_table(50)
    image = np.zeros(shape)
    for block_index, mask in enumerate(masks):
        sequence = np.zeros(64)
        for k, is_zero in enumerate(mask, start=1):
            if not is_zero:
                sequence[k] = 1.0
        coefficients = dequantize(inverse_zigzag(sequence), table)
        pixels = idct2(coefficients) + 128.0
        by, bx = divmod(block_index, blocks_per_row)
        image[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = pixels
    return np.clip(image, 0, 255)


def mask_accuracy(
    recovered: list[list[bool]], truth: list[list[bool]]
) -> float:
    """Fraction of zero/non-zero classifications the attacker got right —
    the paper's 'stealing accuracy'."""
    total = 0
    correct = 0
    for recovered_block, true_block in zip(recovered, truth):
        for r, t in zip(recovered_block, true_block):
            total += 1
            correct += int(r == t)
    if total == 0:
        raise ValueError("empty masks")
    return correct / total


def zero_recovery_accuracy(
    recovered: list[list[bool]], truth: list[list[bool]]
) -> float:
    """Accuracy restricted to true-zero positions (the VIII-A2 metric)."""
    total = 0
    correct = 0
    for recovered_block, true_block in zip(recovered, truth):
        for r, t in zip(recovered_block, true_block):
            if t:
                total += 1
                correct += int(r)
    if total == 0:
        raise ValueError("no zero elements in truth")
    return correct / total


def activity_map(masks: list[list[bool]], shape: tuple[int, int]) -> np.ndarray:
    """Per-block non-zero-coefficient density, upsampled to image size.

    This is the information the leak actually carries: blocks with many
    non-zero AC coefficients are the detailed/edge regions of the image.
    """
    height, width = shape
    blocks_per_row = width // 8
    out = np.zeros(shape)
    for block_index, mask in enumerate(masks):
        nonzero = sum(1 for is_zero in mask if not is_zero)
        by, bx = divmod(block_index, blocks_per_row)
        out[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = nonzero
    return out


def feature_correlation(
    recovered: list[list[bool]],
    truth: list[list[bool]],
    shape: tuple[int, int],
) -> float:
    """Correlation of the leaked detail map with the ground-truth one."""
    return pixel_correlation(activity_map(recovered, shape), activity_map(truth, shape))


def pixel_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two images (a fidelity indicator)."""
    flat_a = np.asarray(a, dtype=np.float64).ravel()
    flat_b = np.asarray(b, dtype=np.float64).ravel()
    if flat_a.std() == 0 or flat_b.std() == 0:
        # Degenerate (constant) images: identical means perfect agreement
        # (e.g. an image whose blocks all carry equal detail).
        return 1.0 if np.array_equal(flat_a, flat_b) else 0.0
    return float(np.corrcoef(flat_a, flat_b)[0, 1])


def save_pgm(image: np.ndarray, path: str) -> None:
    """Write a grayscale image as a binary PGM (viewable anywhere)."""
    data = np.clip(np.asarray(image), 0, 255).astype(np.uint8)
    height, width = data.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode())
        handle.write(data.tobytes())
