"""Run-length / category coding of AC coefficients (libjpeg-style).

This is the entropy stage whose access pattern Listing 1 leaks: for each
non-zero coefficient the encoder computes its bit category (``nbits``) and
emits an (run, size) symbol; zero coefficients only advance the run length
``r``.  A canonical Huffman code over the (run, size) symbols produces the
final bit count, letting tests verify real compression behaviour.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

MAX_COEF_BITS = 10  # libjpeg's out-of-range guard in Listing 1, line 10
ZRL = (15, 0)  # zero-run-length symbol: 16 zeros
EOB = (0, 0)  # end of block


def bit_category(value: int) -> int:
    """``nbits``: the number of bits needed for a coefficient magnitude."""
    return abs(int(value)).bit_length()


@dataclass(frozen=True)
class AcSymbol:
    """One (run, size) symbol plus its amplitude payload."""

    run: int
    size: int
    amplitude: int


def run_length_encode(ac_coefficients: list[int]) -> list[AcSymbol]:
    """Encode the 63 AC coefficients of one block into (run, size) symbols.

    Mirrors libjpeg's ``encode_one_block`` control flow: ``r`` counts the
    zero run, 16-zero runs emit ZRL, and a trailing zero run emits EOB.
    """
    symbols: list[AcSymbol] = []
    r = 0
    for coefficient in ac_coefficients:
        if coefficient == 0:
            r += 1
            continue
        while r > 15:
            symbols.append(AcSymbol(run=ZRL[0], size=ZRL[1], amplitude=0))
            r -= 16
        nbits = bit_category(coefficient)
        if nbits > MAX_COEF_BITS:
            raise ValueError(f"coefficient {coefficient} out of range")
        symbols.append(AcSymbol(run=r, size=nbits, amplitude=int(coefficient)))
        r = 0
    if r > 0:
        symbols.append(AcSymbol(run=EOB[0], size=EOB[1], amplitude=0))
    return symbols


class HuffmanTable:
    """A canonical Huffman code built from symbol frequencies."""

    def __init__(self, frequencies: Counter) -> None:
        if not frequencies:
            raise ValueError("cannot build a Huffman table from no symbols")
        self.lengths = self._code_lengths(frequencies)
        self.codes = self._canonical_codes(self.lengths)

    @staticmethod
    def _code_lengths(frequencies: Counter) -> dict[object, int]:
        """Package-merge-free length assignment via a simple Huffman heap."""
        import heapq

        heap = [
            (count, index, [symbol])
            for index, (symbol, count) in enumerate(sorted(frequencies.items(), key=str))
        ]
        heapq.heapify(heap)
        lengths = {symbol: 0 for symbol in frequencies}
        if len(heap) == 1:
            only = next(iter(frequencies))
            return {only: 1}
        tiebreak = len(heap)
        while len(heap) > 1:
            count_a, _, symbols_a = heapq.heappop(heap)
            count_b, _, symbols_b = heapq.heappop(heap)
            for symbol in symbols_a + symbols_b:
                lengths[symbol] += 1
            heapq.heappush(
                heap, (count_a + count_b, tiebreak, symbols_a + symbols_b)
            )
            tiebreak += 1
        return lengths

    @staticmethod
    def _canonical_codes(lengths: dict[object, int]) -> dict[object, str]:
        ordered = sorted(lengths.items(), key=lambda item: (item[1], str(item[0])))
        codes: dict[object, str] = {}
        code = 0
        previous_length = 0
        for symbol, length in ordered:
            code <<= length - previous_length
            codes[symbol] = format(code, f"0{length}b")
            code += 1
            previous_length = length
        return codes


def encode_bitstream(per_block_symbols: list[list[AcSymbol]]) -> tuple[str, HuffmanTable]:
    """Huffman-code all blocks' symbols; returns (bitstring, table)."""
    frequencies: Counter = Counter()
    for symbols in per_block_symbols:
        for symbol in symbols:
            frequencies[(symbol.run, symbol.size)] += 1
    table = HuffmanTable(frequencies)
    bits: list[str] = []
    for symbols in per_block_symbols:
        for symbol in symbols:
            bits.append(table.codes[(symbol.run, symbol.size)])
            if symbol.size:
                magnitude = abs(symbol.amplitude)
                payload = format(magnitude, f"0{symbol.size}b")
                if symbol.amplitude < 0:
                    # JPEG one's-complement negative amplitude convention.
                    payload = "".join("1" if b == "0" else "0" for b in payload)
                bits.append(payload)
    return "".join(bits), table
