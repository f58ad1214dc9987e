"""Reliable framing over the raw covert channels.

The raw MetaLeak covert channels (`CovertChannelT`, `CovertChannelC`)
transmit naked bit/symbol streams: one flipped bit under co-running
noise silently corrupts the payload, and a dropped symbol desynchronises
everything after it.  This module layers a small link protocol on top:

* **sync preambles** — each frame starts with a fixed 8-bit sync word;
  the decoder slides over the reception to re-lock after dropped or
  garbled symbols;
* **Hamming(7,4) forward error correction** — every nibble of header,
  payload and checksum travels as a 7-bit codeword, correcting any
  single bit error per codeword;
* **CRC-8 detection** — residual multi-bit corruption is detected and
  the frame discarded rather than delivered wrong;
* **sequence numbers + bounded ARQ** — frames carry a 4-bit sequence
  number; frames that fail CRC are retransmitted in later rounds, up to
  a retry budget and within a cycle budget, after which the sender gives
  up and reports a *degraded* partial payload.

:class:`FramedReport` carries both the raw-wire error rate and the
post-ECC payload accuracy plus effective goodput, so noise sweeps can
plot a "with ECC" series next to the raw channel (Figs. 11/14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.utils.watchdog import CycleBudget, ensure_budget

#: Fixed frame sync word.  Chosen for weak self-overlap so a shifted
#: reception does not alias back onto a frame start.
PREAMBLE: tuple[int, ...] = (1, 0, 1, 1, 0, 1, 0, 0)

#: Payload nibbles per frame (16 payload bits).
DEFAULT_PAYLOAD_NIBBLES = 4

#: Bits :class:`BitSymbolAdapter` packs into one MetaLeak-C symbol.
_BITS_PER_SYMBOL = 6

SEQ_BITS = 4
_SEQ_SPACE = 1 << SEQ_BITS


# ---------------------------------------------------------------------------
# Hamming(7,4)
# ---------------------------------------------------------------------------


def hamming74_encode(nibble: int) -> tuple[int, ...]:
    """Encode a 4-bit value into a 7-bit Hamming codeword."""
    if not 0 <= nibble < 16:
        raise ValueError(f"hamming74_encode takes a nibble (0..15), got {nibble}")
    d = [(nibble >> shift) & 1 for shift in (3, 2, 1, 0)]
    p1 = d[0] ^ d[1] ^ d[3]
    p2 = d[0] ^ d[2] ^ d[3]
    p3 = d[1] ^ d[2] ^ d[3]
    return (p1, p2, d[0], p3, d[1], d[2], d[3])


def hamming74_decode(codeword: Sequence[int]) -> tuple[int, bool]:
    """Decode a 7-bit codeword; returns ``(nibble, corrected)``.

    Any single flipped bit is located by the syndrome and corrected;
    double errors alias onto a wrong-but-valid codeword, which is why
    frames additionally carry a CRC.
    """
    if len(codeword) != 7:
        raise ValueError(f"hamming74_decode takes 7 bits, got {len(codeword)}")
    c = [bit & 1 for bit in codeword]
    s1 = c[0] ^ c[2] ^ c[4] ^ c[6]
    s2 = c[1] ^ c[2] ^ c[5] ^ c[6]
    s3 = c[3] ^ c[4] ^ c[5] ^ c[6]
    syndrome = s1 | (s2 << 1) | (s3 << 2)
    corrected = syndrome != 0
    if corrected:
        c[syndrome - 1] ^= 1
    nibble = (c[2] << 3) | (c[4] << 2) | (c[5] << 1) | c[6]
    return nibble, corrected


# ---------------------------------------------------------------------------
# CRC-8
# ---------------------------------------------------------------------------


def crc8(bits: Sequence[int]) -> int:
    """Bit-serial CRC-8 (poly ``x^8 + x^2 + x + 1``, initial value 0)."""
    crc = 0
    for bit in bits:
        crc ^= (bit & 1) << 7
        crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
    return crc


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def frame_wire_bits(payload_nibbles: int = DEFAULT_PAYLOAD_NIBBLES) -> int:
    """Wire bits per frame: preamble + 7 bits per (seq, payload, crc) nibble."""
    return len(PREAMBLE) + 7 * (1 + payload_nibbles + 2)


def frame_payload_bits(payload_nibbles: int = DEFAULT_PAYLOAD_NIBBLES) -> int:
    return 4 * payload_nibbles


def encode_frame(seq: int, payload: Sequence[int]) -> list[int]:
    """Encode one frame: preamble, then Hamming-coded seq/payload/CRC."""
    capacity = frame_payload_bits()
    if len(payload) > capacity:
        raise ValueError(
            f"frame payload of {len(payload)} bits exceeds capacity {capacity}"
        )
    bits = [b & 1 for b in payload] + [0] * (capacity - len(payload))
    nibbles = [seq % _SEQ_SPACE]
    for i in range(0, capacity, 4):
        nibbles.append(
            (bits[i] << 3) | (bits[i + 1] << 2) | (bits[i + 2] << 1) | bits[i + 3]
        )
    checked_bits: list[int] = []
    for nibble in nibbles:
        checked_bits.extend((nibble >> shift) & 1 for shift in (3, 2, 1, 0))
    checksum = crc8(checked_bits)
    nibbles.append(checksum >> 4)
    nibbles.append(checksum & 0xF)

    wire = list(PREAMBLE)
    for nibble in nibbles:
        wire.extend(hamming74_encode(nibble))
    return wire


@dataclass(frozen=True)
class DecodedFrame:
    """One frame recovered from a reception."""

    seq: int
    payload: tuple[int, ...]
    crc_ok: bool
    corrected_bits: int  # single-bit errors fixed by Hamming decode
    start: int  # index of the preamble in the reception


def _find_preamble(bits: Sequence[int], start: int) -> int:
    pattern = PREAMBLE
    limit = len(bits) - len(pattern)
    for offset in range(start, limit + 1):
        if all(bits[offset + i] == pattern[i] for i in range(len(pattern))):
            return offset
    return -1


def decode_stream(bits: Sequence[int]) -> list[DecodedFrame]:
    """Scan a reception for frames, re-syncing on each preamble.

    Dropped or corrupted symbols before or between frames are skipped by
    sliding to the next preamble match — the resync property the tests
    exercise by truncating the head of the reception.
    """
    bits = [b & 1 for b in bits]
    body_nibbles = 1 + DEFAULT_PAYLOAD_NIBBLES + 2
    frames: list[DecodedFrame] = []
    position = 0
    while True:
        start = _find_preamble(bits, position)
        if start < 0:
            break
        body_start = start + len(PREAMBLE)
        if body_start + 7 * body_nibbles > len(bits):
            # Partial trailing frame: maybe the preamble match was a
            # payload coincidence — slide one bit and retry.
            position = start + 1
            continue
        nibbles: list[int] = []
        corrected = 0
        for index in range(body_nibbles):
            offset = body_start + 7 * index
            nibble, fixed = hamming74_decode(bits[offset : offset + 7])
            nibbles.append(nibble)
            corrected += int(fixed)
        checked_bits: list[int] = []
        for nibble in nibbles[: 1 + DEFAULT_PAYLOAD_NIBBLES]:
            checked_bits.extend((nibble >> shift) & 1 for shift in (3, 2, 1, 0))
        checksum = (nibbles[-2] << 4) | nibbles[-1]
        crc_ok = crc8(checked_bits) == checksum
        payload: list[int] = []
        for nibble in nibbles[1 : 1 + DEFAULT_PAYLOAD_NIBBLES]:
            payload.extend((nibble >> shift) & 1 for shift in (3, 2, 1, 0))
        frames.append(
            DecodedFrame(
                seq=nibbles[0],
                payload=tuple(payload),
                crc_ok=crc_ok,
                corrected_bits=corrected,
                start=start,
            )
        )
        if crc_ok:
            position = body_start + 7 * body_nibbles
        else:
            # The frame body may itself hide a real preamble (lost sync
            # mid-frame); rescan from just past this false start.
            position = start + 1
    return frames


# ---------------------------------------------------------------------------
# Reliable channel (framing + ARQ) over a raw bit channel
# ---------------------------------------------------------------------------


class _BitChannel(Protocol):  # pragma: no cover - structural typing only
    def transmit(self, bits: Sequence[int], **kwargs: object) -> object: ...


@dataclass
class FramedReport:
    """Outcome of a framed, ECC-protected transmission."""

    payload_sent: list[int]
    payload_received: list[int]
    delivered: list[bool]  # per-frame delivery flags
    cycles: int
    raw_bits_sent: int = 0
    raw_bit_errors: int = 0
    frames_sent: int = 0
    frames_delivered: int = 0
    retransmissions: int = 0
    corrected_bits: int = 0
    crc_failures: int = 0
    rounds: int = 0
    truncated: bool = False
    degraded: bool = False
    degraded_reasons: tuple[str, ...] = ()
    confidences: list[float] = field(default_factory=list)

    @property
    def raw_ber(self) -> float:
        """Bit error rate on the wire, before any correction."""
        if self.raw_bits_sent == 0:
            raise ValueError("no raw bits were transmitted")
        return self.raw_bit_errors / self.raw_bits_sent

    @property
    def payload_accuracy(self) -> float:
        """Post-ECC payload accuracy (undelivered bits count as errors)."""
        if not self.payload_sent:
            raise ValueError("no payload bits were sent")
        matched = sum(
            1
            for sent, got in zip(self.payload_sent, self.payload_received)
            if sent == got
        )
        return matched / len(self.payload_sent)

    @property
    def goodput_bits_per_kilocycle(self) -> float:
        """Correctly delivered payload bits per 1000 cycles."""
        if self.cycles <= 0:
            return 0.0
        matched = sum(
            1
            for sent, got in zip(self.payload_sent, self.payload_received)
            if sent == got
        )
        return 1000.0 * matched / self.cycles


class ReliableChannel:
    """Framing + Hamming(7,4) + CRC-8 + bounded ARQ over a bit channel.

    ``channel`` is anything with a ``transmit(bits, ...) -> ChannelReport``
    returning received bits positionally (``CovertChannelT``, or
    ``CovertChannelC`` wrapped in :class:`BitSymbolAdapter`).  The ARQ
    feedback path (which frames failed CRC) is assumed noiseless, the
    standard covert-channel assumption of a quiet reverse channel.
    """

    def __init__(self, channel: _BitChannel) -> None:
        self.channel = channel

    def send(
        self,
        payload: Sequence[int],
        *,
        max_retries: int = 2,
        budget: "CycleBudget | int | None" = None,
        **transmit_kwargs: object,
    ) -> FramedReport:
        """Send a payload; returns a :class:`FramedReport`.

        ``max_retries`` bounds extra ARQ rounds after the initial
        transmission.  ``budget`` (cycles) bounds the whole exchange;
        on expiry the send stops and undelivered frames stay zeroed with
        ``truncated``/``degraded`` set.  Remaining keyword arguments are
        forwarded to the underlying ``transmit`` (e.g. ``votes=3``).
        """
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        payload = [b & 1 for b in payload]
        if not payload:
            raise ValueError("cannot send an empty payload")
        proc = getattr(self.channel, "proc", None)
        if proc is None:  # adapter-wrapped channel
            proc = self.channel.channel.proc  # type: ignore[attr-defined]
        budget = ensure_budget(proc, budget)

        per_frame = frame_payload_bits()
        chunks = [payload[i : i + per_frame] for i in range(0, len(payload), per_frame)]
        pending = list(range(len(chunks)))
        received_chunks: dict[int, tuple[int, ...]] = {}
        chunk_confidence: dict[int, float] = {}

        report = FramedReport(
            payload_sent=list(payload),
            payload_received=[],
            delivered=[],
            cycles=0,
        )
        start_cycle = proc.cycle

        for round_index in range(max_retries + 1):
            if not pending or budget.expired:
                break
            wire: list[int] = []
            frame_of_seq: list[tuple[int, int]] = []  # (seq, chunk index)
            for chunk_index in pending:
                wire.extend(encode_frame(chunk_index, chunks[chunk_index]))
                frame_of_seq.append((chunk_index % _SEQ_SPACE, chunk_index))
            channel_report = self.channel.transmit(
                wire, budget=budget, **transmit_kwargs
            )
            received = [b & 1 for b in channel_report.received]
            report.rounds += 1
            report.frames_sent += len(pending)
            if round_index > 0:
                report.retransmissions += len(pending)
            report.raw_bits_sent += len(wire)
            report.raw_bit_errors += sum(
                1 for sent, got in zip(wire, received) if sent != got
            ) + max(0, len(wire) - len(received))
            if getattr(channel_report, "truncated", False):
                report.truncated = True

            confidences = list(getattr(channel_report, "confidences", []) or [])
            for frame in decode_stream(received):
                report.corrected_bits += frame.corrected_bits
                if not frame.crc_ok:
                    report.crc_failures += 1
                    continue
                for position, (seq, chunk_index) in enumerate(frame_of_seq):
                    if seq == frame.seq and chunk_index in pending:
                        received_chunks[chunk_index] = frame.payload
                        body = frame_wire_bits()
                        window = confidences[frame.start : frame.start + body]
                        chunk_confidence[chunk_index] = (
                            sum(window) / len(window) if window else 1.0
                        )
                        pending.remove(chunk_index)
                        del frame_of_seq[position]
                        break

        report.cycles = proc.cycle - start_cycle
        if budget.expired and pending:
            report.truncated = True
        report.frames_delivered = len(chunks) - len(pending)
        for index, chunk in enumerate(chunks):
            delivered = index in received_chunks
            report.delivered.append(delivered)
            if delivered:
                report.payload_received.extend(
                    received_chunks[index][: len(chunk)]
                )
                report.confidences.extend(
                    [chunk_confidence.get(index, 1.0)] * len(chunk)
                )
            else:
                report.payload_received.extend([0] * len(chunk))
                report.confidences.extend([0.0] * len(chunk))

        reasons: list[str] = []
        if pending:
            reasons.append("undelivered-frames")
        if report.truncated:
            reasons.append("budget")
        report.degraded = bool(reasons)
        report.degraded_reasons = tuple(reasons)
        return report


class BitSymbolAdapter:
    """Present ``CovertChannelC``'s symbol interface as a bit channel.

    Packs 6 bits into one counter symbol (MSB first), so every symbol
    fits a 7-bit minor's largest value.  Symbols the spy failed to
    decode (reported as ``-1``) unpack to zero bits with zero
    confidence; the framing CRC catches the corruption and ARQ
    retransmits the affected frames.
    """

    def __init__(self, channel: object) -> None:
        max_symbol = getattr(channel, "max_symbol", None)
        if max_symbol is not None and (1 << _BITS_PER_SYMBOL) - 1 > max_symbol:
            raise ValueError(
                f"{_BITS_PER_SYMBOL} bits per symbol exceeds the channel's "
                f"maximum symbol value {max_symbol}"
            )
        self.channel = channel

    def transmit(self, bits: Sequence[int], **kwargs: object) -> object:
        width = _BITS_PER_SYMBOL
        bits = [b & 1 for b in bits]
        padded = bits + [0] * (-len(bits) % width)
        symbols = [
            int("".join(str(b) for b in padded[i : i + width]), 2)
            for i in range(0, len(padded), width)
        ]
        report = self.channel.transmit(symbols, **kwargs)  # type: ignore[attr-defined]
        out_bits: list[int] = []
        out_conf: list[float] = []
        symbol_conf = list(getattr(report, "confidences", []) or [])
        for index, symbol in enumerate(report.received):
            conf = symbol_conf[index] if index < len(symbol_conf) else 1.0
            if symbol is None or symbol < 0:
                out_bits.extend([0] * width)
                out_conf.extend([0.0] * width)
            else:
                out_bits.extend((symbol >> shift) & 1 for shift in range(width - 1, -1, -1))
                out_conf.extend([conf] * width)
        # Re-shape the report into the bit-channel view the framing expects.
        report.received = out_bits[: len(bits)] if len(out_bits) >= len(bits) else out_bits
        report.confidences = out_conf[: len(report.received)]
        report.sent = list(bits)
        return report
