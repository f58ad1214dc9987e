"""MetaLeak: side channels through security metadata (Section VI).

The framework exposes the paper's two attack variants plus the shared
machinery they are built from:

* :class:`~repro.attacks.mapping.MetadataMapper` — derive counter/tree-node
  addresses and metadata-cache sets from data addresses, and find attacker
  frames that map where needed;
* :class:`~repro.attacks.mapping.MetadataEvictor` — evict chosen metadata
  blocks using only data accesses (the indirection trick of Section VI-A);
* :class:`~repro.attacks.metaleak_t.MetaLeakT` — mEvict+mReload monitoring
  of shared integrity-tree nodes;
* :class:`~repro.attacks.metaleak_c.MetaLeakC` — mPreset+mOverflow write
  monitoring through tree-counter overflow;
* covert channels built on each variant (Figures 11 and 14), with an
  optional reliable framing layer (sync preambles, Hamming(7,4) + CRC-8,
  bounded ARQ) in :mod:`~repro.attacks.framing`;
* calibration scoring (:mod:`~repro.attacks.resilience`) and noise
  processes (:mod:`~repro.attacks.noise`).
"""

from repro.attacks.covert import ChannelReport, CovertChannelC, CovertChannelT
from repro.attacks.framing import (
    BitSymbolAdapter,
    FramedReport,
    ReliableChannel,
    crc8,
    decode_stream,
    encode_frame,
    hamming74_decode,
    hamming74_encode,
)
from repro.attacks.mapping import MetadataEvictor, MetadataMapper
from repro.attacks.metaleak_c import MetaLeakC, OverflowScan
from repro.attacks.metaleak_t import MetaLeakT, TreeNodeMonitor
from repro.attacks.noise import NoiseProcess
from repro.attacks.resilience import (
    MIN_CALIBRATION_QUALITY,
    BandStats,
    Calibration,
    score_calibration,
)
from repro.attacks.search import EvictionSetSearch

__all__ = [
    "BandStats",
    "BitSymbolAdapter",
    "Calibration",
    "ChannelReport",
    "CovertChannelC",
    "CovertChannelT",
    "EvictionSetSearch",
    "FramedReport",
    "MIN_CALIBRATION_QUALITY",
    "MetadataEvictor",
    "MetadataMapper",
    "MetaLeakC",
    "MetaLeakT",
    "NoiseProcess",
    "OverflowScan",
    "ReliableChannel",
    "TreeNodeMonitor",
    "crc8",
    "decode_stream",
    "encode_frame",
    "hamming74_decode",
    "hamming74_encode",
    "score_calibration",
]
