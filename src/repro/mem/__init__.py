"""Memory substrate: caches, DRAM timing, and the memory controller.

This package knows nothing about security metadata; it provides the plain
microarchitectural building blocks (set-associative caches, open-row DRAM
banks, read/write queues) that ``repro.secmem`` and ``repro.proc`` compose
into a secure processor.
"""

from repro.mem.block import bank_of, block_address, block_index, page_index
from repro.mem.cache import SetAssocCache
from repro.mem.dram import DramModel
from repro.mem.hierarchy import CoreCaches, DataCacheSystem
from repro.mem.memctrl import MemoryController, WriteQueueEntry
from repro.mem.mirage import MirageCache

__all__ = [
    "bank_of",
    "block_address",
    "block_index",
    "page_index",
    "SetAssocCache",
    "DramModel",
    "CoreCaches",
    "DataCacheSystem",
    "MemoryController",
    "WriteQueueEntry",
    "MirageCache",
]
