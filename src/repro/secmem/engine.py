"""The Memory Encryption Engine (MEE): Sections IV-V in executable form.

The engine sits between the LLC and the memory controller and implements:

* the **read path** of Figure 5 — on an LLC miss, the data block is fetched
  while the encryption counter is looked up in the metadata cache; a counter
  miss triggers the Algorithm-2 bottom-up tree walk that stops at the first
  cached ancestor (or the on-chip root).  The walk's depth is what creates
  the distinguishable Path-2/3/4 latencies (VUL-2);
* the **write path** — writes are posted to the memory controller and the
  security work happens at service time: counter increment (Algorithm 1,
  with group re-encryption on overflow — VUL-1), encryption, MAC update and
  integrity-tree update (eager or lazy policy).  Tree-counter overflow
  resets and re-hashes the whole subtree while occupying DRAM banks — the
  long-latency burst MetaLeak-C observes;
* **functional protection** — ciphertexts, MACs and tree hashes are real
  (keyed BLAKE2b), so the tamper API lets tests demonstrate that spoofing,
  splicing and replay of data or metadata are detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    BLOCK_SIZE,
    CounterScheme,
    SecureProcessorConfig,
    TreeUpdatePolicy,
)
from repro.core import FAULT_HOOK, TRACER, Component, Txn, adopt
from repro.crypto.engine import CounterModeEngine
from repro.crypto.mac import MacEngine
from repro.crypto.prf import keyed_prf, node_hash
from repro.mem.block import BLOCK_MASK, block_address
from repro.mem.cache import SetAssocCache
from repro.mem.memctrl import MemoryController
from repro.secmem.counters import CounterEvent, EncryptionCounterStore
from repro.secmem.layout import MetadataLayout
from repro.secmem.tree import TreeIntegrityError, build_tree
from repro.trace.counters import CounterRegistry

# Cycles of engine work per block during an overflow re-encryption or
# subtree re-hash burst (read + crypto + write, pipelined).
REENCRYPT_BLOCK_COST = 120
REHASH_BLOCK_COST = 60

# Under isolated trees, node addresses of domain d are tagged at bit 44+:
# far above any physical structure, while leaving metadata-cache set
# indices and the layout's per-level arithmetic intact after untagging.
DOMAIN_SHIFT = 44


class IntegrityViolation(Exception):
    """Off-chip tampering detected (MAC or integrity-tree mismatch)."""


@dataclass(slots=True)
class ReadOutcome:
    """Memory-side result of servicing one LLC-missing read."""

    latency: int
    counter_hit: bool
    tree_levels_missed: int
    plaintext: bytes


class MemoryEncryptionEngine(Component):
    """Counter-mode encryption + integrity verification over one MC."""

    instrument_slots = (TRACER, FAULT_HOOK)

    def __init__(self, config: SecureProcessorConfig, memctrl: MemoryController) -> None:
        self.config = config
        self.memctrl = memctrl
        self.layout = MetadataLayout(config)
        self.counters = EncryptionCounterStore(config.counters, self.layout)
        master = keyed_prf(b"metaleak-root", config.seed, out_len=32)
        self._enc_key = keyed_prf(master, "enc", out_len=32)
        self._mac_key = keyed_prf(master, "mac", out_len=32)
        self._tree_key = keyed_prf(master, "tree", out_len=32)
        self.cipher = CounterModeEngine(self._enc_key)
        self.mac = MacEngine(self._mac_key)
        self.tree = build_tree(
            config, self.layout, self._tree_key, self.counters.counter_block_image
        )
        # Section IX-C mitigation: per-domain integrity trees.  Domain 0
        # uses `self.tree`; other domains get their own tree instance and a
        # disjoint node address space (tagged above the physical range), so
        # mutually distrusting processes share no non-root tree node.
        self._domain_trees: dict[int, object] = {0: self.tree}
        self._page_domain: dict[int, int] = {}
        self.meta_cache = SetAssocCache(config.metadata_cache)
        if config.split_metadata_caches:
            tree_cfg = config.tree_cache or config.metadata_cache
            self.tree_cache = SetAssocCache(tree_cfg)
        else:
            self.tree_cache = self.meta_cache
        # Memory images: ciphertext and MACs for blocks ever written.
        self._ciphertext: dict[int, bytes] = {}
        self._macs: dict[int, bytes] = {}
        # Counter-block hash, bound to the leaf tree counter (replay freshness).
        self._cb_hashes: dict[int, int] = {}
        # Plaintext pending in the write queue, consumed at service time.
        self._pending_plain: dict[int, bytes] = {}
        # Metadata-path tallies: counter hits and misses, tree-node loads,
        # overflows.  ``counters`` already names the encryption-counter
        # store, so the engine's registry is ``registry``.
        self.registry = CounterRegistry()
        self._reads = self.registry.counter("reads")
        self._writes_serviced = self.registry.counter("writes_serviced")
        self._counter_hits = self.registry.counter("counter_hits")
        self._counter_misses = self.registry.counter("counter_misses")
        self._tree_node_loads = self.registry.counter("tree_node_loads")
        self._enc_overflows = self.registry.counter("enc_counter_overflows")
        self._tree_overflows = self.registry.counter("tree_counter_overflows")
        self._reencrypted = self.registry.counter("reencrypted_blocks")
        # Instrument slots start detached; the fault hook is notified
        # right before metadata fetched from memory is verified, so
        # campaigns can model corrupt-on-fill faults.
        self.init_component("mee")
        if config.isolated_trees and config.tree_update_policy is not TreeUpdatePolicy.LAZY:
            raise ValueError("isolated trees are implemented for the lazy policy")
        memctrl.set_write_sink(self._service_write)

    def children(self):
        kids = [self.memctrl, self.counters, self.cipher, self.meta_cache]
        if self.tree_cache is not self.meta_cache:
            kids.append(self.tree_cache)
        kids.extend(self._domain_trees.values())
        return tuple(kids)

    # ------------------------------------------------------------------
    # Per-domain isolated trees (Section IX-C mitigation)
    # ------------------------------------------------------------------

    def set_page_domain(self, frame: int, domain: int) -> None:
        """Assign a protected page to a security domain (default 0)."""
        if domain < 0:
            raise ValueError("domain must be non-negative")
        if domain and not self.config.isolated_trees:
            raise ValueError("enable config.isolated_trees to use domains")
        self._page_domain[frame] = domain

    def _tree_for(self, domain: int):
        tree = self._domain_trees.get(domain)
        if tree is None:
            key = keyed_prf(self._tree_key, "domain", domain, out_len=32)
            tree = build_tree(
                self.config, self.layout, key, self.counters.counter_block_image
            )
            # Late-created component: inherit whatever instruments are
            # already attached to the engine (tracer, fault hook, ...).
            adopt(self, tree)
            self._domain_trees[domain] = tree
        return tree

    def _domain_of_cb(self, cb_index: int) -> int:
        if not self.config.isolated_trees:
            return 0
        first_block = cb_index * self.layout.blocks_per_counter_block
        page = first_block * BLOCK_SIZE // 4096
        return self._page_domain.get(page, 0)

    def _tag_node_addr(self, addr: int, domain: int) -> int:
        return addr | (domain << DOMAIN_SHIFT)

    def _untag(self, addr: int) -> tuple[int, int]:
        return addr >> DOMAIN_SHIFT, addr & ((1 << DOMAIN_SHIFT) - 1)

    # ------------------------------------------------------------------
    # Counter-block hashing (freshness binding, Section IV-C)
    # ------------------------------------------------------------------

    def _expected_cb_hash(self, cb_index: int) -> int:
        """Hash a counter block is *supposed* to carry right now."""
        if not self.config.functional_crypto:
            return 0
        return node_hash(
            self._tree_key,
            "cb",
            cb_index,
            self._tree_for(self._domain_of_cb(cb_index)).leaf_parent_value(
                cb_index
            ),
            *self.counters.counter_block_image(cb_index),
        )

    def _stored_cb_hash(self, cb_index: int) -> int:
        if cb_index not in self._cb_hashes:
            self._cb_hashes[cb_index] = self._expected_cb_hash(cb_index)
        return self._cb_hashes[cb_index]

    def _refresh_cb_hash(self, cb_index: int) -> None:
        # Without functional crypto every hash is 0: nothing to store.
        if self.config.functional_crypto:
            self._cb_hashes[cb_index] = self._expected_cb_hash(cb_index)

    def _verify_counter_block(self, cb_index: int, tree) -> None:
        """Check a counter block fetched from memory against its stored
        freshness hash (a no-op without functional crypto, where every
        hash is 0) and against ``tree``, its domain's integrity tree."""
        if self.config.functional_crypto and (
            self._stored_cb_hash(cb_index) != self._expected_cb_hash(cb_index)
        ):
            raise IntegrityViolation(
                f"counter block {cb_index} failed freshness verification"
            )
        try:
            tree.verify_counter_block(cb_index)
        except TreeIntegrityError as exc:
            raise IntegrityViolation(str(exc)) from exc

    # ------------------------------------------------------------------
    # Read path (Figure 5 / Algorithm 2)
    # ------------------------------------------------------------------

    def read_data(
        self, addr: int, now: int, txn: Txn | None = None
    ) -> ReadOutcome:
        """Service an LLC-missing read of a protected data block.

        ``txn`` is the per-access transaction the processor hands down
        while profiling (None otherwise); the latency is charged into it
        in per-component parts (the data/metadata fetches overlap, so the
        losing side of the ``max()`` race lands in the shadowed tally).
        See ``docs/performance.md``.
        """
        block_addr = addr & BLOCK_MASK
        if not self.layout.is_protected_data(block_addr):
            raise ValueError(f"address {addr:#x} is not protected data")
        self._reads.value += 1
        crypto = self.config.crypto
        cb_index, cb_addr, mac_addr = self.layout.decompose(block_addr)

        data = meta = None
        if txn is not None:
            data, meta = txn.leg("data."), txn.leg("meta.")
        memctrl = self.memctrl
        data_latency = memctrl.read_block(block_addr, now, data)
        if not crypto.mac_in_ecc:
            # Classical design: the MAC is a separate memory word fetched
            # on every read (constant extra latency, no state dependence),
            # in the block that holds it.
            data_latency += memctrl.read_block(
                mac_addr & BLOCK_MASK, now + data_latency, data
            )

        meta_cache = self.meta_cache
        cb_set = (cb_addr >> meta_cache.block_shift) % meta_cache.num_sets
        counter_hit = meta_cache.hit(cb_addr, cb_set, False)
        levels_missed = 0
        if counter_hit:
            self._counter_hits.value += 1
            meta_latency = self.config.metadata_cache.hit_latency
            if meta is not None:
                meta.charge("cache_hit", meta_latency)
            extra_crypto = max(0, crypto.aes_latency - data_latency)
        else:
            meta_cache.miss(cb_addr, cb_set)
            self._counter_misses.value += 1
            counter_leg = None if meta is None else meta.leg("counter.")
            meta_latency = memctrl.read_block(cb_addr, now, counter_leg)
            if meta is not None:
                meta.absorb(counter_leg)
            meta_latency, levels_missed = self._verify_walk(
                cb_index, cb_addr, cb_set, now, meta_latency, meta
            )
            extra_crypto = crypto.aes_latency
        if self.tracer is not None:
            self.tracer.emit(
                "mee",
                "counter_hit" if counter_hit else "counter_miss",
                cycle=now,
                addr=cb_addr,
            )
            self.tracer.emit(
                "mee",
                "tree_walk",
                cycle=now,
                addr=cb_addr,
                value=float(levels_missed),
            )

        if block_addr in self._pending_plain:
            # Store-to-load forwarding: the freshest value still sits in the
            # MC write queue.
            plaintext = self._pending_plain[block_addr]
        else:
            plaintext = self._decrypt_and_authenticate(block_addr)
        latency = max(data_latency, meta_latency) + extra_crypto + crypto.mac_latency
        if txn is not None:
            # The data and metadata fetches overlap; only the slower side
            # is on the critical path.  Its leg is absorbed into the
            # attribution, the other side's cycles land in the shadowed
            # tally.
            if data_latency >= meta_latency:
                txn.absorb(data)
                txn.shadow(meta)
            else:
                txn.absorb(meta)
                txn.shadow(data)
            txn.charge("mee.decrypt", extra_crypto)
            txn.charge("mee.mac", crypto.mac_latency)
        return ReadOutcome(latency, counter_hit, levels_missed, plaintext)

    def _verify_walk(
        self,
        cb_index: int,
        cb_addr: int,
        cb_set: int,
        now: int,
        meta_latency: int,
        leg: Txn | None = None,
    ) -> tuple[int, int]:
        """Algorithm 2: load tree nodes bottom-up until a cached ancestor.

        The counter block missed in ``meta_cache`` set ``cb_set``; each
        node's ``tree_cache`` set is derived at its probe, and both fills
        at the end reuse those sets.  Returns the accumulated
        metadata-path latency and the number of tree node blocks that
        had to be fetched from memory.  Given a ``leg`` (only while
        profiling), the added cycles are charged under per-level
        ``tree.l<level>.*`` keys within the leg's scope.
        """
        crypto = self.config.crypto
        domain = self._domain_of_cb(cb_index)
        tree = self._tree_for(domain)
        domain_tag = domain << DOMAIN_SHIFT
        tree_cache = self.tree_cache
        shift, num_sets = tree_cache.block_shift, tree_cache.num_sets
        missed: list[tuple[int, int, int, int]] = []
        # Walk up the verification path, deriving each level's node only
        # when the level below it missed.
        index = cb_index
        for geometry in self.layout.levels:
            index //= geometry.arity
            node_addr = (geometry.base + index * BLOCK_SIZE) | domain_tag
            node_set = (node_addr >> shift) % num_sets
            if tree_cache.hit(node_addr, node_set, False):
                break
            tree_cache.miss(node_addr, node_set)
            missed.append((geometry.level, index, node_addr, node_set))
        # Fetch + verify the missed chain.
        for level, index, node_addr, _ in missed:
            self._tree_node_loads.value += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "mee", "tree_node_load", cycle=now, addr=node_addr, level=level
                )
            fetch = self.memctrl.read_block(node_addr, now)
            if self.config.parallel_tree_fetch:
                # Address-computable fetches overlap; each extra level adds
                # only bus serialisation plus its verification hash.
                fetch = self.config.dram.bus_latency
            meta_latency += fetch + crypto.hash_latency
            if leg is not None:
                leg.charge(f"tree.l{level}.fetch", fetch)
                leg.charge(f"tree.l{level}.hash", crypto.hash_latency)
            if self.fault_hook is not None:
                self.fault_hook.on_meta_fetch("node", level, index)
            try:
                tree.verify_node(level, index)
            except TreeIntegrityError as exc:
                raise IntegrityViolation(str(exc)) from exc
        # Verify the counter block itself against the leaf.
        meta_latency += crypto.hash_latency
        if leg is not None:
            leg.charge("counter.hash", crypto.hash_latency)
        if self.fault_hook is not None:
            self.fault_hook.on_meta_fetch("counter", 0, cb_index)
        self._verify_counter_block(cb_index, tree)
        # Fill the metadata caches (counter block + fetched nodes).
        self._fill(self.meta_cache, cb_addr, cb_set, False, now)
        for _, _, node_addr, node_set in missed:
            self._fill(tree_cache, node_addr, node_set, False, now)
        return meta_latency, len(missed)

    def _fill(
        self, cache: SetAssocCache, block: int, set_index: int, dirty: bool,
        now: int,
    ) -> None:
        """Install a metadata block (a counter block into ``meta_cache``, a
        node into ``tree_cache``); a dirty victim is written back."""
        evicted = cache.install(block, set_index, dirty)
        if evicted is not None and evicted[1]:
            self._on_meta_writeback(evicted[0], now)

    def _fill_dirty_node(self, node_addr: int, now: int) -> None:
        """Fill a tree node that now holds newer state than memory."""
        cache = self.tree_cache
        self._fill(cache, node_addr, cache.set_index_of(node_addr), True, now)

    def _on_meta_writeback(self, meta_addr: int, now: int) -> None:
        """A dirty metadata block left the chip (Section V's lazy scheme).

        The block is posted to memory, and — under the lazy policy — its
        write-back is the moment the integrity tree absorbs it: a counter
        block bumps its L0 minor; a level-``l`` node block bumps its parent
        counter (or the on-chip root).  The parent node becomes dirty in
        turn, so sustained write traffic percolates up the tree exactly as
        the paper describes, and any minor-counter overflow encountered on
        the way triggers the subtree reset + re-hash burst.
        """
        if self.tracer is not None:
            self.tracer.emit("mee", "meta_writeback", cycle=now, addr=meta_addr)
        self.memctrl.enqueue_write(meta_addr, now)
        if self.config.tree_update_policy is not TreeUpdatePolicy.LAZY:
            return
        domain, base_addr = self._untag(meta_addr)
        if self.layout.is_counter_addr(base_addr):
            cb_index = self.layout.counter_block_index_of_addr(base_addr)
            domain = self._domain_of_cb(cb_index)
            update = self._tree_for(domain).bump_leaf(cb_index)
            self._refresh_cb_hash(cb_index)
            self._apply_tree_update(update, now)
            leaf_addr = self._tag_node_addr(
                self.layout.node_addr(0, cb_index // self.layout.levels[0].arity),
                domain,
            )
            self._fill_dirty_node(leaf_addr, now)
        elif self.layout.is_tree_addr(base_addr):
            level, index = self.layout.node_of_addr(base_addr)
            update = self._tree_for(domain).bump_node(level, index)
            self._apply_tree_update(update, now)
            parent = self.layout.parent_of(level, index)
            if parent is not None:
                parent_addr = self._tag_node_addr(
                    self.layout.node_addr(*parent), domain
                )
                self._fill_dirty_node(parent_addr, now)

    def _apply_tree_update(self, update, now: int) -> int:
        """Account for a tree update's bursts; returns engine cycles."""
        cycles = update.levels_touched * self.config.crypto.hash_latency
        for overflow in update.overflows:
            self._tree_overflows.value += 1
            for affected_cb in overflow.counter_blocks:
                if affected_cb in self._cb_hashes:
                    self._refresh_cb_hash(affected_cb)
            blocks = overflow.node_blocks_affected + len(overflow.counter_blocks)
            burst = blocks * REHASH_BLOCK_COST
            self.memctrl.dram.occupy_all(now, burst)
            cycles += burst
            if self.tracer is not None:
                self.tracer.emit(
                    "mee",
                    "tree_overflow",
                    cycle=now,
                    level=overflow.level,
                    value=float(burst),
                )
        return cycles

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write_data(self, addr: int, plaintext: bytes, now: int) -> int:
        """Post a write of a protected data block; returns enqueue latency."""
        block_addr = block_address(addr)
        if not self.layout.is_protected_data(block_addr):
            raise ValueError(f"address {addr:#x} is not protected data")
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"writes are {BLOCK_SIZE}-byte blocks")
        self._pending_plain[block_addr] = bytes(plaintext)
        return self.memctrl.enqueue_write(block_addr, now)

    def _service_write(self, block_addr: int, now: int) -> int:
        """Security work when the MC services a write (the write sink)."""
        if not self.layout.is_protected_data(block_addr):
            _, base_addr = self._untag(block_addr)
            if self.layout.is_metadata(base_addr):
                # Plain metadata write-back reaching DRAM; the tree
                # absorbed it already when the block left the metadata
                # cache.
                return self.config.crypto.hash_latency
            return 0

        self._writes_serviced.value += 1
        if self.tracer is not None:
            self.tracer.emit("mee", "write_service", cycle=now, addr=block_addr)
        crypto = self.config.crypto
        cycles = 0
        cb_index, cb_addr, _ = self.layout.decompose(block_addr)
        meta_cache = self.meta_cache
        cb_set = (cb_addr >> meta_cache.block_shift) % meta_cache.num_sets

        # The counter must be on-chip to encrypt the outgoing block.
        if not meta_cache.hit(cb_addr, cb_set, False):
            meta_cache.miss(cb_addr, cb_set)
            cycles += self.memctrl.read_block(cb_addr, now)
            walk_latency, _ = self._verify_walk(cb_index, cb_addr, cb_set, now, 0)
            cycles += walk_latency

        # Resolve the value to write *before* the counter moves: a write-back
        # with no pending store keeps the current architectural value, which
        # must be decrypted under the old counter.
        plaintext = self._pending_plain.pop(block_addr, None)
        if plaintext is None:
            plaintext = self._architectural_plaintext(block_addr)

        event = self.counters.increment(block_addr // BLOCK_SIZE)
        if event.overflowed:
            cycles += self._handle_encryption_overflow(event, now)

        self._store_block(block_addr, plaintext, event.new_counter, event.key_epoch)
        cycles += crypto.aes_latency + crypto.mac_latency
        self._refresh_cb_hash(cb_index)

        if self.config.tree_update_policy is TreeUpdatePolicy.EAGER:
            cycles += self._update_tree_eager(cb_index, cb_addr, cb_set, now)
        else:
            # Lazy scheme: the counter block is dirtied on-chip; the tree
            # absorbs the update when it is eventually written back.
            self._fill(meta_cache, cb_addr, cb_set, True, now)
            cycles += crypto.hash_latency
        return cycles

    def _architectural_plaintext(self, block_addr: int) -> bytes:
        if block_addr in self._ciphertext:
            return self._decrypt_and_authenticate(block_addr)
        return bytes(BLOCK_SIZE)

    def _store_block(
        self, block_addr: int, plaintext: bytes, counter: int, key_epoch: int
    ) -> None:
        if not self.config.functional_crypto:
            # Timing-only mode: store the plaintext image directly.
            self._ciphertext[block_addr] = bytes(plaintext)
            return
        ciphertext = self.cipher.encrypt(
            plaintext, block_addr, self._epoch_counter(counter, key_epoch)
        )
        self._ciphertext[block_addr] = ciphertext
        self._macs[block_addr] = self.mac.compute(ciphertext, counter, block_addr)

    @staticmethod
    def _epoch_counter(counter: int, key_epoch: int) -> int:
        """Fold the key epoch into the seed (GC/MoC key-change semantics)."""
        return (key_epoch << 64) | counter

    def _handle_encryption_overflow(self, event: CounterEvent, now: int) -> int:
        """VUL-1: re-encrypt the counter-sharing group, occupying DRAM."""
        self._enc_overflows.value += 1
        old_epoch = event.key_epoch
        if self.config.counters.scheme is not CounterScheme.SPLIT:
            old_epoch = event.key_epoch - 1
        for group_block, (old_counter, new_counter) in event.reencrypt.items():
            addr = group_block * BLOCK_SIZE
            ciphertext = self._ciphertext.get(addr)
            if ciphertext is None:
                continue
            if self.config.functional_crypto:
                plaintext = self.cipher.decrypt(
                    ciphertext, addr, self._epoch_counter(old_counter, old_epoch)
                )
            else:
                plaintext = ciphertext
            self._store_block(addr, plaintext, new_counter, event.key_epoch)
            self._reencrypted.value += 1
        burst = (len(event.reencrypt) + 1) * REENCRYPT_BLOCK_COST
        self.memctrl.dram.occupy_all(now, burst)
        if self.tracer is not None:
            self.tracer.emit("mee", "enc_overflow", cycle=now, value=float(burst))
        return burst

    def _update_tree_eager(
        self, cb_index: int, cb_addr: int, cb_set: int, now: int
    ) -> int:
        """EAGER policy: propagate a write along the whole path at once.

        Simpler than the paper's lazy scheme and useful for ablation, but
        note that upper-level minors then aggregate *all* machine traffic,
        so sustained writes overflow high-level counters periodically.
        """
        update = self.tree.on_counter_block_update(
            cb_index, self.counters.counter_block_image(cb_index)
        )
        self._refresh_cb_hash(cb_index)
        cycles = self._apply_tree_update(update, now)
        # Dirty the path in the metadata caches (nodes now hold newer state
        # than memory and will write back on eviction).
        self._fill(self.meta_cache, cb_addr, cb_set, True, now)
        for _, _, node_addr in self.layout.path_of(cb_index):
            self._fill_dirty_node(node_addr, now)
        return cycles

    def cache_for(self, meta_addr: int) -> SetAssocCache:
        """The on-chip cache that holds metadata block ``meta_addr``."""
        if self.layout.is_tree_addr(self._untag(meta_addr)[1]):
            return self.tree_cache
        return self.meta_cache

    def invalidate_metadata(self, meta_addr: int) -> tuple[bool, bool]:
        """Drop one metadata block from whichever cache holds it."""
        return self.cache_for(meta_addr).invalidate(meta_addr)

    def metadata_cached(self, meta_addr: int) -> bool:
        return self.cache_for(meta_addr).contains(meta_addr)

    def flush_metadata_cache(self, now: int) -> int:
        """Evict every metadata block, processing dirty write-backs.

        Models a metadata-cache cleanse (context switch / experiment reset);
        returns the number of dirty blocks written back.
        """
        dirty_count = 0
        caches = (
            (self.meta_cache, self.tree_cache)
            if self.tree_cache is not self.meta_cache
            else (self.meta_cache,)
        )
        # Write-backs dirty parent nodes, which land back in the caches, so
        # sweep until everything is empty (bounded by the tree depth).
        while any(cache.occupancy() for cache in caches):
            for cache in caches:
                for set_index in range(cache.num_sets):
                    for meta_addr in cache.blocks_in_set(set_index):
                        was_present, was_dirty = cache.invalidate(meta_addr)
                        if was_present and was_dirty:
                            dirty_count += 1
                            self._on_meta_writeback(meta_addr, now)
        return dirty_count

    # ------------------------------------------------------------------
    # Decryption + authentication
    # ------------------------------------------------------------------

    def _decrypt_and_authenticate(self, block_addr: int) -> bytes:
        ciphertext = self._ciphertext.get(block_addr)
        if ciphertext is None:
            # Never written: architecturally zero; nothing to authenticate.
            return bytes(BLOCK_SIZE)
        if not self.config.functional_crypto:
            return ciphertext
        counter = self.counters.current(block_addr // BLOCK_SIZE)
        mac = self._macs.get(block_addr)
        if mac is None or not self.mac.verify(mac, ciphertext, counter, block_addr):
            raise IntegrityViolation(
                f"data block {block_addr:#x} failed MAC authentication"
            )
        return self.cipher.decrypt(
            ciphertext,
            block_addr,
            self._epoch_counter(counter, self.counters.key_epoch),
        )

    # ------------------------------------------------------------------
    # Tamper API (integration tests: spoof / splice / replay)
    # ------------------------------------------------------------------

    def tamper_spoof(self, addr: int, new_ciphertext: bytes) -> None:
        """Off-chip data spoofing: overwrite a ciphertext block in memory."""
        self._ciphertext[block_address(addr)] = bytes(new_ciphertext)

    def tamper_flip_data_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of a DRAM-resident ciphertext block (rowhammer-ish).

        Flipping is an involution, so applying the same fault twice
        restores the block — fault campaigns rely on this for undo.
        """
        block = block_address(addr)
        image = bytearray(self._ciphertext.get(block, bytes(BLOCK_SIZE)))
        image[(bit // 8) % len(image)] ^= 1 << (bit % 8)
        self._ciphertext[block] = bytes(image)

    def tamper_flip_mac_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of a block's stored MAC (also an involution)."""
        block = block_address(addr)
        mac = bytearray(self._macs.get(block, bytes(8)))
        mac[(bit // 8) % len(mac)] ^= 1 << (bit % 8)
        self._macs[block] = bytes(mac)

    def tamper_splice(self, addr_a: int, addr_b: int) -> None:
        """Swap the ciphertext+MAC of two memory locations."""
        a, b = block_address(addr_a), block_address(addr_b)
        self._ciphertext[a], self._ciphertext[b] = (
            self._ciphertext.get(b, bytes(BLOCK_SIZE)),
            self._ciphertext.get(a, bytes(BLOCK_SIZE)),
        )
        self._macs[a], self._macs[b] = (
            self._macs.get(b, b""),
            self._macs.get(a, b""),
        )

    def snapshot_block(self, addr: int) -> tuple[bytes, bytes]:
        """Capture (ciphertext, MAC) for a later replay."""
        block = block_address(addr)
        return (
            self._ciphertext.get(block, bytes(BLOCK_SIZE)),
            self._macs.get(block, b""),
        )

    def tamper_replay(self, addr: int, snapshot: tuple[bytes, bytes]) -> None:
        """Data replay: restore a previously captured (ciphertext, MAC)."""
        block = block_address(addr)
        self._ciphertext[block], self._macs[block] = snapshot
