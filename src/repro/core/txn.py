"""The per-access attribution context threaded down the memory path.

While a profiler is attached, the executor (``SecureProcessor._execute``)
opens one :class:`Txn` per software-visible operation and hands it down
through the hierarchy, the memory encryption engine and the memory
controller.  It carries the operation's identity (op, issuing core,
block address) and its latency attribution, behind four calls:

* ``txn.charge(key, cycles)`` — attribute cycles to a dotted component
  key (replaces the ``parts=`` / ``breakdown=`` out-params);
* ``txn.leg(prefix)`` — a fresh sub-accumulator for one side of an
  overlapped fetch; the engine later folds the winner into the critical
  attribution with :meth:`Txn.absorb` and the loser into the shadowed
  tally with :meth:`Txn.shadow`.

**Zero overhead when off.**  Without a profiler the processor hands
down ``None`` instead of a transaction, whatever else is attached, and
every layer makes its attribution calls only on a transaction
(``if txn is not None``): an unprofiled access allocates no ``Txn`` and
makes no attribution call.  Trace events and fault-hook callbacks do not
ride the transaction: every component, the processor included, emits
through its own ``tracer`` slot and dispatches through its own
``fault_hook`` slot (attached via the component graph).
"""

from __future__ import annotations


class Txn:
    """Attribution context for one in-flight memory access."""

    __slots__ = ("op", "core", "addr", "prefix", "parts", "shadowed")

    def __init__(
        self,
        op: str,
        core: int = -1,
        addr: int | None = None,
        *,
        prefix: str = "",
    ) -> None:
        self.op = op
        self.core = core
        self.addr = addr
        self.prefix = prefix
        self.parts: dict[str, int] = {}
        self.shadowed: dict[str, int] = {}

    def charge(self, key: str, cycles: int) -> None:
        """Attribute ``cycles`` to ``key`` (prefixed by this txn's scope)."""
        if not cycles:
            return
        key = self.prefix + key
        self.parts[key] = self.parts.get(key, 0) + cycles

    def leg(self, prefix: str) -> "Txn":
        """A fresh accumulator for one side of an overlapped fetch.

        The leg charges into its own ``parts``; the caller decides
        post-hoc whether those cycles were on the critical path
        (:meth:`absorb`) or hidden (:meth:`shadow`).
        """
        return Txn(self.op, self.core, self.addr, prefix=self.prefix + prefix)

    def absorb(self, leg: "Txn") -> None:
        """Fold a leg's charges into the critical-path attribution."""
        for key, value in leg.parts.items():
            self.parts[key] = self.parts.get(key, 0) + value

    def shadow(self, leg: "Txn") -> None:
        """Fold a leg's charges into the shadowed (off-critical) tally."""
        for key, value in leg.parts.items():
            self.shadowed[key] = self.shadowed.get(key, 0) + value

