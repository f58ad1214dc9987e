"""The per-access transaction context threaded down the memory path.

A :class:`Txn` is created once per software-visible operation by the
executor (``SecureProcessor._execute``) and handed down through the
hierarchy, the memory encryption engine and the memory controller.  It
carries the cross-cutting per-access state that PRs used to thread by
hand — issuing core, operation, latency attribution parts, the
critical/shadowed overlap split, trace emission and fault-hook dispatch —
behind four calls:

* ``txn.charge(key, cycles)`` — attribute cycles to a dotted component
  key (replaces the ``parts=`` / ``breakdown=`` out-params);
* ``txn.emit(component, kind, ...)`` — trace emission (replaces the
  per-layer ``if self.tracer is not None`` boilerplate on access paths);
* ``txn.fault(event, ...)`` — fault-hook dispatch at verification points;
* ``txn.leg(prefix)`` — a fresh sub-accumulator for one side of an
  overlapped fetch; the engine later folds the winner into the critical
  attribution with :meth:`Txn.absorb` and the loser into the shadowed
  tally with :meth:`Txn.shadow`.

**Zero overhead when off.**  When no instrument is attached anywhere,
the processor hands down the shared :data:`NULL_TXN` singleton — no
allocation, and every method is a pass.  When only a tracer or fault
hook is attached, a real ``Txn`` is created but ``parts`` stays ``None``
so charging is still skipped; attribution dictionaries are built only
while a profiler is attached, exactly as before the refactor.

Background work that happens outside any access — posted write-queue
drains, lazy tree write-backs, overflow bursts — is *not* transactional:
those events still go through each component's own ``tracer`` slot
(attached via the component graph), because they have no issuing access
to charge to.
"""

from __future__ import annotations


class Txn:
    """Context for one in-flight memory access."""

    __slots__ = ("op", "core", "addr", "prefix", "tracer", "fault_hook",
                 "parts", "shadowed")

    #: Real transactions record; the NULL_TXN singleton reports False.
    recording = True

    def __init__(
        self,
        op: str,
        core: int = -1,
        addr: int | None = None,
        *,
        tracer=None,
        fault_hook=None,
        profiling: bool = False,
        prefix: str = "",
    ) -> None:
        self.op = op
        self.core = core
        self.addr = addr
        self.prefix = prefix
        self.tracer = tracer
        self.fault_hook = fault_hook
        self.parts: dict[str, int] | None = {} if profiling else None
        self.shadowed: dict[str, int] | None = {} if profiling else None

    @property
    def profiling(self) -> bool:
        """True while latency attribution is being collected."""
        return self.parts is not None

    # -- attribution -------------------------------------------------------

    def charge(self, key: str, cycles: int) -> None:
        """Attribute ``cycles`` to ``key`` (prefixed by this txn's scope)."""
        if self.parts is None or not cycles:
            return
        key = self.prefix + key
        self.parts[key] = self.parts.get(key, 0) + cycles

    def leg(self, prefix: str) -> "Txn":
        """A fresh accumulator for one side of an overlapped fetch.

        The leg shares this transaction's instruments (so emission and
        fault dispatch keep working inside it) but charges into its own
        ``parts``; the caller decides post-hoc whether those cycles were
        on the critical path (:meth:`absorb`) or hidden (:meth:`shadow`).
        While not profiling there is nothing to accumulate — ``charge``,
        ``absorb`` and ``shadow`` are no-ops — so the leg is this
        transaction itself.
        """
        if self.parts is None:
            return self
        return Txn(
            self.op,
            self.core,
            self.addr,
            tracer=self.tracer,
            fault_hook=self.fault_hook,
            profiling=True,
            prefix=self.prefix + prefix,
        )

    def absorb(self, leg: "Txn") -> None:
        """Fold a leg's charges into the critical-path attribution."""
        if self.parts is None or leg.parts is None:
            return
        for key, value in leg.parts.items():
            self.parts[key] = self.parts.get(key, 0) + value

    def shadow(self, leg: "Txn") -> None:
        """Fold a leg's charges into the shadowed (off-critical) tally."""
        if self.shadowed is None or leg.parts is None:
            return
        for key, value in leg.parts.items():
            self.shadowed[key] = self.shadowed.get(key, 0) + value

    # -- instrumentation ---------------------------------------------------

    def emit(self, component: str, kind: str, **fields) -> None:
        """Emit one trace event on the access's behalf (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.emit(component, kind, **fields)

    def fault(self, event: str, *args, **kwargs) -> None:
        """Dispatch one fault-hook callback (no-op when unhooked)."""
        if self.fault_hook is not None:
            getattr(self.fault_hook, event)(*args, **kwargs)


class _NullTxn:
    """The shared do-nothing transaction used when nothing is attached."""

    __slots__ = ()

    recording = False
    profiling = False
    op = None
    core = -1
    addr = None
    prefix = ""
    tracer = None
    fault_hook = None
    parts = None
    shadowed = None

    def charge(self, key: str, cycles: int) -> None:
        pass

    def leg(self, prefix: str) -> "_NullTxn":
        return self

    def absorb(self, leg) -> None:
        pass

    def shadow(self, leg) -> None:
        pass

    def emit(self, component: str, kind: str, **fields) -> None:
        pass

    def fault(self, event: str, *args, **kwargs) -> None:
        pass


NULL_TXN = _NullTxn()
