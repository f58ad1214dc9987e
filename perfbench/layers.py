"""Per-layer host-time breakdown for the traced benchmark run.

The traced run profiles every thread that does benchmark work with
``cProfile`` on a per-thread CPU-time clock, so a thread waiting for the
GIL, a lock or a socket is not charged as busy.  Functions are folded
into the simulator's layers by the module that defines them, which keeps
the breakdown valid however a later change reshapes the functions inside
a module.  Standard-library and builtin functions (``sqlite3``,
``json``, ``random``...) carry no layer of their own: their time is
charged to the repro layers that called them, split by the call-graph
edges cProfile records.

For each layer the breakdown reports busy time and the number of calls
that entered the layer from outside it; both are divided by the number
of operations the run completed.  The benchmark's own code and the
service client it drives play the user's part: their time is left out.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import time
from typing import Callable

_HARNESS = "harness"

#: Module path (relative to ``src/repro/``) -> layer, first match wins.
#: Directory entries end in ``/`` and catch modules added there later.
_MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("service/client.py", _HARNESS),
    ("proc/", "proc"),
    ("mem/memctrl.py", "memctrl"),
    ("mem/dram.py", "dram"),
    ("mem/", "cache"),
    ("secmem/counters.py", "counters"),
    ("secmem/tree.py", "tree"),
    ("secmem/layout.py", "tree"),
    ("secmem/", "mee"),
    ("core/", "txn"),
    ("crypto/", "crypto"),
    ("trace/", "tracer"),
    ("leakcheck/", "oracle"),
    ("synth/", "oracle"),
    ("utils/stats.py", "oracle"),
    ("campaign/db.py", "journal"),
    ("campaign/", "campaign"),
    ("runner/", "campaign"),
    ("service/", "service"),
    ("obs/", "spans"),
)

#: Reported layers, in report order; ``other`` collects the remaining
#: repro modules and host time no repro layer called for.
LAYERS: tuple[str, ...] = (
    "proc", "cache", "mee", "counters", "tree", "memctrl", "dram", "txn",
    "crypto", "tracer", "oracle", "campaign", "journal", "service", "spans",
    "other",
)

_REPRO_MARK = "/repro/"


def layer_of(filename: str, harness_dir: str) -> str | None:
    """The layer a code object's file belongs to; None for host code."""
    path = filename.replace("\\", "/")
    if path.startswith(harness_dir):
        return _HARNESS
    index = path.rfind(_REPRO_MARK)
    if index < 0:
        return None
    module = path[index + len(_REPRO_MARK):]
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class LayerProfiler:
    """Collects per-thread CPU-time profiles and folds them into layers."""

    def __init__(self, harness_dir: str) -> None:
        self._harness_dir = harness_dir.replace("\\", "/").rstrip("/") + "/"
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: cProfile.Profile | None = None

    def profile_current_thread(self) -> None:
        """Start profiling the calling thread (an executor initializer)."""
        profile = cProfile.Profile(time.thread_time)
        try:
            profile.enable()
        except ValueError:
            # One profiler per process on interpreters built on
            # sys.monitoring; the main thread's profile still counts.
            return
        with self._lock:
            self._profiles.append(profile)

    def start(self) -> None:
        self.profile_current_thread()
        with self._lock:
            self._main = self._profiles[-1] if self._profiles else None

    def stop(self) -> None:
        """Stop the main thread's profile; call before :meth:`breakdown`."""
        main, self._main = self._main, None
        if main is not None:
            main.disable()

    def unprofiled(self, fn: Callable[[], float]) -> Callable[[], float]:
        """``fn`` made to run with the main thread's profile paused.

        For the calibration loop, which must time the host, not the
        profiler.  Pausing ends the frames open at that moment, which are
        the benchmark's own and the event loop's, never a layer's.
        """
        def call() -> float:
            main = self._main
            if main is None:
                return fn()
            main.disable()
            try:
                return fn()
            finally:
                main.enable()

        return call

    def breakdown(self, ops: int) -> dict[str, float]:
        """``<layer>_us`` busy time and ``<layer>_calls`` entries per op."""
        with self._lock:
            profiles = list(self._profiles)
        busy = dict.fromkeys((*LAYERS, _HARNESS), 0.0)
        calls = dict.fromkeys((*LAYERS, _HARNESS), 0.0)
        if profiles:
            raw = pstats.Stats(*profiles).stats  # type: ignore[attr-defined]
            _fold(raw, self._harness_dir, busy, calls)
        ops = max(ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_us"] = busy[layer] * 1e6 / ops
            if layer != "other":
                out[f"{layer}_calls"] = calls[layer] / ops
        return out


def _fold(raw: dict, harness_dir: str, busy: dict[str, float],
          calls: dict[str, float]) -> None:
    """Charge every profiled function's own time and entries to layers.

    ``raw`` is pstats' table: ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)`` per call-graph edge.
    """
    owner = {func: layer_of(func[0], harness_dir) for func in raw}
    shares: dict[tuple, dict[str, float]] = {}

    def share(func: tuple, visiting: set) -> dict[str, float]:
        """Which layers are responsible for time spent inside ``func``."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func not in raw or func in visiting:
            return {"other": 1.0}
        visiting.add(func)
        edges = raw[func][4]
        total = sum(edge[3] for edge in edges.values())
        result: dict[str, float] = {}
        if total > 0:
            for caller, edge in edges.items():
                weight = edge[3] / total
                for name, part in share(caller, visiting).items():
                    result[name] = result.get(name, 0.0) + weight * part
        else:
            result = {"other": 1.0}
        visiting.discard(func)
        shares[func] = result
        return result

    for func, (_, _, own_time, _, edges) in raw.items():
        layer = owner[func]
        if layer is not None:
            busy[layer] += own_time
            for caller, edge in edges.items():
                inside = share(caller, set()).get(layer, 0.0)
                calls[layer] += edge[0] * (1.0 - inside)
            continue
        edge_time = sum(edge[2] for edge in edges.values())
        if edge_time <= 0:
            busy["other"] += own_time
            continue
        for caller, edge in edges.items():
            for name, part in share(caller, set()).items():
                busy[name] += own_time * (edge[2] / edge_time) * part
