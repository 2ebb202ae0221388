"""Per-layer wall-clock ledger built from timing wrappers.

Tracing installs a wrapper around each layer's public functions at the
name its callers bind — ``repro.wsmed.system.parse_query`` rather than
``repro.sql.parser.parse_query``, because ``system.py`` imports it by
name.  Nothing in ``src/`` changes.  Every wrapped function is
synchronous, so on one thread the wrappers nest strictly and a stack
gives each call its *self* time (its duration minus that of wrapped calls
inside it).  On the main thread the self times of all layers plus the
unattributed rest add up to the traced wall time exactly.

``runtime`` wraps ``Kernel.run``: its self time is the scheduler and the
operator coroutines — everything inside a kernel run that no other layer
covers.  Time outside every wrapper (result assembly, the benchmark's own
loop) is unattributed.

The pipe reader threads of ``ProcessKernel`` unpickle what workers send;
that time is kept apart (``off_main``) because it overlaps the main
thread's wall time instead of adding to it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from multiprocessing import connection, reduction

from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel
from repro.services import providers, soap
from repro.wsmed import system

_INHERITED = object()

#: layer -> [(owner, attribute), ...]; owners are modules or classes.
LAYERS = {
    "sql": [(system, "parse_query")],
    "calculus": [(system, "generate_calculus")],
    "algebra": [(system, "create_central_plan"), (system, "create_cost_based_plan")],
    "parallelize": [(system, "parallelize")],
    "provider": [
        (cls, "invoke")
        for cls in (
            providers.GeoPlacesProvider,
            providers.TerraServiceProvider,
            providers.USZipProvider,
            providers.ZipcodesProvider,
        )
    ],
    "soap": [
        (soap, "encode_request"),
        (soap, "decode_request"),
        (soap, "encode_response"),
        (soap, "decode_response"),
    ],
    "runtime": [(SimKernel, "run"), (AsyncioKernel, "run")],
    "wire": [(connection.Connection, "send")],
}


class Ledger:
    """Self time per layer, plus wire and provider tallies."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.off_main: dict[str, float] = defaultdict(float)
        self.wire_bytes = 0
        self.wire_msgs = 0
        #: distinct (operation, arguments) the providers computed.  Behind
        #: a cache every distinct call reaches a provider at least once, so
        #: this is the size of the workload's working set of calls.
        self.distinct_calls: set = set()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._undo: list = []
        self._lock = threading.Lock()

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, elapsed: float, child: float) -> None:
        stack = self._stack()
        if threading.current_thread() is self._main:
            self.self_s[layer] += elapsed - child
        else:
            with self._lock:
                self.off_main[layer] += elapsed - child
        if stack:
            stack[-1] += elapsed

    def _timed(self, layer: str, original):
        ledger = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = ledger._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                ledger._record(layer, elapsed, stack.pop())

        return timed

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, replacement)

    def install(self) -> "Ledger":
        for layer, targets in LAYERS.items():
            for owner, name in targets:
                original = getattr(owner, name)
                if layer == "provider":
                    original = self._tallied(original)
                self._patch(owner, name, self._timed(layer, original))
        self._patch_pickler()
        return self

    def _tallied(self, invoke):
        seen = self.distinct_calls

        def tallied(provider, operation, arguments):
            seen.add((operation, repr(arguments)))
            return invoke(provider, operation, arguments)

        return tallied

    def _patch_pickler(self) -> None:
        """Count wire bytes at the pickler ``Connection`` uses, and time
        the unpickling done by the reader threads."""
        ledger = self
        dumps = reduction.ForkingPickler.dumps
        loads = reduction.ForkingPickler.loads

        def counted_dumps(obj, protocol=None):
            buffer = dumps(obj, protocol)
            with ledger._lock:
                ledger.wire_bytes += len(buffer)
                ledger.wire_msgs += 1
            return buffer

        def counted_loads(data, /, **kwargs):
            with ledger._lock:
                ledger.wire_bytes += len(data)
                ledger.wire_msgs += 1
            return loads(data, **kwargs)

        self._patch(reduction.ForkingPickler, "dumps", staticmethod(counted_dumps))
        self._patch(
            reduction.ForkingPickler, "loads", staticmethod(self._timed("wire", counted_loads))
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "off_main": dict(self.off_main),
            "wire_bytes": self.wire_bytes,
            "wire_msgs": self.wire_msgs,
            "distinct_calls": len(self.distinct_calls),
        }


def delta(after: dict, before: dict) -> dict:
    """Ledger snapshot difference (``after - before``)."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            prior = before.get(key, {})
            out[key] = {k: v - prior.get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before.get(key, 0)
    return out
