"""Per-layer timing for traced benchmark runs.

The traced run (``--trace 1``) measures where an operation's wall time
goes without touching the program: :class:`LayerTimer` temporarily
replaces a handful of public functions and methods -- one or more per
layer of ``src/repro`` -- with timing wrappers, and restores them on
exit.  Nothing inside ``src/`` records spans; every timer lives here.

Accounting rules:

* A layer's *self time* is the wall time of its calls minus the time of
  wrapped calls into other layers made from inside them, so self times
  of nested layers never double-count.  A call into the same layer from
  inside that layer (``ShardedRunStore.get`` calling ``RunStore.get``,
  the scalar model backend calling ``predict``) passes straight through.
* Iterators (``SweepEngine.iter_sweep``, ``WorkerPool.imap`` streams)
  are timed per ``next()``, so time the consumer spends between items
  is not charged to the producer.
* Waiting on a worker pool's result stream is charged to the layer of
  the dispatched function -- model batches to ``core``, simulator
  batches to ``simulator`` -- because those layers are what the parent
  waits for.  The ``imap`` call itself (pickling the stage state,
  spilling it, creating the pool) is charged to ``pool``.
* Stacks are per thread; totals are summed across threads under a lock,
  so on the threaded ``serve_mix`` workload a share is busy time summed
  over threads divided by wall time.

Worker processes forked while the wrappers are installed inherit them,
but what they record stays in the worker; only the parent's view is
reported.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

#: Wrapped call sites: (module path, attribute path, layer).
TARGETS = (
    ("repro.workloads", "generate_trace", "workloads"),
    ("repro.profiler", "profile_application", "profiler"),
    ("repro.profiler.profile", "ApplicationProfile.statstack", "profiler"),
    ("repro.profiler.profile", "ApplicationProfile.instruction_statstack",
     "profiler"),
    ("repro.profiler.serialization", "ProfileStore.warm", "profile_store"),
    ("repro.core.model", "AnalyticalModel.predict", "core"),
    ("repro.core.model", "AnalyticalModel.predict_batch", "core"),
    ("repro.explore.validate", "simulate", "simulator"),
    ("repro.api.runstore", "RunStore.get", "run_store"),
    ("repro.api.runstore", "RunStore.put", "run_store"),
    ("repro.serve.shards", "ShardedRunStore.get", "run_store"),
    ("repro.serve.shards", "ShardedRunStore.put", "run_store"),
    ("repro.api.session", "Session.run", "session"),
    ("repro.api.session", "Session.lookup", "session"),
)

#: Generator / iterator sites, timed per ``next()``.
ITERATOR_TARGETS = (
    ("repro.explore.engine", "SweepEngine.iter_sweep", "engine"),
)

#: Pool stage functions and the layer their results belong to.
POOL_STAGES = {
    "_run_shared_batch": "core",
    "_run_batch": "core",
    "_run_shared_sim_batch": "simulator",
    "_run_sim_batch": "simulator",
}


class LayerTimer:
    """Self time, call counts and a few per-call details per layer.

    Attributes
    ----------
    self_s:
        Layer name -> self seconds (see the module docstring).
    core_s / core_points:
        Workload name -> seconds and design points inside the model's
        ``predict`` / ``predict_batch`` calls.
    run_store_get_s / run_store_put_s:
        Seconds of each outermost run-store lookup / write.
    run_store_hits:
        Lookups that returned a stored result.
    first_dispatch_s:
        Per pool stage, seconds from the ``imap`` call to its first
        result (pool start-up included when the stage created it).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.core_s: Dict[str, float] = defaultdict(float)
        self.core_points: Dict[str, int] = defaultdict(int)
        self.run_store_get_s: List[float] = []
        self.run_store_put_s: List[float] = []
        self.run_store_hits = 0
        self.session_run_s: List[float] = []
        self.first_dispatch_s: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- accounting ----------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _nested_in(self, layer: str) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][0] == layer

    def _enter(self, layer: str) -> List[Any]:
        frame = [layer, 0.0, time.perf_counter()]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: List[Any]) -> float:
        elapsed = time.perf_counter() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.self_s[frame[0]] += elapsed - frame[1]
        return elapsed

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the counters, for per-operation deltas."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "core_s": dict(self.core_s),
                "core_points": dict(self.core_points),
                "run_store_get_s": list(self.run_store_get_s),
                "run_store_put_s": list(self.run_store_put_s),
                "run_store_hits": self.run_store_hits,
                "session_run_s": list(self.session_run_s),
                "first_dispatch_s": list(self.first_dispatch_s),
            }

    # -- wrappers ------------------------------------------------------

    def _wrap_call(self, layer: str, attribute: str,
                   func: Callable) -> Callable:
        timer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            if timer._nested_in(layer):
                return func(*args, **kwargs)
            frame = timer._enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = timer._exit(frame)
            timer._detail(attribute, args, result, elapsed)
            return result

        timed.__wrapped__ = func
        return timed

    def _detail(self, attribute: str, args: tuple, result: Any,
                elapsed: float) -> None:
        """Per-call details some layer metrics need."""
        with self._lock:
            if attribute.startswith("AnalyticalModel."):
                name = args[1].name
                self.core_s[name] += elapsed
                self.core_points[name] += (
                    len(result) if attribute.endswith("_batch") else 1)
            elif attribute.endswith("Store.get"):
                self.run_store_get_s.append(elapsed)
                self.run_store_hits += result is not None
            elif attribute.endswith("Store.put"):
                self.run_store_put_s.append(elapsed)
            elif attribute == "Session.run":
                self.session_run_s.append(elapsed)

    def _timed_iter(self, layer: str, iterator: Iterator) -> Iterator:
        """Yield from ``iterator``, charging each step to ``layer``."""
        while True:
            frame = self._enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            yield item

    def _wrap_iter(self, layer: str, func: Callable) -> Callable:
        timer = self

        def timed(*args: Any, **kwargs: Any) -> Iterator:
            return timer._timed_iter(layer, iter(func(*args, **kwargs)))

        timed.__wrapped__ = func
        return timed

    def _wrap_imap(self, func: Callable) -> Callable:
        timer = self

        def timed(pool: Any, stage: Callable, *args: Any,
                  **kwargs: Any) -> Iterator:
            start = time.perf_counter()
            frame = timer._enter("pool")
            try:
                stream = func(pool, stage, *args, **kwargs)
            finally:
                timer._exit(frame)
            layer = POOL_STAGES.get(getattr(stage, "__name__", ""), "pool")
            return timer._first_result(start, timer._timed_iter(
                layer, iter(stream)))

        timed.__wrapped__ = func
        return timed

    def _first_result(self, start: float, stream: Iterator) -> Iterator:
        first = True
        for item in stream:
            if first:
                with self._lock:
                    self.first_dispatch_s.append(
                        time.perf_counter() - start)
                first = False
            yield item

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTimer"]:
        """Install every wrapper for the duration of the block."""
        import importlib

        restore = []

        def patch(module_name: str, path: str, make: Callable) -> None:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[name]
            setattr(owner, name, make(original))
            restore.append((owner, name, original))

        try:
            for module_name, path, layer in TARGETS:
                patch(module_name, path,
                      lambda f, l=layer, p=path: self._wrap_call(l, p, f))
            for module_name, path, layer in ITERATOR_TARGETS:
                patch(module_name, path,
                      lambda f, l=layer: self._wrap_iter(l, f))
            patch("repro.api.pool", "WorkerPool.imap", self._wrap_imap)
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

