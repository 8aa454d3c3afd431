"""Batched, parallel design-space sweep engine.

The paper's headline economics -- one micro-architecture independent
profile, re-evaluated across thousands of machine configurations in
seconds -- only materialize if the (profiles x configs) cross product is
evaluated efficiently.  :class:`SweepEngine` provides that evaluation
layer on top of :class:`~repro.core.model.AnalyticalModel`:

* **Batching + parallelism**: the grid is partitioned into
  ``(profile, config-chunk)`` batches evaluated on a ``multiprocessing``
  pool, with a transparent serial fallback when ``workers <= 1`` or the
  platform cannot spawn processes.
* **Profile caching**: per-profile intermediates are memoized at two
  levels -- the StatStack reuse -> stack distance tables persist on disk
  in a content-addressed :class:`~repro.profiler.serialization.ProfileStore`,
  and a per-run :class:`~repro.core.interval.ModelCache` memoizes
  branch-resolution, virtual-stream, dispatch-limit and miss-ratio
  intermediates across configurations that share the relevant fields.
* **Streaming**: :meth:`SweepEngine.iter_sweep` yields
  :class:`~repro.explore.dse.DesignPoint` results incrementally in
  deterministic grid order, so Pareto / DVFS consumers can run on
  partial results while the sweep is still in flight.
* **Columnar worker payloads**: everything shipped to worker processes
  is array- or statistics-shaped, never per-instruction object lists.
  Profiles are pure aggregated statistics, and
  :class:`~repro.workloads.trace.Trace` pickles as its columnar
  (structure-of-arrays) view -- see
  :class:`~repro.workloads.columns.TraceColumns` -- so the simulation
  sweeps that mirror this engine (``explore.validate``) serialize
  traces two orders of magnitude faster than object lists.

Results are bitwise identical between the serial and parallel paths and
with the pre-engine serial loop: the caches memoize pure computations on
exhaustive dependency keys, and batches are streamed back in submission
order.
"""

from __future__ import annotations

import os
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.backends import resolve_model_backend
from repro.core.interval import ModelCache
from repro.core.machine import MachineConfig
from repro.core.model import AnalyticalModel, ModelResult
from repro.faults import inject
from repro.profiler.profile import ApplicationProfile
from repro.profiler.serialization import ProfileStore

__all__ = ["SweepEngine"]


#: Batch-backend failures that degrade to the scalar reference loop
#: instead of aborting the sweep: the injected fault plus the error
#: classes a broken vectorized program realistically raises.  The two
#: backends are pinned bitwise-identical by the equivalence harness, so
#: the fallback changes evaluation cost, never results.
_BATCH_FALLBACK_ERRORS = (
    inject.InjectedBatchError,
    ArithmeticError,
    ValueError,
    TypeError,
    IndexError,
    KeyError,
)


def _eval_batch(
    model: AnalyticalModel,
    profile: ApplicationProfile,
    chunk: Sequence[MachineConfig],
    backend: str,
    site: str,
) -> List[ModelResult]:
    """Evaluate one config chunk, degrading batch -> scalar on failure.

    ``site`` names this batch for the fault-injection harness (see
    :func:`repro.faults.inject.batch_site`).  When the batch backend
    raises -- injected or real -- the chunk is re-evaluated with the
    scalar reference backend (bitwise-identical results, per the
    equivalence harness) and ``engine.backend_fallbacks`` is counted.
    """
    if backend == "batch":
        try:
            inject.batch_site(site)
            return model.predict_batch(profile, chunk, backend="batch")
        except _BATCH_FALLBACK_ERRORS:
            obs.metrics().inc("engine.backend_fallbacks")
            return model.predict_batch(profile, chunk, backend="scalar")
    return model.predict_batch(profile, chunk, backend=backend)


# ----------------------------------------------------------------------
# Worker-process plumbing (module level so it pickles under spawn too)
# ----------------------------------------------------------------------

_WORKER: Dict[str, object] = {}


def _init_worker(
    model: AnalyticalModel,
    profiles: Sequence[ApplicationProfile],
    configs: Sequence[MachineConfig],
    backend: str,
) -> None:
    """Pool initializer: install the grid and a fresh per-process cache."""
    model.cache = ModelCache()
    _WORKER["model"] = model
    _WORKER["profiles"] = profiles
    _WORKER["configs"] = configs
    _WORKER["backend"] = backend


def _run_batch(task: Tuple[int, int, int]) -> List[ModelResult]:
    """Evaluate one (profile, config-chunk) batch inside a worker."""
    profile_index, start, stop = task
    model: AnalyticalModel = _WORKER["model"]  # type: ignore[assignment]
    profile = _WORKER["profiles"][profile_index]  # type: ignore[index]
    configs = _WORKER["configs"]  # type: ignore[assignment]
    backend: str = _WORKER["backend"]  # type: ignore[assignment]
    return _eval_batch(
        model, profile, configs[start:stop],  # type: ignore[index]
        backend, f"{profile_index}:{start}",
    )


def _run_shared_batch(state, task: Tuple[int, int, int]):
    """Evaluate one batch against :class:`~repro.api.pool.WorkerPool`
    shared state (``(model, profiles, configs, backend)``).

    The state object persists inside the worker for the whole sweep, so
    attaching a :class:`~repro.core.interval.ModelCache` on the first
    batch gives every later batch of the same sweep a warm cache --
    exactly what :func:`_init_worker` does for per-call pools.

    Cache hit/miss deltas are flushed into the active (worker-local)
    metrics registry after each batch, so they ride back to the parent
    piggybacked on this batch's result message.
    """
    model, profiles, configs, backend = state
    if model.cache is None:
        model.cache = ModelCache()
    profile_index, start, stop = task
    profile = profiles[profile_index]
    results = _eval_batch(
        model, profile, configs[start:stop], backend,
        f"{profile_index}:{start}",
    )
    model.cache.flush_metrics(obs.metrics())
    return results


class SweepEngine:
    """Evaluates (profiles x configs) grids in batches, optionally parallel.

    Parameters
    ----------
    model:
        The analytical model to evaluate; a default-configured
        :class:`~repro.core.model.AnalyticalModel` when omitted.  If the
        model has no :class:`~repro.core.interval.ModelCache` attached,
        the engine attaches a fresh one for the duration of each sweep
        and detaches it afterwards (results are unchanged; only
        faster).  Attach your own cache to the model to keep memoized
        state across sweeps instead.
    workers:
        Number of worker processes.  ``None`` uses ``os.cpu_count()``;
        values ``<= 1`` select the serial path.  The parallel and serial
        paths produce bitwise-identical results in the same order.
    batch_size:
        Configurations per worker task.  Defaults to roughly a quarter
        of the per-worker share, so the pool stays busy without
        oversized pickling.
    store:
        Optional :class:`~repro.profiler.serialization.ProfileStore`.
        When given, every profile is content-hashed into the store and
        its StatStack stack-distance tables are loaded from (or saved
        to) disk, making repeated sweeps over the same profiles start
        warm.
    pool:
        Optional externally-owned :class:`~repro.api.pool.WorkerPool`.
        When given, parallel sweeps run on that persistent pool
        (shared with other stages of a
        :class:`~repro.api.session.Session`) instead of creating a
        ``multiprocessing.Pool`` per call; results are bitwise
        identical.  The pool is never closed by the engine.
    progress:
        Optional ``progress(done, total)`` callback invoked after every
        design point.
    backend:
        Model evaluation backend per config chunk: ``"batch"`` (the
        vectorized array program), ``"scalar"`` (the per-config
        reference loop), or ``None`` to take the
        ``REPRO_MODEL_BACKEND`` environment default.  Both backends
        stream bitwise-identical design points in the same order, at
        any chunk size and worker count; unknown names raise
        ``ValueError`` when the sweep starts.

    Examples
    --------
    >>> engine = SweepEngine(workers=4)                  # doctest: +SKIP
    >>> results = engine.sweep(profiles, design_space()) # doctest: +SKIP
    >>> for point in engine.iter_sweep(profiles, configs):  # streaming
    ...     update_pareto(point)                         # doctest: +SKIP
    """

    def __init__(
        self,
        model: Optional[AnalyticalModel] = None,
        workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        store: Optional[ProfileStore] = None,
        pool=None,
        progress: Optional[Callable[[int, int], None]] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.model = model if model is not None else AnalyticalModel()
        self.workers = workers
        self.batch_size = batch_size
        self.store = store
        self.pool = pool
        self.progress = progress
        self.backend = backend
        # id -> (profile, store key): profiles already prepared by this
        # engine (the profile reference pins the id against reuse).
        self._prepared: Dict[int, Tuple[ApplicationProfile,
                                        Optional[str]]] = {}

    # ------------------------------------------------------------------

    def effective_workers(self) -> int:
        """The worker count after resolving the ``None`` default."""
        if self.workers is None:
            return os.cpu_count() or 1
        return max(1, self.workers)

    def prepare(
        self,
        profiles: Sequence[ApplicationProfile],
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Optional[str]]:
        """Materialize per-profile intermediates before the sweep.

        With a :class:`ProfileStore` attached, each profile is hashed
        into the store and its StatStack tables come from disk when
        cached (the "warm profile cache" path); otherwise the models are
        simply built in memory so workers inherit them pre-built.
        Profiles already prepared by this engine are skipped, so
        repeated sweeps do not re-hash or reload anything.

        Parameters
        ----------
        profiles:
            The profiles to prepare.
        keys:
            Optional store fingerprints of ``profiles`` (``None``
            entries unknown), for profiles the caller already stored --
            e.g. loaded through :meth:`ProfileStore.lookup` -- so they
            are not hashed a second time.

        Returns
        -------
        list of str or None
            The store fingerprint per profile (``None`` without a store).
        """
        known = list(keys) if keys is not None else [None] * len(profiles)
        prepared_keys: List[Optional[str]] = []
        with obs.span("engine.prepare", profiles=len(profiles)):
            for profile, known_key in zip(profiles, known):
                prepared = self._prepared.get(id(profile))
                if prepared is not None and prepared[0] is profile:
                    prepared_keys.append(prepared[1])
                    continue
                if self.store is not None:
                    key = self.store.warm(profile, key=known_key)
                else:
                    profile.statstack()
                    profile.instruction_statstack()
                    key = None
                self._prepared[id(profile)] = (profile, key)
                prepared_keys.append(key)
            if self.store is not None:
                self.store.flush_metrics(obs.metrics())
        return prepared_keys

    def _batches(
        self, n_profiles: int, n_configs: int
    ) -> List[Tuple[int, int, int]]:
        """Partition the grid into (profile, config-chunk) batch tasks."""
        workers = self.effective_workers()
        chunk = self.batch_size
        if chunk is None:
            chunk = max(1, -(-n_configs // max(1, workers * 4)))
        tasks: List[Tuple[int, int, int]] = []
        for profile_index in range(n_profiles):
            for start in range(0, n_configs, chunk):
                tasks.append(
                    (profile_index, start, min(start + chunk, n_configs))
                )
        return tasks

    # ------------------------------------------------------------------

    def iter_sweep(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
    ) -> Iterator["DesignPoint"]:
        """Stream design points in deterministic grid order.

        Points are yielded profile-major (all configs of the first
        profile, then the second, ...), identically for the serial and
        parallel paths, so downstream consumers can fold partial results
        while later batches are still being evaluated.

        Yields
        ------
        DesignPoint
            One evaluated (workload, configuration) pair at a time.
        """
        profiles = list(profiles)
        configs = list(configs)
        # Resolve (and validate) the backend before any evaluation, so
        # a bad name fails fast instead of mid-sweep.
        backend = resolve_model_backend(self.backend)
        with obs.span(
            "engine.sweep",
            profiles=len(profiles),
            configs=len(configs),
            workers=self.effective_workers(),
            backend=backend,
        ):
            self.prepare(profiles)
            # Per-run cache unless the caller attached their own: the
            # caller's model is left exactly as it was handed to us.
            attached = False
            if self.model.cache is None:
                self.model.cache = ModelCache()
                attached = True
            try:
                if (self.effective_workers() <= 1
                        or not profiles or not configs):
                    yield from self._iter_serial(profiles, configs, backend)
                else:
                    yield from self._iter_parallel(
                        profiles, configs, backend
                    )
            finally:
                if attached:
                    self.model.cache = None

    def sweep(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
    ) -> Dict[str, List["DesignPoint"]]:
        """Evaluate the full grid and group points per workload.

        Returns
        -------
        dict of str to list of DesignPoint
            ``{workload name: [point per config, in config order]}`` --
            the same shape :func:`~repro.explore.dse.evaluate_design_space`
            has always returned.
        """
        results: Dict[str, List["DesignPoint"]] = {}
        for point in self.iter_sweep(profiles, configs):
            results.setdefault(point.workload, []).append(point)
        return results

    # ------------------------------------------------------------------

    def _iter_serial(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
        backend: str,
    ) -> Iterator["DesignPoint"]:
        tasks = self._batches(len(profiles), len(configs))
        total = len(profiles) * len(configs)
        yield from self._iter_serial_tail(
            profiles, configs, backend, tasks, 0, total
        )

    def _iter_serial_tail(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
        backend: str,
        tasks: Sequence[Tuple[int, int, int]],
        done: int,
        total: int,
    ) -> Iterator["DesignPoint"]:
        """Evaluate ``tasks`` in-process, continuing the point stream.

        The whole serial path is phrased as a *tail* so the parallel
        path can hand over mid-sweep after a pool give-up: already
        yielded points stay yielded, ``done`` keeps the progress
        callback monotonic, and the remaining batches run here -- on
        the same model and cache -- in the same grid order.
        """
        from repro.explore.dse import DesignPoint

        metrics = obs.metrics()
        for profile_index, start, stop in tasks:
            profile = profiles[profile_index]
            results = _eval_batch(
                self.model, profile, configs[start:stop], backend,
                f"{profile_index}:{start}",
            )
            metrics.inc("engine.batches")
            metrics.inc("engine.points", len(results))
            self.model.cache.flush_metrics(metrics)
            for offset, result in enumerate(results):
                point = DesignPoint(
                    workload=profile.name,
                    config=configs[start + offset],
                    result=result,
                )
                done += 1
                if self.progress is not None:
                    self.progress(done, total)
                yield point

    def _iter_parallel(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
        backend: str,
    ) -> Iterator["DesignPoint"]:
        from repro.explore.dse import DesignPoint

        if self.pool is not None:
            yield from self._iter_shared(profiles, configs, backend)
            return

        try:
            import multiprocessing
        except ImportError:
            yield from self._iter_serial(profiles, configs, backend)
            return

        tasks = self._batches(len(profiles), len(configs))
        workers = min(self.effective_workers(), len(tasks))
        # Ship the model without its cache (workers build their own);
        # restore the parent's cache afterwards.
        cache = self.model.cache
        self.model.cache = None
        try:
            pool = multiprocessing.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(self.model, profiles, configs, backend),
            )
        except (ImportError, OSError, ValueError):
            # Platforms without working process support (missing
            # semaphores, sandboxed environments) fall back to serial.
            self.model.cache = cache
            yield from self._iter_serial(profiles, configs, backend)
            return
        finally:
            if self.model.cache is None:
                self.model.cache = cache

        metrics = obs.metrics()
        total = len(profiles) * len(configs)
        done = 0
        with pool:
            for (profile_index, start, _), results in zip(
                tasks, pool.imap(_run_batch, tasks)
            ):
                metrics.inc("engine.batches")
                metrics.inc("engine.points", len(results))
                name = profiles[profile_index].name
                for offset, result in enumerate(results):
                    done += 1
                    if self.progress is not None:
                        self.progress(done, total)
                    yield DesignPoint(
                        workload=name,
                        config=configs[start + offset],
                        result=result,
                    )

    def _iter_shared(
        self,
        profiles: Sequence[ApplicationProfile],
        configs: Sequence[MachineConfig],
        backend: str,
    ) -> Iterator["DesignPoint"]:
        """The parallel path on an externally-owned persistent pool.

        Ships ``(model-without-cache, profiles, configs, backend)`` as
        the stage's shared state (pickled once, installed per worker at
        most once) and streams batches back in submission order, so
        results are bitwise identical to :meth:`_iter_parallel`.
        Platforms without working process support fall back to serial
        up front; a :class:`~repro.api.pool.WorkerPoolError` raised
        *mid-stream* (supervision gave the stage up) hands the
        remaining batches to :meth:`_iter_serial_tail` -- completed
        points are kept and the sweep finishes in-process with
        identical results.
        """
        from repro.api.pool import WorkerPoolError
        from repro.explore.dse import DesignPoint

        tasks = self._batches(len(profiles), len(configs))
        # Ship the model without its cache (workers attach their own);
        # restore the parent's cache afterwards.
        cache = self.model.cache
        self.model.cache = None
        try:
            stream = self.pool.imap(
                _run_shared_batch,
                (self.model, list(profiles), list(configs), backend),
                tasks,
            )
        except WorkerPoolError:
            self.model.cache = cache
            yield from self._iter_serial(profiles, configs, backend)
            return
        finally:
            if self.model.cache is None:
                self.model.cache = cache

        metrics = obs.metrics()
        total = len(profiles) * len(configs)
        done = 0
        for completed, (profile_index, start, _) in enumerate(tasks):
            try:
                results = next(stream)
            except WorkerPoolError:
                metrics.inc("engine.serial_fallbacks")
                yield from self._iter_serial_tail(
                    profiles, configs, backend,
                    tasks[completed:], done, total,
                )
                return
            metrics.inc("engine.batches")
            metrics.inc("engine.points", len(results))
            name = profiles[profile_index].name
            for offset, result in enumerate(results):
                done += 1
                if self.progress is not None:
                    self.progress(done, total)
                yield DesignPoint(
                    workload=name,
                    config=configs[start + offset],
                    result=result,
                )
