"""The benchmark workloads, each driven through the public API.

Every scenario has the same life cycle, run by ``run.py``:

``setup()``
    Build what the operations need (repeated; the median is ``setup_s``).
``op()``
    One timed operation: a sweep, a validation campaign, or one round of
    the serve request mix.  Returns an :class:`OpResult`.
``check(result)``
    Compare the operation's output with the recorded digests (outside
    the timed region); returns the number of failed checks.
``check_samples(results)``
    Checks that need every operation's result, run after timing.
``layer_metrics(...)``
    Traced runs only: the scenario-specific per-layer numbers.
``close()``
    Release sessions, servers and stores.

Inputs come from one *input class* per run, ``seed % SEED_CLASSES``:
it is the ``trace_seed`` of every synthetic trace and the seed of the
serve request sequence, so each class has fixed outputs whose digests
are recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.api import ExperimentSpec, Session, config_from_overrides
from repro.serve import ServerThread, ShardedRunStore, request_run
from repro.workloads.suite import workload_names

#: Inputs repeat with period ``SEED_CLASSES`` in ``--seed``.
SEED_CLASSES = 16

#: ``sweep_store``: a mix of memory-bound, branchy and compute-bound
#: workloads, including the two whose model time is dominated by
#: branch resolution (gamess, libquantum).
STORE_WORKLOADS = ["gcc", "mcf", "gamess", "libquantum", "bwaves",
                   "omnetpp"]
#: ``serve_mix``: workloads the server's session profiles at set-up.
SERVE_WORKLOADS = ["gcc", "mcf", "libquantum", "gamess"]
#: Per serve round: new predicts, of which use a never-seen ROB size,
#: new sweeps, and repeats of (predicts, sweeps) -- 100 requests.
SERVE_PREDICTS, SERVE_FRESH, SERVE_SWEEPS = 40, 8, 20
SERVE_REPEATS = (30, 10)
#: Predict configurations warmed at set-up: (workload, width, ROB, LLC MB).
WARM_PREDICTS = [(workload, width, rob, llc_mb)
                 for workload in SERVE_WORKLOADS
                 for width in (2, 4, 6)
                 for rob in (64, 128, 192, 256)
                 for llc_mb in (2, 8)]
#: Frequencies make warm predicts new specs without new model work
#: (the model's cached intermediates do not depend on frequency).
SERVE_FREQUENCIES = [round(1.6 + 0.01 * step, 2) for step in range(241)]
#: ROB sizes from here up are used once each: model-cache misses.
FRESH_ROB = 260
#: Sweep requests cover grid prefixes in this range, over these sets.
SWEEP_LIMITS = (8, 48)
SWEEP_WORKLOAD_SETS = ([(name,) for name in SERVE_WORKLOADS]
                       + [(a, b) for i, a in enumerate(SERVE_WORKLOADS)
                          for b in SERVE_WORKLOADS[i + 1:]])
SWEEP_OBJECTIVES = (None, "seconds", "energy", "edp", "ed2p")
#: Client threads (closed loop, each waits for its reply).
SERVE_CLIENTS = 2
#: Later rounds: distinct specs compared against a direct run.
SERVE_SAMPLED_CHECKS = 4
#: Latency charged to a failed request: it misses any limit.
MISSED_LIMIT_S = 1e6
VALIDATE_WORKLOADS = ["gcc", "mcf"]
VALIDATE_LIMIT = 8
VALIDATE_INSTRUCTIONS = 20_000
#: Large enough that the empirical baseline (>= 3 training designs) is
#: part of every report.
VALIDATE_TRAIN_FRACTION = 0.5
#: Serial: with two workers on a 2-CPU host the campaign waits on the
#: slower CPU and its run-to-run spread doubled.  The pool is measured
#: by ``sweep_store`` and by the traced 2-worker engine replay.
VALIDATE_WORKERS = 1
#: Serial simulator calls timed directly in traced ``validate`` runs.
SIM_PROBE_CONFIGS = 2
HOST = "127.0.0.1"


def canonical(document: Any) -> str:
    """Canonical JSON text: what a JSON round trip preserves, sorted."""
    return json.dumps(json.loads(json.dumps(document)), sort_keys=True,
                      separators=(",", ":"))


def digest(document: Any) -> str:
    """SHA-256 of :func:`canonical`."""
    return hashlib.sha256(canonical(document).encode()).hexdigest()


def result_document(result) -> Dict[str, Any]:
    """The comparable artifact of a :class:`RunResult` (no telemetry)."""
    return result.to_dict(include_telemetry=False)


@dataclass
class OpResult:
    """What one timed operation produced."""

    points: int
    #: Per-request latencies in seconds (serve); empty means the
    #: operation itself is the one request.
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    output: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


class Scenario:
    """Shared plumbing; subclasses define the workload."""

    name = ""

    def __init__(self, input_class: int, workdir: str,
                 digests: Dict[str, Any]) -> None:
        self.input_class = input_class
        self.workdir = workdir
        self.recorded = digests.get(self.name, {}).get(str(input_class))
        self.notes: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> int:
        raise NotImplementedError

    def check_samples(self, results: List[OpResult]) -> int:
        """Checks that need every operation's result, after timing."""
        return 0

    def reference(self) -> Any:
        """Digest(s) of this input class, computed without timing."""
        self.setup()
        try:
            return self.digests_of(self.op())
        finally:
            self.close()

    def digests_of(self, result: OpResult) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_metrics(self, traced: List[Tuple[float, OpResult, dict]]
                      ) -> Dict[str, float]:
        """Scenario-specific per-layer numbers (traced runs)."""
        return {}

    def e2e_extra(self, ops: List[Tuple[float, OpResult]]
                  ) -> Dict[str, Tuple[float, str]]:
        """Extra report-only end-to-end figures."""
        return {}


def _fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class SweepStore(Scenario):
    """Repeated CLI-style sweeps over a warm on-disk ProfileStore."""

    name = "sweep_store"

    def spec(self) -> ExperimentSpec:
        return ExperimentSpec("sweep", workloads=STORE_WORKLOADS,
                              trace_seed=self.input_class)

    def setup(self) -> None:
        from repro.explore.space import DesignSpace

        self.store = _fresh_dir(self.workdir, "profile-store")
        with Session(workers=1, profile_store=self.store) as session:
            session.run(ExperimentSpec(
                "profile", workloads=STORE_WORKLOADS,
                seed=self.input_class))
        self.configs = DesignSpace.default().configs()
        self._spec = self.spec()

    def op(self) -> OpResult:
        with Session(workers=2, profile_store=self.store) as session:
            result = session.run(self._spec)
        self.session = session
        store = session.profile_store
        return OpResult(
            points=result.data["n_configs"] * len(STORE_WORKLOADS),
            output=result_document(result),
            extra={"tables_hits": store.tables_hits,
                   "tables_misses": store.tables_misses,
                   "retries": session.pool.retries,
                   "restarts": session.pool.restarts})

    def digests_of(self, result: OpResult) -> str:
        return digest(result.output)

    def check(self, result: OpResult) -> int:
        failed = int(self.recorded != digest(result.output))
        result.output = None
        return failed

    def layer_metrics(self, traced) -> Dict[str, float]:
        ops = [op for _, op, _ in traced]
        metrics = {
            "profile_store.tables_hits": sum(
                op.extra["tables_hits"] for op in ops) / len(ops),
            "profile_store.tables_misses": sum(
                op.extra["tables_misses"] for op in ops) / len(ops),
            "pool.retries": sum(op.extra["retries"] for op in ops),
            "pool.restarts": sum(op.extra["restarts"] for op in ops),
        }
        profiles = [
            self.session.profile_workload(name,
                                          trace_seed=self.input_class)
            for name in STORE_WORKLOADS
        ]
        metrics.update(engine_replay(profiles, self.configs))
        metrics.update(suite_probe(self.input_class, self.configs))
        return metrics


class Validate(Scenario):
    """A model-vs-simulator campaign on a warm serial session."""

    name = "validate"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.notes.append("every simulation starts with empty caches")

    def spec(self, limit: int = VALIDATE_LIMIT) -> ExperimentSpec:
        return ExperimentSpec(
            "validate", workloads=VALIDATE_WORKLOADS, limit=limit,
            instructions=VALIDATE_INSTRUCTIONS,
            train_fraction=VALIDATE_TRAIN_FRACTION,
            trace_seed=self.input_class)

    def setup(self) -> None:
        self.close()
        self.session = Session(workers=VALIDATE_WORKERS)
        self.session.run(ExperimentSpec(
            "profile", workloads=VALIDATE_WORKLOADS,
            instructions=VALIDATE_INSTRUCTIONS, seed=self.input_class))
        # Warm the simulator path on a one-config slice.
        self.session.run(self.spec(limit=1))
        self._spec = self.spec()

    def op(self) -> OpResult:
        result = self.session.run(self._spec)
        return OpResult(
            points=VALIDATE_LIMIT * len(VALIDATE_WORKLOADS),
            output=result_document(result),
            extra={"retries": self.session.pool.retries,
                   "restarts": self.session.pool.restarts})

    @staticmethod
    def split(document: Dict[str, Any]) -> Tuple[Any, Any]:
        """(host-stable part, host-sensitive part) of a report.

        The empirical baseline is a ridge regression solved with
        ``np.linalg.solve``, whose last digits differ between hosts.
        """
        stable = json.loads(canonical(document))
        sensitive = []
        for record in stable["data"]["workloads"]:
            baseline = record.get("baseline")
            if baseline is not None:
                sensitive.append(baseline.pop("empirical"))
        return stable, sensitive

    def digests_of(self, result: OpResult) -> Dict[str, str]:
        stable, sensitive = self.split(result.output)
        return {"stable": digest(stable),
                "host_sensitive": digest(sensitive)}

    def check(self, result: OpResult) -> int:
        recorded = self.recorded or {}
        got = self.digests_of(result)
        if got["host_sensitive"] != recorded.get("host_sensitive"):
            note = ("host-sensitive field differs from the recorded "
                    "digest: data.workloads[*].baseline.empirical "
                    "(np.linalg.solve drift); not counted as a failure")
            if note not in self.notes:
                self.notes.append(note)
        result.extra["cpi_error_pct"] = self.cpi_error_pct(result)
        result.output = None
        return int(got["stable"] != recorded.get("stable"))

    def cpi_error_pct(self, result: OpResult) -> float:
        records = result.output["data"]["workloads"]
        return 100.0 * statistics.fmean(
            record["cpi_error"]["mean"] for record in records)

    def e2e_extra(self, ops) -> Dict[str, Tuple[float, str]]:
        seconds = [elapsed for elapsed, _ in ops]
        instructions = (VALIDATE_INSTRUCTIONS * VALIDATE_LIMIT
                        * len(VALIDATE_WORKLOADS))
        return {
            "sim_instructions_per_s": (
                instructions * len(ops) / sum(seconds), "instr/s"),
            "model_cpi_error_pct": (ops[0][1].extra["cpi_error_pct"], "%"),
        }

    def layer_metrics(self, traced) -> Dict[str, float]:
        from repro.explore.space import DesignSpace
        from repro.simulator import simulate

        ops = [op for _, op, _ in traced]
        metrics = {
            "pool.retries": ops[-1].extra["retries"],
            "pool.restarts": ops[-1].extra["restarts"],
            "core.cpi_error_pct": ops[0].extra["cpi_error_pct"],
        }
        configs = DesignSpace.default().configs()[:VALIDATE_LIMIT]
        profiles, traces = [], []
        for name in VALIDATE_WORKLOADS:
            profiles.append(self.session.profile_workload(
                name, instructions=VALIDATE_INSTRUCTIONS,
                trace_seed=self.input_class))
            traces.append(self.session.trace(
                name, VALIDATE_INSTRUCTIONS, self.input_class))
        metrics.update(engine_replay(profiles, configs))
        start = time.perf_counter()
        for trace in traces:
            for config in configs[:SIM_PROBE_CONFIGS]:
                simulate(trace, config)
        elapsed = time.perf_counter() - start
        metrics["simulator.instructions_per_s"] = (
            len(traces) * SIM_PROBE_CONFIGS * VALIDATE_INSTRUCTIONS
            / elapsed)
        return metrics

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None


class ServeMix(Scenario):
    """Two closed-loop clients replaying one seeded request mix."""

    name = "serve_mix"

    def setup(self) -> None:
        self.close()
        runs = _fresh_dir(self.workdir, "runs")
        self.session = Session(workers=1, run_store=ShardedRunStore(runs))
        self.session.run(ExperimentSpec(
            "profile", workloads=SERVE_WORKLOADS, seed=self.input_class))
        # Warm the model cache on everything but the deliberately fresh
        # predicts -- the grid prefix the sweeps read and each warm
        # predict configuration -- so rounds do steady work.  Calling
        # the session's engine and model directly keeps the warm-up out
        # of the run store.
        from repro.explore.space import DesignSpace

        profiles = {name: self.session.profile_workload(
                        name, trace_seed=self.input_class)
                    for name in SERVE_WORKLOADS}
        self.session.engine.sweep(
            list(profiles.values()),
            DesignSpace.default().configs()[:SWEEP_LIMITS[-1]])
        for workload, width, rob, llc_mb in WARM_PREDICTS:
            self.session.model.predict(profiles[workload],
                                       config_from_overrides(
                                           width=width, rob=rob,
                                           llc_mb=llc_mb))
        self.server = ServerThread(self.session, port=0)
        self.server.__enter__()
        self.round = 0
        self.rounds: List[List[dict]] = []

    def predict(self, workload: str, width: int, rob: int, llc_mb: int,
                frequency: float) -> dict:
        return {"kind": "predict", "params": {
            "workload": workload, "width": width, "rob": rob,
            "llc_mb": llc_mb, "frequency": frequency,
            "trace_seed": self.input_class}}

    def round_specs(self, index: int) -> List[dict]:
        """The request sequence of one round (JSON spec mappings).

        Every round has the same shape -- 40 new predicts (8 of them on
        a ROB size no earlier round used, so the model cache misses),
        20 new sweeps, then 30 repeated predicts and 10 repeated sweeps
        -- drawn without replacement from seeded permutations, so no
        two rounds of a run share a spec and rounds do comparable work.
        """
        rng = random.Random(f"perfbench-serve:{self.input_class}:{index}")
        warm = _permutation(
            f"predicts:{self.input_class}",
            [(combo, frequency) for combo in WARM_PREDICTS
             for frequency in SERVE_FREQUENCIES])
        sweeps = _permutation(
            f"sweeps:{self.input_class}",
            [(names, limit, objective)
             for names in SWEEP_WORKLOAD_SETS
             for limit in range(SWEEP_LIMITS[0], SWEEP_LIMITS[-1] + 1)
             for objective in SWEEP_OBJECTIVES])
        n_warm = SERVE_PREDICTS - SERVE_FRESH
        predicts = [self.predict(*combo, frequency) for combo, frequency
                    in _slice(warm, index, n_warm)]
        for slot in range(SERVE_FRESH):
            workload, width, _, llc_mb = WARM_PREDICTS[
                rng.randrange(len(WARM_PREDICTS))]
            rob = FRESH_ROB + index * SERVE_FRESH + slot
            predicts.append(self.predict(workload, width, rob, llc_mb,
                                         rng.choice(SERVE_FREQUENCIES)))
        sweep_specs = [
            {"kind": "sweep", "params": {
                "workloads": list(names), "limit": limit,
                "objective": objective, "trace_seed": self.input_class}}
            for names, limit, objective
            in _slice(sweeps, index, SERVE_SWEEPS)]
        sequence = predicts + sweep_specs
        rng.shuffle(sequence)
        repeats = ([rng.choice(predicts) for _ in range(SERVE_REPEATS[0])]
                   + [rng.choice(sweep_specs)
                      for _ in range(SERVE_REPEATS[1])])
        for spec in repeats:
            first = next(i for i, s in enumerate(sequence) if s is spec)
            sequence.insert(rng.randint(first + 1, len(sequence)), spec)
        return sequence

    def op(self) -> OpResult:
        specs = self.round_specs(self.round)
        self.rounds.append(specs)
        self.round += 1
        port = self.server.port
        cache = self.session.model.cache
        before = (cache.hits, cache.misses)
        replies: List[List[Any]] = [[] for _ in range(SERVE_CLIENTS)]

        def client(slot: int) -> None:
            for spec in specs:
                start = time.perf_counter()
                try:
                    reply = request_run(HOST, port, spec, timeout=120)
                    ok = True
                except Exception as exc:  # noqa: BLE001 -- counted
                    reply, ok = repr(exc), False
                replies[slot].append(
                    (time.perf_counter() - start, ok, reply))

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies, failed, classes = [], 0, []
        documents: Dict[str, List[Any]] = {}
        for client_replies in replies:
            for spec, (elapsed, ok, reply) in zip(specs, client_replies):
                key = canonical(spec)
                if not ok:
                    failed += 1
                    latencies.append(MISSED_LIMIT_S)
                    continue
                latencies.append(elapsed)
                documents.setdefault(key, []).append(reply["result"])
                kind = ("hit" if reply["cached"]
                        else f"miss_{spec['kind']}")
                classes.append((kind, elapsed))
        points = sum(_points(spec) for spec in specs) * SERVE_CLIENTS
        return OpResult(points=points, latencies=latencies,
                        failed=failed, output=documents,
                        extra={"round": self.round - 1,
                               "classes": classes,
                               "model_cache": (cache.hits - before[0],
                                               cache.misses - before[1])})

    @staticmethod
    def round_digest(documents: Dict[str, Any]) -> str:
        lines = [f"{key} {digest(document)}"
                 for key, document in sorted(documents.items())]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def check(self, result: OpResult) -> int:
        """Failures: requests whose payload is not the spec's payload.

        Every reply to one spec must be identical; round 0 must match
        the recorded digest of direct ``Session.run`` payloads; later
        rounds are sampled against a direct run after the timed loop
        (:meth:`check_samples`).
        """
        failed = 0
        first: Dict[str, Any] = {}
        for key, documents in result.output.items():
            first[key] = documents[0]
            failed += sum(canonical(doc) != canonical(documents[0])
                          for doc in documents[1:])
        if result.extra["round"] == 0:
            complete = len(first) == len(
                {canonical(s) for s in self.rounds[0]})
            if not complete or self.round_digest(first) != self.recorded:
                failed += sum(len(docs) for docs in
                              result.output.values())
        else:
            rng = random.Random(f"sample:{result.extra['round']}")
            keys = rng.sample(sorted(result.output),
                              min(SERVE_SAMPLED_CHECKS, len(result.output)))
            result.extra["sampled"] = {key: result.output[key]
                                       for key in keys}
        result.output = None
        return failed

    def check_samples(self, results: List[OpResult]) -> int:
        """Compare sampled later-round replies with direct runs."""
        sampled = [item for result in results
                   for item in result.extra.get("sampled", {}).items()]
        if not sampled:
            return 0
        failed = 0
        with Session(workers=1) as direct:
            for key, documents in sampled:
                expected = canonical(result_document(
                    direct.run(json.loads(key))))
                failed += sum(canonical(doc) != expected
                              for doc in documents)
        return failed

    def reference(self) -> str:
        specs = self.round_specs(0)
        documents = {}
        with Session(workers=1) as session:
            for spec in specs:
                key = canonical(spec)
                if key not in documents:
                    documents[key] = result_document(session.run(spec))
        return self.round_digest(documents)

    def layer_metrics(self, traced) -> Dict[str, float]:
        by_class: Dict[str, List[float]] = {}
        for _, op, _ in traced:
            for kind, elapsed in op.extra["classes"]:
                by_class.setdefault(kind, []).append(elapsed)
        metrics = {
            f"serve.roundtrip_ms.{kind}": (
                1000 * statistics.median(by_class[kind])
                if by_class.get(kind) else 0.0)
            for kind in ("hit", "miss_predict", "miss_sweep")
        }
        # Direct warm lookups of the last round's specs, server idle.
        specs = {canonical(s): s for s in self.rounds[-1]}
        direct = []
        for spec in specs.values():
            start = time.perf_counter()
            self.session.lookup(spec)
            direct.append(time.perf_counter() - start)
        metrics["serve.overhead_ms"] = (
            metrics["serve.roundtrip_ms.hit"]
            - 1000 * statistics.median(direct))
        server = self.server.server
        metrics["serve.coalesced_ratio"] = (
            server.coalesced / server.requests if server.requests else 0.0)
        metrics["serve.batch_merged"] = server.batcher.merged
        metrics["serve.shed"] = server.shed
        metrics["model_cache.hits"] = sum(
            op.extra["model_cache"][0] for _, op, _ in traced)
        metrics["model_cache.misses"] = sum(
            op.extra["model_cache"][1] for _, op, _ in traced)
        return metrics

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None


def _permutation(seed: str, items: list) -> list:
    """``items`` in a seeded random order."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _slice(items: list, index: int, size: int) -> list:
    """Round ``index``'s share of a permutation (wrapping around)."""
    return [items[(index * size + offset) % len(items)]
            for offset in range(size)]


def _points(spec: dict) -> int:
    """Design points one reply carries."""
    if spec["kind"] == "predict":
        return 1
    return spec["params"]["limit"] * len(spec["params"]["workloads"])


def engine_replay(profiles, configs) -> Dict[str, float]:
    """One sweep of the same profiles and grid at 1 and at 2 workers.

    Both engines start with a fresh model cache and the 2-worker one
    with a fresh pool, like a new session.  The 1-worker replay runs
    under its own :class:`LayerTimer`, giving the model's per-workload
    cost where the measured operation ran it in worker processes.
    """
    from layers import LayerTimer
    from repro.api.pool import WorkerPool
    from repro.core.interval import ModelCache
    from repro.core.model import AnalyticalModel
    from repro.explore.engine import SweepEngine

    timer = LayerTimer()
    cache = ModelCache()
    engine = SweepEngine(model=AnalyticalModel(cache=cache), workers=1)
    with timer.installed():
        start = time.perf_counter()
        engine.sweep(profiles, configs)
        serial = time.perf_counter() - start
    with WorkerPool(2) as pool:
        engine = SweepEngine(model=AnalyticalModel(), workers=2, pool=pool)
        start = time.perf_counter()
        engine.sweep(profiles, configs)
        parallel = time.perf_counter() - start
    metrics = {
        "engine.sweep_s.w1": serial,
        "engine.sweep_s.w2": parallel,
        "engine.parallel_gain": serial / parallel,
        "model_cache.hits": cache.hits,
        "model_cache.misses": cache.misses,
    }
    metrics.update({
        f"core.us_per_point.{name}": 1e6 * timer.core_s[name]
        / timer.core_points[name]
        for name in timer.core_points
    })
    return metrics


def suite_probe(trace_seed: int, configs) -> Dict[str, float]:
    """The model's cost per design point on every suite workload.

    One cold ``predict_batch`` over the whole grid per workload, each on
    a fresh model cache, with the profile's StatStack models built
    beforehand (that is profiler work).  This keeps the whole suite --
    including the workloads whose model time is dominated by branch
    resolution -- in the per-layer numbers.
    """
    from repro.core.interval import ModelCache
    from repro.core.model import AnalyticalModel

    metrics = {}
    with Session(workers=1) as session:
        for name in workload_names():
            profile = session.profile_workload(name, trace_seed=trace_seed)
            profile.statstack()
            profile.instruction_statstack()
            model = AnalyticalModel(cache=ModelCache())
            start = time.perf_counter()
            model.predict_batch(profile, configs)
            metrics[f"core.us_per_point.{name}"] = (
                1e6 * (time.perf_counter() - start) / len(configs))
    return metrics


SCENARIOS = {cls.name: cls for cls in (SweepStore, ServeMix, Validate)}
