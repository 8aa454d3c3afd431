"""Profile serialization: save/load ApplicationProfiles as JSON.

The paper's AIP tool persists profiles (protobuf) so the one-time
profiling cost is paid literally once -- later design-space studies load
the profile from disk.  This module provides the same workflow with JSON
(the offline-friendly substitute): ``save_profile`` / ``load_profile``
round-trip every statistic the model consumes.

It also provides the content-addressed :class:`ProfileStore` the sweep
engine and the session use: profiles are keyed by a SHA-256 fingerprint
of their canonical JSON form, a small params entry maps the parameters
that produced a profile (:func:`profile_params`) to that fingerprint, and
expensive derived state (the StatStack reuse -> stack distance tables)
is memoized on disk next to each profile.  A warm store therefore skips
trace generation, profiling and the table conversion entirely.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import logging
import os
from collections import Counter
from typing import Any, Dict, IO, Optional, Tuple, Union

from repro.faults import inject
from repro.faults.atomic import atomic_write
from repro.frontend.entropy import BranchEntropyProfile
from repro.profiler.dependences import ChainProfile, DependenceChains
from repro.profiler.memory import (
    ColdMissProfile,
    MicroTraceMemoryProfile,
    StaticLoadProfile,
)
from repro.profiler.mix import UopMix
from repro.profiler.profile import ApplicationProfile, MicroTraceProfile
from repro.profiler.sampling import SamplingConfig
from repro.statstack.reuse import ReuseProfile
from repro.isa import UopKind

FORMAT_VERSION = 1

logger = logging.getLogger(__name__)


def _int_key_dict(mapping: Dict) -> Dict[str, Any]:
    return {str(key): value for key, value in mapping.items()}


def _parse_int_keys(mapping: Dict[str, Any]) -> Dict[int, Any]:
    return {int(key): value for key, value in mapping.items()}


def _mix_to_dict(mix: UopMix) -> Dict[str, Any]:
    return {
        "counts": {kind.name: count for kind, count in mix.counts.items()},
        "num_instructions": mix.num_instructions,
        "num_uops": mix.num_uops,
    }


def _mix_from_dict(data: Dict[str, Any]) -> UopMix:
    mix = UopMix()
    mix.counts = {
        UopKind[name]: count for name, count in data["counts"].items()
    }
    mix.num_instructions = data["num_instructions"]
    mix.num_uops = data["num_uops"]
    return mix


def _chains_to_dict(chains: DependenceChains) -> Dict[str, Any]:
    return {
        "ap": _int_key_dict(chains.ap.values),
        "abp": _int_key_dict(chains.abp.values),
        "cp": _int_key_dict(chains.cp.values),
        "grid": list(chains.grid),
    }


def _chains_from_dict(data: Dict[str, Any]) -> DependenceChains:
    chains = DependenceChains(grid=tuple(data["grid"]))
    chains.ap = ChainProfile(values=_parse_int_keys(data["ap"]))
    chains.abp = ChainProfile(values=_parse_int_keys(data["abp"]))
    chains.cp = ChainProfile(values=_parse_int_keys(data["cp"]))
    return chains


def _reuse_to_dict(profile: ReuseProfile) -> Dict[str, Any]:
    return {
        "histogram": _int_key_dict(profile.histogram),
        "load_histogram": _int_key_dict(profile.load_histogram),
        "store_histogram": _int_key_dict(profile.store_histogram),
        "cold_loads": profile.cold_loads,
        "cold_stores": profile.cold_stores,
        "load_accesses": profile.load_accesses,
        "store_accesses": profile.store_accesses,
        "sampled_accesses": profile.sampled_accesses,
        "line_size": profile.line_size,
    }


def _reuse_from_dict(data: Dict[str, Any]) -> ReuseProfile:
    return ReuseProfile(
        histogram=_parse_int_keys(data["histogram"]),
        load_histogram=_parse_int_keys(data["load_histogram"]),
        store_histogram=_parse_int_keys(data["store_histogram"]),
        cold_loads=data["cold_loads"],
        cold_stores=data["cold_stores"],
        load_accesses=data["load_accesses"],
        store_accesses=data["store_accesses"],
        sampled_accesses=data["sampled_accesses"],
        line_size=data["line_size"],
    )


def _cold_to_dict(cold: ColdMissProfile) -> Dict[str, Any]:
    return {
        "per_window": [
            [line, rob, value]
            for (line, rob), value in cold.per_window.items()
        ],
        "window_fraction": [
            [line, rob, value]
            for (line, rob), value in cold.window_fraction.items()
        ],
        "total": _int_key_dict(cold.total),
        "num_instructions": cold.num_instructions,
    }


def _cold_from_dict(data: Dict[str, Any]) -> ColdMissProfile:
    cold = ColdMissProfile(num_instructions=data["num_instructions"])
    cold.per_window = {
        (line, rob): value for line, rob, value in data["per_window"]
    }
    cold.window_fraction = {
        (line, rob): value for line, rob, value in data["window_fraction"]
    }
    cold.total = _parse_int_keys(data["total"])
    return cold


def _static_load_to_dict(load: StaticLoadProfile) -> Dict[str, Any]:
    return {
        "pc": load.pc,
        "first_position": load.first_position,
        "positions": load.positions,
        "strides": _int_key_dict(load.strides),
        "local_reuse": load.local_reuse,
        "dst": load.dst,
        "depth_sum": load.depth_sum,
    }


def _static_load_from_dict(data: Dict[str, Any]) -> StaticLoadProfile:
    load = StaticLoadProfile(
        pc=data["pc"],
        first_position=data["first_position"],
        dst=data["dst"],
        depth_sum=data["depth_sum"],
    )
    load.positions = list(data["positions"])
    load.strides = Counter(_parse_int_keys(data["strides"]))
    load.local_reuse = list(data["local_reuse"])
    return load


def _memory_to_dict(memory: MicroTraceMemoryProfile) -> Dict[str, Any]:
    return {
        "static_loads": {
            str(pc): _static_load_to_dict(load)
            for pc, load in memory.static_loads.items()
        },
        "load_dependence": _int_key_dict(memory.load_dependence),
        "load_positions": memory.load_positions,
        "store_positions": memory.store_positions,
        "length": memory.length,
    }


def _memory_from_dict(data: Dict[str, Any]) -> MicroTraceMemoryProfile:
    memory = MicroTraceMemoryProfile(length=data["length"])
    memory.static_loads = {
        int(pc): _static_load_from_dict(load)
        for pc, load in data["static_loads"].items()
    }
    memory.load_dependence = Counter(
        _parse_int_keys(data["load_dependence"])
    )
    memory.load_positions = list(data["load_positions"])
    memory.store_positions = list(data["store_positions"])
    return memory


def _micro_to_dict(micro: MicroTraceProfile) -> Dict[str, Any]:
    return {
        "start": micro.start,
        "length": micro.length,
        "mix": _mix_to_dict(micro.mix),
        "chains": _chains_to_dict(micro.chains),
        "memory": _memory_to_dict(micro.memory),
        "load_reuse": _int_key_dict(micro.load_reuse),
        "store_reuse": _int_key_dict(micro.store_reuse),
        "cold_loads": micro.cold_loads,
        "cold_stores": micro.cold_stores,
        "load_reuse_by_pc": {
            str(pc): _int_key_dict(hist)
            for pc, hist in micro.load_reuse_by_pc.items()
        },
        "cold_by_pc": _int_key_dict(micro.cold_by_pc),
    }


def _micro_from_dict(data: Dict[str, Any]) -> MicroTraceProfile:
    return MicroTraceProfile(
        start=data["start"],
        length=data["length"],
        mix=_mix_from_dict(data["mix"]),
        chains=_chains_from_dict(data["chains"]),
        memory=_memory_from_dict(data["memory"]),
        load_reuse=_parse_int_keys(data["load_reuse"]),
        store_reuse=_parse_int_keys(data["store_reuse"]),
        cold_loads=data["cold_loads"],
        cold_stores=data["cold_stores"],
        load_reuse_by_pc={
            int(pc): _parse_int_keys(hist)
            for pc, hist in data["load_reuse_by_pc"].items()
        },
        cold_by_pc=_parse_int_keys(data["cold_by_pc"]),
    )


def profile_to_dict(profile: ApplicationProfile) -> Dict[str, Any]:
    """Serialize an application profile to JSON-compatible structures."""
    return {
        "format_version": FORMAT_VERSION,
        "name": profile.name,
        "num_instructions": profile.num_instructions,
        "sampling": {
            "micro_trace_length": profile.sampling.micro_trace_length,
            "window_length": profile.sampling.window_length,
            "reuse_sample_rate": profile.sampling.reuse_sample_rate,
            "reuse_seed": profile.sampling.reuse_seed,
        },
        "mix": _mix_to_dict(profile.mix),
        "chains": _chains_to_dict(profile.chains),
        "branch_entropy": {
            "entropy": _int_key_dict(profile.branch_entropy.entropy),
            "num_branches": profile.branch_entropy.num_branches,
        },
        "reuse": _reuse_to_dict(profile.reuse),
        "instruction_reuse": _reuse_to_dict(profile.instruction_reuse),
        "cold": _cold_to_dict(profile.cold),
        "micro_traces": [
            _micro_to_dict(micro) for micro in profile.micro_traces
        ],
    }


def profile_from_dict(data: Dict[str, Any]) -> ApplicationProfile:
    """Reconstruct an application profile from its serialized form."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format version {version!r}"
        )
    entropy = BranchEntropyProfile(
        entropy=_parse_int_keys(data["branch_entropy"]["entropy"]),
        num_branches=data["branch_entropy"]["num_branches"],
    )
    return ApplicationProfile(
        name=data["name"],
        num_instructions=data["num_instructions"],
        sampling=SamplingConfig(
            micro_trace_length=data["sampling"]["micro_trace_length"],
            window_length=data["sampling"]["window_length"],
            reuse_sample_rate=data["sampling"].get(
                "reuse_sample_rate", 1.0
            ),
            reuse_seed=data["sampling"].get("reuse_seed", 0),
        ),
        mix=_mix_from_dict(data["mix"]),
        chains=_chains_from_dict(data["chains"]),
        branch_entropy=entropy,
        reuse=_reuse_from_dict(data["reuse"]),
        instruction_reuse=_reuse_from_dict(data["instruction_reuse"]),
        cold=_cold_from_dict(data["cold"]),
        micro_traces=[
            _micro_from_dict(micro) for micro in data["micro_traces"]
        ],
    )


def save_profile(profile: ApplicationProfile,
                 file: Union[str, IO[str]]) -> None:
    """Write a profile to a JSON file (path or open handle)."""
    data = profile_to_dict(profile)
    if isinstance(file, str):
        with open(file, "w") as handle:
            json.dump(data, handle)
    else:
        json.dump(data, file)


def load_profile(file: Union[str, IO[str]]) -> ApplicationProfile:
    """Read a profile back from a JSON file (path or open handle)."""
    if isinstance(file, str):
        with open(file) as handle:
            data = json.load(handle)
    else:
        data = json.load(file)
    return profile_from_dict(data)


# ----------------------------------------------------------------------
# Content-addressed profile store
# ----------------------------------------------------------------------


def canonical_fingerprint(data: Any) -> str:
    """SHA-256 over the canonical JSON form of ``data``.

    The canonical form sorts keys and strips whitespace, so two
    structures with identical content hash identically regardless of
    construction order.  This is the one content-addressing primitive
    shared by every on-disk store in the project: the
    :class:`ProfileStore` here, and the experiment-level
    :class:`~repro.api.runstore.RunStore` /
    :class:`~repro.api.spec.ExperimentSpec` fingerprints.

    Parameters
    ----------
    data:
        Any JSON-serializable structure.

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def profile_fingerprint(profile: ApplicationProfile) -> str:
    """Content hash of a profile (SHA-256 over its canonical JSON form).

    Two profiles with identical statistics hash identically regardless of
    in-memory object identity, which makes the hash a safe cache key: any
    change to the profiled data (or to the serialization format) changes
    the key and invalidates stale cache entries automatically.

    Parameters
    ----------
    profile:
        The profile to fingerprint.

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    return canonical_fingerprint(profile_to_dict(profile))


#: Modules whose code decides a profile's bytes: trace generation, the
#: profiler passes, the ISA's uop cracking and branch entropy.  Their
#: source digest is part of every :func:`profile_params` key, so a code
#: change can never serve a stale stored profile.
PROFILE_SOURCE_MODULES = (
    "repro.isa",
    "repro.workloads.columns",
    "repro.workloads.generator",
    "repro.workloads.trace",
    "repro.frontend.entropy",
    "repro.frontend.predictors",
    "repro.statstack.reuse",
    "repro.profiler.dependences",
    "repro.profiler.memory",
    "repro.profiler.mix",
    "repro.profiler.profile",
    "repro.profiler.sampling",
    "repro.profiler.serialization",
)


@functools.lru_cache(maxsize=None)
def profile_source_digest() -> str:
    """SHA-256 over the source of :data:`PROFILE_SOURCE_MODULES`.

    Computed once per process (the modules cannot change under a
    running interpreter).

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    digest = hashlib.sha256()
    for name in PROFILE_SOURCE_MODULES:
        with open(importlib.import_module(name).__file__, "rb") as handle:
            source = handle.read()
        digest.update(f"{name}:{len(source)}:".encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()


def profile_params(name: str, instructions: int, trace_seed: int,
                   sampling: SamplingConfig) -> Dict[str, Any]:
    """Everything that determines a suite workload profile's bytes.

    The :class:`ProfileStore` keys complete profiles by
    :func:`canonical_fingerprint` of this structure: the workload's full
    generator spec (so an edit to the suite misses), the instruction
    budget, every :class:`SamplingConfig` field, the serialization
    :data:`FORMAT_VERSION` and :func:`profile_source_digest`.

    Parameters
    ----------
    name:
        Suite workload name.
    instructions:
        Trace length in instructions.
    trace_seed:
        The workload generator's seed.
    sampling:
        The profiler's sampling parameters.

    Returns
    -------
    dict
        A JSON-serializable parameter record.
    """
    from repro.workloads import make_workload

    return {
        "workload": dataclasses.asdict(make_workload(name, seed=trace_seed)),
        "instructions": instructions,
        "sampling": {
            "micro_trace_length": sampling.micro_trace_length,
            "window_length": sampling.window_length,
            "reuse_sample_rate": sampling.reuse_sample_rate,
            "reuse_seed": sampling.reuse_seed,
        },
        "format_version": FORMAT_VERSION,
        "source": profile_source_digest(),
    }


def _is_digest(value: Any) -> bool:
    """Whether ``value`` looks like a SHA-256 hex digest (a safe name)."""
    return (isinstance(value, str) and len(value) == 64
            and all(c in "0123456789abcdef" for c in value))


class ProfileStore:
    """On-disk, content-addressed store of profiles and derived state.

    Layout:

    * ``<root>/<fingerprint>.profile.json`` -- the profile itself, named
      by its content hash (:func:`profile_fingerprint`);
    * ``<root>/<fingerprint>.tables.json`` -- the memoized StatStack
      stack-distance tables (data and instruction streams);
    * ``<root>/<params_key>.params.json`` -- ``{"params": ...,
      "fingerprint": ...}``, pointing the key of the parameters that
      produced a profile (:func:`profile_params`) at its fingerprint.

    Storing by content hash means ``put`` is idempotent and a profile
    re-collected bit-identically hits the same cache entry; the params
    entries let a new process find a complete profile without
    generating a trace or profiling (:meth:`lookup` / :meth:`record`).

    Parameters
    ----------
    root:
        Directory for the store; created on first use.

    Accounting: :attr:`tables_hits` / :attr:`tables_misses` /
    :attr:`tables_corrupt` / :attr:`tables_quarantined`,
    :attr:`profiles_hits` / :attr:`profiles_misses` /
    :attr:`profiles_quarantined` and :attr:`profiles_stored` count
    store traffic unconditionally (plain integer adds), and
    :meth:`flush_metrics` publishes the deltas since the previous flush
    under ``profile_store.*`` metric names.  Corrupt entries -- a file
    that fails to parse, or a profile whose recomputed fingerprint
    differs from its file name -- additionally emit a ``logging``
    warning (logger ``repro.profiler.serialization``), are renamed to a
    ``.corrupt`` sidecar, and are then treated as misses.  All writes
    are atomic (temp file + rename), so a crash mid-write never leaves
    a half-written entry.
    """

    #: Counter attributes published by :meth:`flush_metrics`.
    COUNTERS = ("tables_hits", "tables_misses", "tables_corrupt",
                "tables_quarantined", "profiles_hits", "profiles_misses",
                "profiles_quarantined", "profiles_stored")

    def __init__(self, root: str) -> None:
        self.root = root
        #: Lifetime StatStack-table loads served from disk.
        self.tables_hits = 0
        #: Lifetime StatStack-table loads that had to recompute.
        self.tables_misses = 0
        #: Lifetime table files that existed but failed to parse.
        self.tables_corrupt = 0
        #: Lifetime corrupt table files moved to ``.corrupt`` sidecars.
        self.tables_quarantined = 0
        #: Lifetime :meth:`lookup` calls served a complete profile.
        self.profiles_hits = 0
        #: Lifetime :meth:`lookup` calls that found no usable entry.
        self.profiles_misses = 0
        #: Lifetime corrupt params/profile files moved to sidecars.
        self.profiles_quarantined = 0
        #: Lifetime profile writes that created a new store entry.
        self.profiles_stored = 0
        self._flushed = dict.fromkeys(self.COUNTERS, 0)
        # Lifetime write ordinal: part of the fault-injection key so a
        # recomputed entry draws a fresh corruption decision.
        self._writes = 0

    # -- paths ----------------------------------------------------------

    def profile_path(self, key: str) -> str:
        """Path of the stored profile JSON for ``key``."""
        return os.path.join(self.root, f"{key}.profile.json")

    def tables_path(self, key: str) -> str:
        """Path of the memoized StatStack tables for ``key``."""
        return os.path.join(self.root, f"{key}.tables.json")

    def params_path(self, params_key: str) -> str:
        """Path of the params entry for ``params_key``."""
        return os.path.join(self.root, f"{params_key}.params.json")

    # -- writes and quarantine ------------------------------------------

    def _write(self, path: str, kind: str, key: str, dump) -> None:
        """Atomically write ``path`` via ``dump(handle)``, then let the
        fault plan corrupt it (chaos runs exercise the read checks)."""
        self._writes += 1
        with atomic_write(path) as handle:
            dump(handle)
        inject.store_site(path, f"{kind}:{key}:{self._writes}")

    def _quarantine(self, path: str, what: str, reason: Any) -> bool:
        """Move a corrupt entry to its ``.corrupt`` sidecar and warn.

        Returns whether the rename succeeded; either way the caller
        treats the entry as a miss and recomputes.
        """
        try:
            os.replace(path, path + ".corrupt")
            moved = True
        except OSError:
            moved = False
        logger.warning("corrupt %s entry %s (%s); quarantined, "
                       "recomputing", what, path, reason)
        return moved

    # -- profiles -------------------------------------------------------

    def put(self, profile: ApplicationProfile) -> str:
        """Store a profile (idempotent) and return its fingerprint key."""
        key = profile_fingerprint(profile)
        path = self.profile_path(key)
        if not os.path.exists(path):
            self._write(path, "profile", key,
                        lambda handle: save_profile(profile, handle))
            self.profiles_stored += 1
        return key

    def get(self, key: str) -> ApplicationProfile:
        """Load a stored profile by key (raises ``FileNotFoundError``)."""
        return load_profile(self.profile_path(key))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.profile_path(key))

    def lookup(self, params: Dict[str, Any]
               ) -> Optional[Tuple[ApplicationProfile, str]]:
        """The stored complete profile for ``params``, verified, or ``None``.

        Reads the params entry, loads the profile it points at and
        recomputes that profile's fingerprint.  An entry that fails to
        parse, or a profile whose fingerprint differs from its file
        name, is quarantined and reported as a miss, so the caller
        rebuilds and :meth:`record` rewrites it cleanly.

        Parameters
        ----------
        params:
            The profiling parameters (:func:`profile_params`).

        Returns
        -------
        tuple of (ApplicationProfile, str) or None
            The profile and its fingerprint -- pass the fingerprint to
            :meth:`warm` so the profile is not hashed twice.
        """
        params_key = canonical_fingerprint(params)
        path = self.params_path(params_key)
        fingerprint = self._read_params(path, params_key)
        found = (self._read_profile(fingerprint)
                 if fingerprint is not None else None)
        if found is None:
            self.profiles_misses += 1
            return None
        self.profiles_hits += 1
        return found

    def _read_params(self, path: str, params_key: str) -> Optional[str]:
        """The fingerprint a params entry names (``None``: miss)."""
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                entry = json.load(handle)
            fingerprint = entry["fingerprint"]
            if (not _is_digest(fingerprint)
                    or canonical_fingerprint(entry["params"])
                    != params_key):
                raise ValueError("entry does not match its key")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.profiles_quarantined += self._quarantine(
                path, "profile params", exc)
            return None
        return fingerprint

    def _read_profile(self, fingerprint: str
                      ) -> Optional[Tuple[ApplicationProfile, str]]:
        """The verified stored profile ``fingerprint`` (``None``: miss)."""
        path = self.profile_path(fingerprint)
        if not os.path.exists(path):
            return None
        try:
            profile = load_profile(path)
            if profile_fingerprint(profile) != fingerprint:
                raise ValueError("content does not match its fingerprint")
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            self.profiles_quarantined += self._quarantine(
                path, "profile", exc)
            return None
        return profile, fingerprint

    def record(self, params: Dict[str, Any],
               profile: ApplicationProfile) -> str:
        """Store ``profile`` as the result of ``params`` (idempotent).

        Writes the profile (:meth:`put`) and, when absent, the params
        entry pointing at it.

        Parameters
        ----------
        params:
            The profiling parameters (:func:`profile_params`).
        profile:
            The profile they produced.

        Returns
        -------
        str
            The profile's fingerprint key.
        """
        key = self.put(profile)
        params_key = canonical_fingerprint(params)
        path = self.params_path(params_key)
        if not os.path.exists(path):
            entry = {"params": params, "fingerprint": key}
            self._write(path, "params", params_key,
                        lambda handle: json.dump(entry, handle))
        return key

    # -- derived state --------------------------------------------------

    def load_tables(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached StatStack tables for ``key``, or ``None``.

        A table file that exists but cannot be read or parsed counts
        as :attr:`tables_corrupt`, logs a warning, and is quarantined
        to a ``.corrupt`` sidecar so it stops shadowing the slot (the
        caller recomputes and the rewrite lands cleanly); a genuinely
        absent file is a silent plain miss.
        """
        path = self.tables_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            self.tables_corrupt += 1
            self.tables_quarantined += self._quarantine(
                path, "StatStack table", exc)
            return None

    def save_tables(self, key: str, tables: Dict[str, Any]) -> None:
        """Persist StatStack tables for ``key`` (overwrites, atomic)."""
        self._write(self.tables_path(key), "tables", key,
                    lambda handle: json.dump(tables, handle))

    def warm(self, profile: ApplicationProfile,
             key: Optional[str] = None) -> str:
        """Attach cached StatStack models to ``profile`` (or build+cache).

        On a cache hit the profile's data- and instruction-stream
        StatStack models are rebuilt from the stored tables, skipping the
        reuse -> stack distance conversion; on a miss they are computed
        once and the tables persisted for the next run.  Either way the
        profile ends up with both models materialized in memory.

        Parameters
        ----------
        profile:
            The profile to warm.
        key:
            Its fingerprint when already known (from :meth:`lookup` or
            :meth:`record`); the profile is then assumed stored and is
            not hashed again.  ``None`` stores it via :meth:`put`.

        Returns
        -------
        str
            The profile's fingerprint key.
        """
        from repro.statstack.model import StatStack

        if key is None:
            key = self.put(profile)
        cached = self.load_tables(key)
        if cached is not None:
            self.tables_hits += 1
            profile._statstack = StatStack.from_tables(
                profile.reuse, cached.get("data", {})
            )
            profile._instruction_statstack = StatStack.from_tables(
                profile.instruction_reuse, cached.get("instruction", {})
            )
        else:
            self.tables_misses += 1
            self.save_tables(key, {
                "data": profile.statstack().export_tables(),
                "instruction":
                    profile.instruction_statstack().export_tables(),
            })
        return key

    def flush_metrics(self, metrics) -> None:
        """Publish store counters accumulated since the last flush.

        Increments ``profile_store.<counter>`` on ``metrics`` for every
        name in :attr:`COUNTERS` (``tables_hits``, ``tables_misses``,
        ``tables_corrupt``, ``tables_quarantined``, ``profiles_hits``,
        ``profiles_misses``, ``profiles_quarantined``,
        ``profiles_stored``) by the delta since the previous flush
        (repeated flushing never double-counts).  Flushing into a
        disabled registry is a no-op that keeps the deltas pending.
        """
        if not metrics.enabled:
            return
        for attr in self.COUNTERS:
            value = getattr(self, attr)
            delta = value - self._flushed[attr]
            if delta:
                metrics.inc(f"profile_store.{attr}", delta)
                self._flushed[attr] = value
