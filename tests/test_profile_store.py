"""Whole-profile caching in the ProfileStore.

A warm store hands a new :class:`~repro.api.session.Session` complete
profiles keyed by the parameters that produced them, so warm runs never
generate a trace or profile.  These tests pin that the stored profile
is bitwise the freshly built one, that warm and cold runs give the same
result documents, that every key component invalidates, that corrupt
entries are quarantined and rebuilt, and that a loaded profile is
hashed exactly once.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, Session
from repro.profiler import SamplingConfig, profile_application
from repro.profiler import serialization
from repro.profiler.serialization import (
    ProfileStore,
    canonical_fingerprint,
    profile_params,
)
from repro.workloads import generate_trace, make_workload, workload_names
from tests.equivalence import assert_profiles_bitwise

INSTRUCTIONS = 4000
SAMPLING = SamplingConfig(500, 2000)
SWEEP = ExperimentSpec("sweep", workloads=["gcc", "mcf"], limit=12,
                       instructions=INSTRUCTIONS, micro_trace=500,
                       window=2000)


def _fresh(name, instructions, trace_seed, sampling):
    trace = generate_trace(make_workload(name, seed=trace_seed),
                           max_instructions=instructions)
    return profile_application(trace, sampling)


def _document(result):
    return result.to_dict(include_telemetry=False)


def _refuse_trace(*args, **kwargs):
    raise AssertionError("warm path generated a trace")


@pytest.fixture(scope="module")
def gcc_entry():
    """A small gcc profile and its profiling parameters."""
    params = profile_params("gcc", INSTRUCTIONS, 42, SAMPLING)
    return params, _fresh("gcc", INSTRUCTIONS, 42, SAMPLING)


class TestStoreLoadedEqualsFresh:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(workload_names()),
        trace_seed=st.integers(0, 1000),
        instructions=st.integers(1500, 5000),
        micro_trace=st.integers(100, 600),
        stretch=st.integers(1, 4),
        reuse_sample_rate=st.sampled_from([1.0, 0.5, 0.25]),
        reuse_seed=st.integers(0, 5),
    )
    def test_loaded_profile_is_bitwise_fresh(
            self, name, trace_seed, instructions, micro_trace, stretch,
            reuse_sample_rate, reuse_seed):
        kwargs = dict(instructions=instructions, micro_trace=micro_trace,
                      window=micro_trace * stretch, trace_seed=trace_seed,
                      reuse_sample_rate=reuse_sample_rate,
                      reuse_seed=reuse_seed)
        sampling = SamplingConfig(micro_trace, micro_trace * stretch,
                                  reuse_sample_rate=reuse_sample_rate,
                                  reuse_seed=reuse_seed)
        with tempfile.TemporaryDirectory() as root:
            with Session(profile_store=root) as cold:
                cold.profile_workload(name, **kwargs)
            with Session(profile_store=root) as warm:
                loaded = warm.profile_workload(name, **kwargs)
                assert warm._traces == {}
                assert warm.profile_store.profiles_hits == 1
        assert_profiles_bitwise(
            loaded, _fresh(name, instructions, trace_seed, sampling))


class TestWarmSweep:
    def test_cold_and_warm_sweeps_are_identical(self, tmp_path):
        root = str(tmp_path / "store")
        with Session() as plain:
            reference = _document(plain.run(SWEEP))
        with Session(profile_store=root) as cold:
            assert _document(cold.run(SWEEP)) == reference
            assert cold.profile_store.profiles_misses == 2
        with Session(workers=2, profile_store=root) as warm:
            assert _document(warm.run(SWEEP)) == reference
            assert warm.profile_store.profiles_hits == 2
            assert warm.profile_store.tables_hits == 2

    def test_warm_path_never_generates_a_trace(self, tmp_path,
                                               monkeypatch):
        root = str(tmp_path / "store")
        with Session(profile_store=root) as cold:
            reference = _document(cold.run(SWEEP))
        monkeypatch.setattr("repro.workloads.generate_trace",
                            _refuse_trace)
        with Session(profile_store=root) as warm:
            assert _document(warm.run(SWEEP)) == reference
            assert warm._traces == {}

    def test_loaded_profile_is_hashed_once(self, tmp_path, monkeypatch):
        root = str(tmp_path / "store")
        with Session(profile_store=root) as cold:
            cold.run(SWEEP)
        calls = []
        real = serialization.profile_fingerprint

        def counting(profile):
            calls.append(profile.name)
            return real(profile)

        monkeypatch.setattr(serialization, "profile_fingerprint",
                            counting)
        with Session(profile_store=root) as warm:
            warm.run(SWEEP)
        assert sorted(calls) == ["gcc", "mcf"]


class TestKeyComponents:
    @pytest.mark.parametrize("change", [
        {"name": "mcf"},
        {"trace_seed": 43},
        {"instructions": INSTRUCTIONS + 1},
        {"micro_trace": 501},
        {"window": 2001},
        {"reuse_sample_rate": 0.5},
        {"reuse_seed": 1},
    ])
    def test_changing_one_parameter_misses(self, tmp_path, gcc_entry,
                                           change):
        params, profile = gcc_entry
        store = ProfileStore(str(tmp_path))
        store.record(params, profile)
        args = {"name": "gcc", "trace_seed": 42,
                "instructions": INSTRUCTIONS, "micro_trace": 500,
                "window": 2000, "reuse_sample_rate": 1.0,
                "reuse_seed": 0}
        args.update(change)
        other = profile_params(
            args["name"], args["instructions"], args["trace_seed"],
            SamplingConfig(args["micro_trace"], args["window"],
                           reuse_sample_rate=args["reuse_sample_rate"],
                           reuse_seed=args["reuse_seed"]))
        assert store.lookup(other) is None
        assert store.lookup(params) is not None

    def test_format_version_is_part_of_the_key(self, tmp_path, gcc_entry,
                                               monkeypatch):
        params, profile = gcc_entry
        store = ProfileStore(str(tmp_path))
        store.record(params, profile)
        monkeypatch.setattr(serialization, "FORMAT_VERSION", 2)
        assert store.lookup(
            profile_params("gcc", INSTRUCTIONS, 42, SAMPLING)) is None

    def test_source_digest_is_part_of_the_key(self, tmp_path, gcc_entry,
                                              monkeypatch):
        params, profile = gcc_entry
        store = ProfileStore(str(tmp_path))
        store.record(params, profile)
        monkeypatch.setattr(serialization, "profile_source_digest",
                            lambda: "0" * 64)
        assert store.lookup(
            profile_params("gcc", INSTRUCTIONS, 42, SAMPLING)) is None

    def test_workload_spec_edit_misses(self, tmp_path, gcc_entry,
                                       monkeypatch):
        from repro.workloads import suite

        params, profile = gcc_entry
        store = ProfileStore(str(tmp_path))
        store.record(params, profile)
        factory = suite.SUITE["gcc"]

        def edited(seed):
            spec = factory(seed)
            spec.rounds += 1
            return spec

        monkeypatch.setitem(suite.SUITE, "gcc", edited)
        assert store.lookup(
            profile_params("gcc", INSTRUCTIONS, 42, SAMPLING)) is None

    def test_source_digest_covers_the_profile_producers(self):
        modules = serialization.PROFILE_SOURCE_MODULES
        for name in ("repro.isa", "repro.workloads.generator",
                     "repro.profiler.profile", "repro.frontend.entropy"):
            assert name in modules
        assert len(serialization.profile_source_digest()) == 64


class TestCorruptEntries:
    def _stored(self, tmp_path, gcc_entry):
        params, profile = gcc_entry
        store = ProfileStore(str(tmp_path))
        key = store.record(params, profile)
        return store, params, key

    def _assert_quarantined(self, store, params, path):
        assert store.lookup(params) is None
        assert store.profiles_quarantined == 1
        assert store.profiles_misses == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_unparseable_params_entry(self, tmp_path, gcc_entry):
        store, params, _ = self._stored(tmp_path, gcc_entry)
        path = store.params_path(canonical_fingerprint(params))
        with open(path, "w") as handle:
            handle.write("{broken")
        self._assert_quarantined(store, params, path)

    def test_params_entry_with_unsafe_fingerprint(self, tmp_path,
                                                  gcc_entry):
        store, params, _ = self._stored(tmp_path, gcc_entry)
        path = store.params_path(canonical_fingerprint(params))
        with open(path, "w") as handle:
            json.dump({"params": params, "fingerprint": "../x"}, handle)
        self._assert_quarantined(store, params, path)

    def test_unparseable_profile(self, tmp_path, gcc_entry):
        store, params, key = self._stored(tmp_path, gcc_entry)
        path = store.profile_path(key)
        with open(path, "w") as handle:
            handle.write("{broken")
        self._assert_quarantined(store, params, path)

    def test_profile_whose_content_does_not_match_its_name(
            self, tmp_path, gcc_entry):
        store, params, key = self._stored(tmp_path, gcc_entry)
        path = store.profile_path(key)
        with open(path) as handle:
            data = json.load(handle)
        data["num_instructions"] += 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        self._assert_quarantined(store, params, path)

    def test_session_rebuilds_and_heals(self, tmp_path):
        root = str(tmp_path / "store")
        with Session(profile_store=root) as cold:
            reference = _document(cold.run(SWEEP))
        for name in os.listdir(root):
            if name.endswith(".params.json"):
                with open(os.path.join(root, name), "w") as handle:
                    handle.write("{broken")
        with Session(profile_store=root) as healing:
            assert _document(healing.run(SWEEP)) == reference
            assert healing.profile_store.profiles_quarantined == 2
        with Session(profile_store=root) as warm:
            assert _document(warm.run(SWEEP)) == reference
            assert warm.profile_store.profiles_hits == 2
