"""Tests for the persistent result store and engine-level caching."""

from __future__ import annotations

import json

import numpy as np

from repro.engine import Engine, ResultStore, TrialSpec, jsonify
from repro.experiments.runner import measure_flooding_sweep
from repro.meg.edge_meg import EdgeMEG
from repro.telemetry import core as telemetry


def make_sweep_model(num_nodes: int) -> EdgeMEG:
    """Module-level sweep factory with a stable cache identity."""
    return EdgeMEG(num_nodes, p=0.1, q=0.3)


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        payload = jsonify(
            {
                "i": np.int64(3),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "a": np.arange(3),
                "nested": [np.int32(1), (np.float32(2.0),)],
            }
        )
        assert json.dumps(payload)  # round-trips through the json module
        assert payload["i"] == 3 and payload["a"] == [0, 1, 2]

    def test_compute_key_ignores_dict_order(self):
        a = ResultStore.compute_key({"x": 1, "y": [2, 3]})
        b = ResultStore.compute_key({"y": [2, 3], "x": 1})
        assert a == b

    def test_compute_key_sensitive_to_values(self):
        assert ResultStore.compute_key({"x": 1}) != ResultStore.compute_key({"x": 2})


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "test"})
        assert store.get(key) is None
        assert key not in store
        store.put(key, {"flooding_times": [1, 2, 3]})
        assert key in store
        assert len(store) == 1
        assert store.get(key) == {"flooding_times": [1, 2, 3]}

    def test_persistence_across_instances(self, tmp_path):
        key = ResultStore.compute_key({"model": "persist"})
        ResultStore(tmp_path).put(key, {"value": 42})
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(key) == {"value": 42}
        assert list(reloaded.keys()) == [key]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "ok"})
        store.put(key, {"value": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-append\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(key) == {"value": 1}
        assert len(reloaded) == 1

    def test_put_after_torn_tail_starts_a_new_line(self, tmp_path):
        # A crash mid-append leaves a last line with no newline; the next
        # put must not be glued onto it, or it is lost on reload.
        store = ResultStore(tmp_path)
        key_a = ResultStore.compute_key({"model": "a"})
        key_c = ResultStore.compute_key({"model": "c"})
        store.put(key_a, {"value": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "record": {"val')
        instance = telemetry.activate(telemetry.Telemetry(process="store-test"))
        try:
            ResultStore(tmp_path).put(key_c, {"value": 3})
            ResultStore(tmp_path).put(key_a, {"value": 2})  # tail now intact
            counters = instance.metrics_snapshot()["counters"]
        finally:
            telemetry.deactivate(instance)
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(key_c) == {"value": 3}
        assert reloaded.get(key_a) == {"value": 2}
        assert len(reloaded) == 2
        assert counters["store.torn_tail_repaired"] == 1

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        key = ResultStore.compute_key({"model": "dup"})
        store.put(key, {"value": 1})
        store.put(key, {"value": 2})
        assert ResultStore(tmp_path).get(key) == {"value": 2}
        # Both records remain in the append-only file.
        with open(store.path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2

    def test_index_built_lazily_on_first_lookup(self, tmp_path):
        key = ResultStore.compute_key({"model": "lazy"})
        ResultStore(tmp_path).put(key, {"value": 1})
        store = ResultStore(tmp_path)
        # Construction does not scan the file; the first lookup does, once.
        assert store._index is None
        assert store.get(key) == {"value": 1}
        assert store._index is not None

    def test_compact_drops_superseded_and_corrupt_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a = ResultStore.compute_key({"model": "a"})
        key_b = ResultStore.compute_key({"model": "b"})
        store.put(key_a, {"value": 1})
        store.put(key_a, {"value": 2})  # supersedes the first write
        store.put(key_b, {"value": 3})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-append\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.compact() == 2  # one duplicate + one corrupt line
        with open(reloaded.path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2
        fresh = ResultStore(tmp_path)
        assert fresh.get(key_a) == {"value": 2}
        assert fresh.get(key_b) == {"value": 3}

    def test_compact_idempotent_and_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.compact() == 0
        key = ResultStore.compute_key({"model": "one"})
        store.put(key, {"value": 1})
        assert store.compact() == 0
        assert ResultStore(tmp_path).get(key) == {"value": 1}


class TestEngineCaching:
    def test_cache_hit_returns_identical_samples(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(store=store)
        spec = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=5, seed=2)
        first = engine.run(spec)
        second = engine.run(spec)
        assert not first.from_cache
        assert second.from_cache
        assert first.flooding_times == second.flooding_times
        assert len(store) == 1

    def test_cache_miss_on_different_seed(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        model = EdgeMEG(20, p=0.1, q=0.3)
        engine.run(TrialSpec.from_model(model, num_trials=5, seed=2))
        other = engine.run(TrialSpec.from_model(model, num_trials=5, seed=3))
        assert not other.from_cache

    def test_cache_miss_on_different_model_parameters(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        engine.run(TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=5, seed=2))
        other = engine.run(
            TrialSpec.from_model(EdgeMEG(20, p=0.2, q=0.3), num_trials=5, seed=2)
        )
        assert not other.from_cache
        assert len(engine.store) == 2

    def test_cache_shared_across_engine_instances(self, tmp_path):
        spec_args = dict(num_trials=5, seed=2)
        first = Engine(store=ResultStore(tmp_path)).run(
            TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), **spec_args)
        )
        second = Engine(store=ResultStore(tmp_path)).run(
            TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), **spec_args)
        )
        assert second.from_cache
        assert second.flooding_times == first.flooding_times

    def test_no_store_never_caches(self):
        engine = Engine()
        spec = TrialSpec.from_model(EdgeMEG(20, p=0.1, q=0.3), num_trials=3, seed=0)
        assert not engine.run(spec).from_cache
        assert not engine.run(spec).from_cache


class TestSweepCaching:
    def test_sweep_served_from_cache_on_rerun(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        first = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        second = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        assert [m.from_cache for m in first] == [False, False]
        assert [m.from_cache for m in second] == [True, True]
        assert [m.samples for m in first] == [m.samples for m in second]
        assert len(engine.store) == 2

    def test_sweep_point_values_keyed_independently(self, tmp_path):
        engine = Engine(store=ResultStore(tmp_path))
        measure_flooding_sweep(make_sweep_model, [12], num_trials=3, rng=7, engine=engine)
        extended = measure_flooding_sweep(
            make_sweep_model, [12, 16], num_trials=3, rng=7, engine=engine
        )
        # The first point is re-served from cache, the new point is computed.
        assert extended[0].from_cache
        assert not extended[1].from_cache
