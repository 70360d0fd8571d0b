"""Tests for snapshot recording/replay and chunked source batches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import flood, flood_sources_set
from repro.engine import (
    Engine,
    SnapshotReplay,
    TrialSpec,
    flood_sources_batch,
    flood_sparse,
    flood_vectorized,
)
from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.markov.builders import random_walk_on_graph
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.random_path import GraphRandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypoint


def _family_model(family: str):
    if family == "edge-meg":
        return EdgeMEG(24, p=0.12, q=0.4)
    if family == "node-meg":
        chain = random_walk_on_graph(grid_graph(3)).lazy(0.2)
        return NodeMEG(
            20,
            chain,
            lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
        )
    if family == "grid":
        return GraphRandomWalkMobility(18, augmented_grid_graph(4, 2), radius_hops=1)
    return RandomWaypoint(18, side=4.0, radius=1.2, v_min=1.0)


FAMILIES = ["edge-meg", "node-meg", "grid", "mobility"]


class TestSnapshotReplay:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_flood_over_replay_matches_model(self, family):
        model = _family_model(family)
        direct = flood(model, rng=3)
        replay = SnapshotReplay(_family_model(family))
        via_replay = flood(replay, rng=3)
        assert via_replay == direct

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rewind_reproduces_first_pass(self, family):
        replay = SnapshotReplay(_family_model(family))
        first = flood_vectorized(replay, source=0, rng=5)
        replay.rewind()
        second = flood_vectorized(replay, source=0, reset=False)
        assert second == first

    def test_all_kernels_agree_on_replay(self):
        replay = SnapshotReplay(EdgeMEG(24, p=0.12, q=0.4))
        reference = flood(replay, rng=2)
        for kernel in (flood_vectorized, flood_sparse):
            replay.rewind()
            assert kernel(replay, reset=False) == reference

    def test_replay_does_not_restep_the_model(self):
        class CountingEdgeMEG(EdgeMEG):
            steps = 0

            def step(self):
                CountingEdgeMEG.steps += 1
                super().step()

        replay = SnapshotReplay(CountingEdgeMEG(24, p=0.12, q=0.4))
        flood_vectorized(replay, rng=1)
        stepped = CountingEdgeMEG.steps
        replay.rewind()
        flood_vectorized(replay, reset=False)
        assert CountingEdgeMEG.steps == stepped

    def test_reset_starts_a_fresh_recording(self):
        replay = SnapshotReplay(EdgeMEG(24, p=0.12, q=0.4))
        first = flood_vectorized(replay, rng=1)
        assert replay.recorded_steps > 1
        second = flood_vectorized(replay, rng=9)
        direct = flood_vectorized(EdgeMEG(24, p=0.12, q=0.4), rng=9)
        assert second == direct
        assert first == flood_vectorized(EdgeMEG(24, p=0.12, q=0.4), rng=1)

    def test_neighbors_of_set_matches_model(self):
        model = EdgeMEG(20, p=0.2, q=0.4)
        model.reset(4)
        replay = SnapshotReplay(model)
        for nodes in ({0}, {1, 5, 7}, set(range(20))):
            assert replay.neighbors_of_set(nodes) == model.neighbors_of_set(nodes)
        assert replay.neighbors_of_set(set()) == set()

    def test_requires_dynamic_graph(self):
        with pytest.raises(TypeError):
            SnapshotReplay("not a model")

    def test_cache_token_delegates(self):
        model = EdgeMEG(20, p=0.2, q=0.4)
        assert SnapshotReplay(model).cache_token() == model.cache_token()


class TestChunkedSourceBatches:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("chunk_size", [1, 3, 7])
    def test_chunked_equals_unchunked(self, family, chunk_size):
        sources = list(range(_family_model(family).num_nodes))
        plain = flood_sources_batch(_family_model(family), sources, rng=3)
        chunked = flood_sources_batch(
            _family_model(family), sources, rng=3, chunk_size=chunk_size
        )
        assert chunked == plain

    def test_chunked_matches_set_reference(self):
        sources = list(range(24))
        via_set = flood_sources_set(EdgeMEG(24, p=0.12, q=0.4), sources, rng=6)
        chunked = flood_sources_batch(
            EdgeMEG(24, p=0.12, q=0.4), sources, rng=6, chunk_size=5
        )
        assert chunked == via_set

    def test_chunk_larger_than_batch_is_single_pass(self):
        sources = [0, 1, 2]
        plain = flood_sources_batch(EdgeMEG(20, p=0.2, q=0.4), sources, rng=1)
        chunked = flood_sources_batch(
            EdgeMEG(20, p=0.2, q=0.4), sources, rng=1, chunk_size=10
        )
        assert chunked == plain

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            flood_sources_batch(EdgeMEG(20, p=0.2, q=0.4), [0, 1], rng=0, chunk_size=0)

    def test_chunked_mid_playback_replay_keeps_window(self):
        # A replay handed over mid-playback (reset=False, cursor > 0) must
        # flood every chunk from the *current* position, not from frame 0.
        def advanced_replay() -> SnapshotReplay:
            replay = SnapshotReplay(EdgeMEG(20, p=0.2, q=0.4))
            replay.reset(9)
            replay.run(3)
            return replay

        sources = list(range(20))
        plain = flood_sources_batch(advanced_replay(), sources, reset=False)
        chunked = flood_sources_batch(
            advanced_replay(), sources, reset=False, chunk_size=6
        )
        assert chunked == plain

    def test_rewind_validates_target_frame(self):
        replay = SnapshotReplay(EdgeMEG(20, p=0.2, q=0.4))
        replay.reset(1)
        replay.run(2)
        assert replay.cursor == 2
        replay.rewind(1)
        assert replay.cursor == 1
        with pytest.raises(ValueError):
            replay.rewind(5)
        with pytest.raises(ValueError):
            replay.rewind(-1)

    def test_sparse_backend_chunked(self):
        sources = list(range(20))
        plain = flood_sources_batch(
            EdgeMEG(20, p=0.2, q=0.4), sources, rng=2, backend="sparse"
        )
        chunked = flood_sources_batch(
            EdgeMEG(20, p=0.2, q=0.4), sources, rng=2, backend="sparse", chunk_size=6
        )
        assert chunked == plain


class TestEngineSourceChunk:
    def _spec(self, **kwargs) -> TrialSpec:
        return TrialSpec.from_model(
            EdgeMEG(24, p=0.12, q=0.4), num_trials=3, seed=8, **kwargs
        )

    def test_source_chunk_keeps_samples_identical(self):
        spec = self._spec(sources="all")
        plain = Engine().run(spec).flooding_times
        chunked = Engine(source_chunk=5).run(spec).flooding_times
        assert chunked == plain

    def test_source_chunk_with_sampled_sources(self):
        spec = self._spec(num_sources=8)
        plain = Engine().run(spec).flooding_times
        chunked = Engine(source_chunk=3).run(spec).flooding_times
        assert chunked == plain

    def test_source_chunk_with_workers(self):
        spec = self._spec(sources="all")
        serial = Engine(source_chunk=5).run(spec).flooding_times
        parallel = Engine(source_chunk=5, workers=2).run(spec).flooding_times
        assert parallel == serial

    def test_invalid_source_chunk_rejected(self):
        with pytest.raises(ValueError):
            Engine(source_chunk=0)

    def test_cache_key_unchanged_by_source_chunk(self, tmp_path):
        from repro.engine import ResultStore

        spec = self._spec(sources="all")
        store = ResultStore(tmp_path)
        first = Engine(store=store).run(spec)
        second = Engine(store=store, source_chunk=4).run(spec)
        assert not first.from_cache
        assert second.from_cache
        assert second.flooding_times == first.flooding_times


def test_replay_reach_mask_matches_adjacency():
    model = EdgeMEG(16, p=0.3, q=0.3)
    model.reset(1)
    replay = SnapshotReplay(model)
    informed = np.zeros(16, dtype=bool)
    informed[[0, 3, 9]] = True
    expected = model.adjacency_matrix()[informed].any(axis=0)
    assert np.array_equal(replay.reach_mask(informed), expected)
