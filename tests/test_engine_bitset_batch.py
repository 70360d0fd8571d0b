"""Bit-packed and realization-batched kernels: exactness on every family.

PR 7's kernels only exist for speed, so the entire test surface is equality:
the bitset kernel, the realization-batch kernel and the sparse kernel must
return bit-identical flooding outcomes to the set-based loop on shared seeds
for every model family, and the cell-list neighbor search
must return exactly the k-d tree's edge set.  The file also pins the two RNG
stream identities the fast node-MEG runner is built on (block pre-drawing
and the inverse-CDF mirror of ``Generator.choice``), and the new
``backend="auto"`` resolution rules.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.flooding import flood, flood_sources_set
from repro.engine import (
    BACKENDS,
    BATCH_AUTO_MAX_NODES,
    BATCH_AUTO_MIN_TRIALS,
    BITSET_AUTO_MIN_NODES,
    Engine,
    TrialSpec,
    flood_bitset,
    flood_sources_batch,
    flood_sparse,
    flood_trials_batch,
    flood_vectorized,
    has_fast_packed_adjacency,
    has_fast_reach_mask_batch,
    has_fast_trial_batch,
    pack_bool_matrix,
    pack_bool_vector,
    packed_width,
    resolve_backend,
    unpack_bit_vector,
)
from repro.engine.batch import _GenericTrialBatch
from repro.engine.bitset import popcount
from repro.graphs.grid import augmented_grid_graph, grid_graph
from repro.markov.builders import random_walk_on_graph
from repro.meg.base import DynamicGraph, StaticGraphProcess
from repro.meg.edge_meg import EdgeMEG
from repro.meg.node_meg import NodeMEG
from repro.mobility.connection import (
    CONNECTION_METHODS,
    UnitDiskConnection,
    radius_pairs,
    radius_pairs_grid,
    resolve_connection_method,
)
from repro.mobility.random_path import GraphRandomWalkMobility, random_walk_path_model
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypoint
from repro.telemetry import core as telemetry


def _node_meg(num_nodes: int = 30) -> NodeMEG:
    chain = random_walk_on_graph(grid_graph(3)).lazy(0.2)
    return NodeMEG(
        num_nodes,
        chain,
        lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1,
    )


def _family_factories():
    return {
        "edge-meg": lambda: EdgeMEG(30, p=0.1, q=0.3),
        "node-meg": lambda: _node_meg(30),
        "grid": lambda: GraphRandomWalkMobility(
            24, augmented_grid_graph(4, 2), radius_hops=1
        ),
        "mobility": lambda: RandomWaypoint(24, side=4.0, radius=1.2, v_min=1.0),
        "static": lambda: StaticGraphProcess(nx.random_regular_graph(3, 20, seed=1)),
    }


FAMILIES = sorted(_family_factories())


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """Pairs in lexicographic order (the k-d tree's output order is arbitrary)."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class TestBitPacking:
    def test_packed_width(self):
        assert packed_width(0) == 0
        assert packed_width(1) == 1
        assert packed_width(64) == 1
        assert packed_width(65) == 2
        with pytest.raises(ValueError):
            packed_width(-1)

    @pytest.mark.parametrize("columns", [1, 7, 63, 64, 65, 130])
    def test_matrix_roundtrip(self, columns):
        rng = np.random.default_rng(columns)
        matrix = rng.random((5, columns)) < 0.4
        packed = pack_bool_matrix(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, packed_width(columns))
        for row in range(5):
            assert np.array_equal(unpack_bit_vector(packed[row], columns), matrix[row])

    def test_padding_bits_are_zero(self):
        matrix = np.ones((3, 70), dtype=bool)
        packed = pack_bool_matrix(matrix)
        # Word 1 holds bits 64..127; only the first 6 may be set.
        assert np.all(packed[:, 1] == np.uint64((1 << 6) - 1))

    def test_vector_roundtrip_and_validation(self):
        vector = np.random.default_rng(0).random(100) < 0.5
        assert np.array_equal(unpack_bit_vector(pack_bool_vector(vector), 100), vector)
        with pytest.raises(ValueError):
            pack_bool_vector(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            pack_bool_matrix(np.zeros(4, dtype=bool))

    def test_popcount_matches_unpacked_sum(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=40, dtype=np.uint64)
        expected = [bin(int(word)).count("1") for word in words]
        assert popcount(words).tolist() == expected

    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, bits):
        vector = np.array(bits, dtype=bool)
        packed = pack_bool_vector(vector)
        assert packed.size == packed_width(vector.size)
        assert np.array_equal(unpack_bit_vector(packed, vector.size), vector)
        assert int(popcount(packed).sum()) == int(vector.sum())


class TestStreamIdentities:
    """The two RNG identities the fast trial-batch runner relies on."""

    def test_block_predraw_matches_sequential_draws(self):
        # Drawing a (K, m) block consumes the PCG64 stream exactly as K
        # sequential draws of m uniforms — the pre-draw window of the fast
        # runner therefore replays per-round draws bit-identically.
        for seed in range(20):
            block = np.random.default_rng(seed).random((8, 13))
            reference = np.random.default_rng(seed)
            for row in range(8):
                assert np.array_equal(block[row], reference.random(13))

    def test_choice_mirror_matches_generator_choice(self):
        # ``Generator.choice(k, size=n, p=dist)`` draws n uniforms and
        # inverts the normalised CDF; the mirror used by the batched reset
        # must reproduce it exactly, including the renormalisation step.
        for seed in range(50):
            dist_rng = np.random.default_rng(1000 + seed)
            dist = dist_rng.random(5)
            dist /= dist.sum()
            chosen = np.random.default_rng(seed).choice(5, size=17, p=dist)
            cdf = dist.cumsum()
            cdf /= cdf[-1]
            mirrored = cdf.searchsorted(
                np.random.default_rng(seed).random(17), side="right"
            )
            assert np.array_equal(chosen, mirrored)


class TestBitsetKernelIdentity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitset_matches_set_and_dense(self, family):
        factory = _family_factories()[family]
        for seed in range(4):
            via_set = flood(factory(), rng=seed)
            via_dense = flood_vectorized(factory(), rng=seed)
            via_bitset = flood_bitset(factory(), rng=seed)
            assert via_set == via_dense == via_bitset

    def test_bitset_source_and_limits(self):
        model = EdgeMEG(20, p=0.1, q=0.3)
        assert flood_bitset(model, source=7, rng=3) == flood(model, source=7, rng=3)
        with pytest.raises(ValueError):
            flood_bitset(model, source=20)
        with pytest.raises(ValueError):
            flood_bitset(model, max_steps=-1)
        truncated = flood_bitset(EdgeMEG(20, p=0.01, q=0.9), rng=0, max_steps=1)
        assert truncated.flooding_time is None

    def test_default_packed_reach_mask_matches_row_union(self):
        model = EdgeMEG(25, p=0.15, q=0.3)
        model.reset(4)
        informed = np.zeros(25, dtype=bool)
        informed[[0, 3, 11]] = True
        packed = model.packed_reach_mask(informed)
        assert np.array_equal(
            unpack_bit_vector(packed, 25), model.reach_mask(informed)
        )

    def test_static_process_caches_packed_adjacency(self):
        process = StaticGraphProcess(nx.path_graph(10))
        process.reset()
        assert has_fast_packed_adjacency(process)
        first = process.packed_adjacency()
        assert process.packed_adjacency() is first
        assert np.array_equal(
            first, pack_bool_matrix(DynamicGraph.adjacency_matrix(process))
        )


class TestTrialBatchIdentity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_matches_per_trial(self, family):
        factory = _family_factories()[family]
        seeds = list(range(200, 206))
        batched = flood_trials_batch(factory(), seeds)
        singles = [
            flood_vectorized(factory(), rng=np.random.default_rng(seed))
            for seed in seeds
        ]
        assert batched == singles

    def test_fast_runner_matches_generic_runner(self):
        # The node-MEG fast runner and the pickled-copies fallback must agree
        # draw for draw; running both pins the mirrored reset/step math.
        seeds = list(range(40, 56))
        model = _node_meg(26)
        assert has_fast_trial_batch(model)
        fast = flood_trials_batch(model, seeds, source=3)
        generic_model = _node_meg(26)
        generic_runner = _GenericTrialBatch(generic_model, len(seeds))
        assert generic_model.trial_batch(len(seeds)) is not None
        # Force the generic path by floods on a model stripped of the hook.
        per_trial = [
            flood_vectorized(_node_meg(26), source=3, rng=np.random.default_rng(seed))
            for seed in seeds
        ]
        assert fast == per_trial
        rngs = [np.random.default_rng(seed) for seed in seeds]
        generic_runner.reset(rngs)
        informed = np.zeros((len(seeds), 26), dtype=bool)
        informed[:, 3] = True
        fast_runner = model.trial_batch(len(seeds))
        fast_runner.reset([np.random.default_rng(seed) for seed in seeds])
        sub = np.arange(len(seeds))
        assert np.array_equal(
            fast_runner.reach(informed, sub), generic_runner.reach(informed, sub)
        )

    def test_validation_and_edge_cases(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        assert flood_trials_batch(model, []) == []
        with pytest.raises(ValueError):
            flood_trials_batch(model, [0], source=10)
        with pytest.raises(ValueError):
            flood_trials_batch(model, [0], max_steps=-1)
        incomplete = flood_trials_batch(
            EdgeMEG(20, p=0.01, q=0.9), [0, 1], max_steps=1
        )
        assert all(result.flooding_time is None for result in incomplete)

    def test_single_node_batch(self):
        results = flood_trials_batch(EdgeMEG(1, p=0.5, q=0.5), [0, 1, 2])
        assert all(result.flooding_time == 0 for result in results)
        assert all(result.informed_history == (1,) for result in results)


class TestStateLevelSourceBatch:
    @pytest.mark.parametrize("family", ["node-meg", "grid"])
    def test_reach_mask_batch_matches_columnwise(self, family):
        model = _family_factories()[family]()
        assert has_fast_reach_mask_batch(model)
        model.reset(6)
        rng = np.random.default_rng(0)
        informed = rng.random((model.num_nodes, 5)) < 0.2
        informed[0, :] = True
        batched = model.reach_mask_batch(informed)
        columnwise = np.column_stack(
            [model.reach_mask(informed[:, b]) for b in range(5)]
        )
        assert np.array_equal(batched, columnwise)

    def test_random_path_reach_mask_batch(self):
        model = random_walk_path_model(20, grid_graph(4), radius_hops=1)
        assert has_fast_reach_mask_batch(model)
        model.reset(2)
        informed = np.eye(20, 4, dtype=bool)
        assert np.array_equal(
            model.reach_mask_batch(informed),
            np.column_stack([model.reach_mask(informed[:, b]) for b in range(4)]),
        )

    @pytest.mark.parametrize("family", ["node-meg", "grid"])
    def test_source_batch_dense_still_matches_set(self, family):
        # The dense source-batch kernel now routes these families through
        # reach_mask_batch; outcomes must stay identical to the set loop.
        factory = _family_factories()[family]
        sources = [0, 5, 11]
        for seed in range(3):
            via_set = flood_sources_set(factory(), sources, rng=seed)
            via_dense = flood_sources_batch(
                factory(), sources, rng=seed, backend="dense"
            )
            assert via_set == via_dense


class TestCellListParity:
    def _assert_matches_tree(self, points, radius):
        points = np.asarray(points, dtype=float)
        via_grid = radius_pairs_grid(points, radius)
        via_tree = cKDTree(points).query_pairs(r=radius, output_type="ndarray")
        assert np.array_equal(via_grid, _canonical(via_tree).reshape(-1, 2))

    def test_uniform_points(self):
        for seed, radius in [(0, 0.8), (1, 1.5), (2, 0.1), (3, 4.0)]:
            points = np.random.default_rng(seed).random((80, 2)) * 10.0
            self._assert_matches_tree(points, radius)

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_integer_grid_boundary_inclusive(self, radius):
        # Integer coordinates put many pairs exactly on the radius; both
        # searches must include them (distance <= r, not <).
        side = np.arange(6)
        points = np.array([[x, y] for x in side for y in side], dtype=float)
        self._assert_matches_tree(points, radius)

    def test_negative_and_coincident_points(self):
        points = np.array(
            [[-3.0, -4.0], [-3.0, -4.0], [-2.5, -4.0], [0.0, 0.0], [-3.0, -3.2]]
        )
        self._assert_matches_tree(points, 0.9)
        self._assert_matches_tree(points, 0.0)

    def test_degenerate_inputs(self):
        assert radius_pairs_grid(np.empty((0, 2)), 1.0).shape == (0, 2)
        assert radius_pairs_grid(np.array([[1.0, 2.0]]), 1.0).shape == (0, 2)
        with pytest.raises(ValueError):
            radius_pairs_grid(np.zeros(3), 1.0)

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=2,
            max_size=40,
        ),
        radius=st.floats(min_value=0.01, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_property(self, coords, radius):
        self._assert_matches_tree(np.array(coords), radius)

    def test_method_resolution(self):
        assert resolve_connection_method("auto") == "kdtree"
        assert resolve_connection_method("grid") == "grid"
        with pytest.raises(ValueError):
            resolve_connection_method("quadtree")
        with pytest.raises(ValueError):
            UnitDiskConnection(1.0, method="quadtree")
        assert UnitDiskConnection(1.0).resolved_method() == "kdtree"
        assert UnitDiskConnection(1.0, method="grid").resolved_method() == "grid"
        assert CONNECTION_METHODS == ("auto", "kdtree", "grid")

    def test_radius_pairs_dispatches_methods(self):
        points = np.random.default_rng(5).random((30, 2)) * 4.0
        via_grid = radius_pairs(points, 1.0, method="grid")
        via_tree = radius_pairs(points, 1.0, method="kdtree")
        assert np.array_equal(via_grid, _canonical(via_tree))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda method: RandomWalkMobility(25, 6, 1.5, neighbor_search=method),
            lambda method: RandomWaypoint(
                20, side=4.0, radius=1.2, v_min=1.0, neighbor_search=method
            ),
        ],
    )
    def test_models_identical_under_both_searches(self, factory):
        via_tree = factory("kdtree")
        via_grid = factory("grid")
        via_tree.reset(9)
        via_grid.reset(9)
        for _ in range(5):
            assert np.array_equal(
                _canonical(via_tree.edge_pairs()), _canonical(via_grid.edge_pairs())
            )
            assert via_tree.neighbors_of_set([0, 3]) == via_grid.neighbors_of_set(
                [0, 3]
            )
            via_tree.step()
            via_grid.step()
        assert flood(factory("kdtree"), rng=2) == flood(factory("grid"), rng=2)


class TestBackendResolutionNew:
    def test_backends_tuple(self):
        assert BACKENDS == ("auto", "set", "vectorized", "sparse", "bitset", "batch")

    def test_auto_picks_batch_for_wide_small_batches(self):
        model = _node_meg(30)
        assert has_fast_trial_batch(model)
        assert resolve_backend("auto", model, num_trials=BATCH_AUTO_MIN_TRIALS) == "batch"
        assert (
            resolve_backend("auto", model, num_trials=BATCH_AUTO_MIN_TRIALS - 1)
            == "vectorized"
        )
        assert (
            resolve_backend(
                "auto", model, num_trials=64, batched_sources=True
            )
            == "vectorized"
        )

    def test_auto_batch_requires_fast_runner_and_small_model(self):
        no_runner = EdgeMEG(30, p=0.1, q=0.3)
        assert not has_fast_trial_batch(no_runner)
        assert resolve_backend("auto", no_runner, num_trials=500) == "vectorized"
        big = _node_meg(BATCH_AUTO_MAX_NODES + 1)
        assert resolve_backend("auto", big, num_trials=500) == "vectorized"

    def test_auto_upgrades_static_processes_to_bitset(self):
        small = StaticGraphProcess(nx.path_graph(16))
        assert resolve_backend("auto", small) == "set"
        large = StaticGraphProcess(nx.path_graph(BITSET_AUTO_MIN_NODES))
        assert resolve_backend("auto", large) == "bitset"

    def test_auto_never_picks_bitset_without_cached_packing(self):
        # Dynamic families pack per round (cost ~ one dense reach), so auto
        # must keep them on their previous kernels at every size.
        assert resolve_backend("auto", EdgeMEG(2048, p=0.4, q=0.4)) == "vectorized"
        assert resolve_backend("auto", _node_meg(300)) == "vectorized"

    def test_explicit_backends_pass_through(self):
        model = EdgeMEG(10, p=0.1, q=0.3)
        assert resolve_backend("bitset", model) == "bitset"
        assert resolve_backend("batch", model) == "batch"
        assert resolve_backend("batch", model, batched_sources=True) == "vectorized"
        with pytest.raises(ValueError):
            resolve_backend("packed", model)

    def test_engine_accepts_new_backends(self):
        times = {}
        for backend in ("set", "bitset", "batch"):
            spec = TrialSpec.from_model(_node_meg(20), num_trials=5, seed=11)
            result = Engine(backend=backend).run(spec)
            assert result.backend == backend
            times[backend] = result.flooding_times
        assert times["set"] == times["bitset"] == times["batch"]

    def test_auto_batch_worker_invariant(self):
        spec = TrialSpec.from_model(
            _node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7
        )
        serial = Engine(workers=1).run(spec).flooding_times
        threaded = Engine(workers=3, executor="thread").run(
            TrialSpec.from_model(_node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7)
        ).flooding_times
        explicit = Engine(backend="set").run(
            TrialSpec.from_model(_node_meg(24), num_trials=2 * BATCH_AUTO_MIN_TRIALS, seed=7)
        ).flooding_times
        assert serial == threaded == explicit


class TestSparseKernel:
    def test_sparse_kernel_matches_set_loop(self):
        for seed in range(3):
            assert flood_sparse(EdgeMEG(30, p=0.1, q=0.3), rng=seed) == flood(
                EdgeMEG(30, p=0.1, q=0.3), rng=seed
            )


class TestKernelTelemetry:
    def test_dispatch_counters_recorded(self):
        instance = telemetry.activate(telemetry.Telemetry(process="kernel-test"))
        try:
            flood_bitset(EdgeMEG(15, p=0.2, q=0.3), rng=0)
            flood_trials_batch(_node_meg(20), [0, 1, 2])
            flood_trials_batch(EdgeMEG(15, p=0.2, q=0.3), [0, 1])
            spec = TrialSpec.from_model(
                _node_meg(20), num_trials=BATCH_AUTO_MIN_TRIALS, seed=0
            )
            Engine().run(spec)
            counters = instance.metrics_snapshot()["counters"]
        finally:
            telemetry.deactivate(instance)
        assert counters["kernel.flood.bitset"] == 1
        # 3 direct trials plus the engine's auto-batched run of 32.
        assert counters["kernel.flood.batch_trials_fast"] == 3 + BATCH_AUTO_MIN_TRIALS
        assert counters["kernel.flood.batch_trials_generic"] == 2
        assert counters["engine.backend.batch"] == BATCH_AUTO_MIN_TRIALS
