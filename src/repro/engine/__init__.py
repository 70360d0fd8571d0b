"""Parallel Monte-Carlo execution engine.

The execution backbone all trial-running code routes through:

``repro.engine.spec``
    :class:`TrialSpec` (declarative batch description) and
    :class:`BatchResult`.
``repro.engine.engine``
    :class:`Engine` — serial or multiprocess scheduling with
    ``SeedSequence``-derived per-trial seeds (bit-identical results at any
    worker count) and transparent result caching.
``repro.engine.shard``
    :class:`ShardSpec` and helpers — deterministic partition of a batch into
    ``K`` self-describing shards (shard ``i`` runs trials ``i, i+K, ...``
    with the unsharded run's exact seeds), executable on any machine and
    mergeable back into the full batch.
``repro.engine.kernel``
    The vectorized flooding kernels — dense NumPy and sparse CSR, single
    source and whole source batches — plus the backend-selection predicates.
``repro.engine.bitset``
    The bit-packed kernel — informed vectors and adjacency packed into
    ``uint64`` words so one flooding round is a word-wise OR/popcount sweep.
``repro.engine.batch``
    The realization-batch kernel — many trials of one family flooded as a
    single tensor pass (state-level fast paths for node-MEGs).
``repro.engine.replay``
    :class:`SnapshotReplay` — record one realization's snapshots, replay
    them bit-identically (chunked source batches never re-step the model).
``repro.engine.store``
    :class:`ResultStore` — JSONL-backed persistent results with
    content-hashed keys, concurrency-safe appends, a lazily built in-memory
    index, a :meth:`~ResultStore.compact` maintenance helper and
    :meth:`~ResultStore.merge` for unioning shard stores.
"""

from repro.engine.batch import flood_trials_batch
from repro.engine.bitset import (
    flood_bitset,
    pack_bool_matrix,
    pack_bool_vector,
    packed_width,
    unpack_bit_vector,
)
from repro.engine.engine import (
    BACKENDS,
    BATCH_AUTO_MAX_NODES,
    BATCH_AUTO_MIN_TRIALS,
    BITSET_AUTO_MIN_NODES,
    EXECUTORS,
    SPARSE_AUTO_MAX_DENSITY,
    SPARSE_AUTO_MIN_NODES,
    Engine,
    estimated_snapshot_density,
    resolve_backend,
)
from repro.engine.kernel import (
    flood_sources_batch,
    flood_sparse,
    flood_vectorized,
    has_fast_adjacency,
    has_fast_packed_adjacency,
    has_fast_reach_mask,
    has_fast_reach_mask_batch,
    has_fast_sparse_adjacency,
    has_fast_trial_batch,
)
from repro.engine.replay import SnapshotReplay
from repro.engine.shard import (
    ShardSpec,
    batch_store_key,
    parse_shard,
    seed_token,
    shard_specs,
    shard_store_key,
)
from repro.engine.spec import BatchResult, TrialSpec
from repro.engine.store import (
    MergeConflictError,
    MergeReport,
    ResultStore,
    jsonify,
)
from repro.stats.sequential import StoppingRule

__all__ = [
    "BACKENDS",
    "BATCH_AUTO_MAX_NODES",
    "BATCH_AUTO_MIN_TRIALS",
    "BITSET_AUTO_MIN_NODES",
    "BatchResult",
    "EXECUTORS",
    "Engine",
    "MergeConflictError",
    "MergeReport",
    "ResultStore",
    "SPARSE_AUTO_MAX_DENSITY",
    "SPARSE_AUTO_MIN_NODES",
    "ShardSpec",
    "SnapshotReplay",
    "StoppingRule",
    "TrialSpec",
    "batch_store_key",
    "estimated_snapshot_density",
    "flood_bitset",
    "flood_sources_batch",
    "flood_sparse",
    "flood_trials_batch",
    "flood_vectorized",
    "has_fast_adjacency",
    "has_fast_packed_adjacency",
    "has_fast_reach_mask",
    "has_fast_reach_mask_batch",
    "has_fast_sparse_adjacency",
    "has_fast_trial_batch",
    "jsonify",
    "pack_bool_matrix",
    "pack_bool_vector",
    "packed_width",
    "parse_shard",
    "resolve_backend",
    "seed_token",
    "shard_specs",
    "shard_store_key",
    "unpack_bit_vector",
]
