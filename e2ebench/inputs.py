"""Seeded inputs of the three workloads.

Each workload has one fixed operation shape.  The workload seed chooses only
the simulation seeds carried by the requests and the order in which the
requests are sent; family, node counts and trial counts never depend on it.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

FAMILIES = ("edge-meg", "waypoint", "grid-walk")

#: serve-warm: 3-point sweeps of 128 trials; the store holds every answer.
WARM_NODES = (16, 24, 32)
WARM_TRIALS = 128
WARM_SEEDS_PER_FAMILY = 1

#: serve-cold: one never-cached point per operation, over cost-matched shapes.
COLD_SHAPES = (
    {"family": "edge-meg", "nodes": [512], "trials": 32},
    {"family": "waypoint", "nodes": [64], "trials": 32},
    {"family": "grid-walk", "nodes": [128], "trials": 80},
)

#: cli-sweep: one `repro sweep` command per family, replayed warm.
CLI_NODES = (8, 16)
CLI_TRIALS = 64

_SEED_SPACE = 2**31 - 1


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    # String seeds hash through SHA-512, so the stream is the same in every
    # interpreter, whatever PYTHONHASHSEED says.
    return random.Random(f"{workload}/{stream}/{int(seed)}")


def _distinct_seeds(rng: random.Random) -> Iterator[int]:
    seen = set()
    while True:
        value = rng.randrange(_SEED_SPACE)
        if value not in seen:
            seen.add(value)
            yield value


def rotation(rng: random.Random, items: list) -> Iterator:
    """Endless cycles over ``items``, each cycle in a fresh shuffled order."""
    while True:
        cycle = list(items)
        rng.shuffle(cycle)
        yield from cycle


def sweep_body(family: str, nodes, trials: int, seed: int) -> dict:
    """The JSON body of a `POST /v1/requests` sweep request."""
    return {
        "kind": "sweep",
        "family": family,
        "nodes": list(nodes),
        "trials": int(trials),
        "seed": int(seed),
    }


def warm_requests(seed: int) -> list[dict]:
    """The distinct serve-warm requests the store is pre-filled with."""
    seeds = _distinct_seeds(_rng("serve-warm", seed, "seeds"))
    return [
        sweep_body(family, WARM_NODES, WARM_TRIALS, next(seeds))
        for family in FAMILIES
        for _ in range(WARM_SEEDS_PER_FAMILY)
    ]


def warm_operations(seed: int) -> Iterator[dict]:
    """The endless serve-warm request stream: the distinct set, reshuffled per cycle."""
    return rotation(_rng("serve-warm", seed, "order"), warm_requests(seed))


def cold_operations(seed: int, stream: str = "ops") -> Iterator[dict]:
    """The endless serve-cold request stream: every request is new.

    Each cycle sends every shape of :data:`COLD_SHAPES` once, in a seeded
    order, each with a seed no earlier request of the stream used.
    """
    seeds = _distinct_seeds(_rng("serve-cold", seed, stream + "/seeds"))
    for shape_ in rotation(_rng("serve-cold", seed, stream + "/order"), list(COLD_SHAPES)):
        yield sweep_body(shape_["family"], shape_["nodes"], shape_["trials"], next(seeds))


def cli_commands(seed: int, store: str) -> list[list[str]]:
    """The distinct `repro sweep` argument lists of cli-sweep (one per family)."""
    seeds = _distinct_seeds(_rng("cli-sweep", seed, "seeds"))
    return [
        [
            "sweep", family,
            "--nodes", ",".join(str(n) for n in CLI_NODES),
            "--trials", str(CLI_TRIALS),
            "--seed", str(next(seeds)),
            "--results-dir", store,
        ]
        for family in FAMILIES
    ]


def cli_operations(seed: int) -> Iterator[int]:
    """The endless cli-sweep stream, as indices into :func:`cli_commands`."""
    return rotation(_rng("cli-sweep", seed, "order"), list(range(len(FAMILIES))))


def take(stream: Iterator, count: int) -> list:
    """The first ``count`` items of a stream."""
    return list(islice(stream, count))
