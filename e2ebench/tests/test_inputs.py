"""The workload seed chooses simulation seeds and order, never shapes."""

from collections import Counter

import inputs


def shape(body):
    """Everything about a request except its simulation seed."""
    return tuple(sorted((key, repr(value)) for key, value in body.items() if key != "seed"))


def _cold(seed, count=30):
    return inputs.take(inputs.cold_operations(seed), count)


def _warm(seed, count=30):
    return inputs.take(inputs.warm_operations(seed), count)


def test_same_seed_gives_identical_bodies():
    assert inputs.warm_requests(5) == inputs.warm_requests(5)
    assert _warm(5) == _warm(5)
    assert _cold(5) == _cold(5)
    assert inputs.cli_commands(5, "store") == inputs.cli_commands(5, "store")
    assert inputs.take(inputs.cli_operations(5), 12) == inputs.take(inputs.cli_operations(5), 12)


def test_other_seed_changes_bodies_but_not_shapes():
    for one, two in (
        (inputs.warm_requests(1), inputs.warm_requests(2)),
        (_cold(1), _cold(2)),
    ):
        assert one != two
        assert Counter(map(shape, one)) == Counter(map(shape, two))
    first, second = inputs.cli_commands(1, "store"), inputs.cli_commands(2, "store")
    assert first != second

    def without_seed(command):
        return command[: command.index("--seed")] + command[command.index("--seed") + 2 :]

    assert [without_seed(c) for c in first] == [without_seed(c) for c in second]


def test_every_cycle_sends_every_shape_once():
    shapes = Counter(map(shape, (inputs.sweep_body(seed=0, **s) for s in inputs.COLD_SHAPES)))
    ops = _cold(7, 3 * 10)
    for start in range(0, len(ops), 3):
        assert Counter(map(shape, ops[start : start + 3])) == shapes
    warm = _warm(7, 3 * 10)
    distinct = Counter(shape(body) for body in inputs.warm_requests(7))
    for start in range(0, len(warm), 3):
        assert Counter(map(shape, warm[start : start + 3])) == distinct


def test_cold_requests_never_repeat():
    ops = _cold(3, 300)
    assert len({op["seed"] for op in ops}) == len(ops)


def test_warm_stream_only_replays_the_prefilled_requests():
    distinct = inputs.warm_requests(9)
    assert len({shape(b) + (b["seed"],) for b in distinct}) == len(distinct)
    assert all(body in distinct for body in _warm(9, 60))
