"""The three closed-loop workloads, run against the unmodified program.

One driver thread sends one operation at a time and starts the next only
after the previous one has completed.  The program runs as separate
processes (`repro serve`, `repro worker`, `repro sweep`); the driver
imports the program's library only to prepare the store before a loop and
to check every answer after it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
import inputs
from programs import (
    Client,
    Exchange,
    repro_argv,
    run_child,
    spawn_server,
    spawn_worker,
)

#: Times the program is set up per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: serve-cold: seconds between ticket polls, and the give-up time of one op.
POLL_SECONDS = 0.02
COLD_TIMEOUT = 60.0

#: Phase jitter, so the closed loop does not lock onto the kernel's timer
#: ticks: serve-warm pauses up to WARM_JITTER before each op (outside the
#: op), and serve-cold delays its first poll by up to COLD_JITTER, so that
#: the poll grid does not quantize op latency into whole poll cycles.
WARM_JITTER = 0.004
COLD_JITTER = 0.080

#: Tail percentile reported per workload (``None``: the no-tail case, whose
#: tail is the median).  Fixed here so every commit reports the same one;
#: each is the highest of p75/p90/p99 that keeps ten samples beyond it at
#: the op counts a 30-second run reaches.
TAIL_PERCENTILE = {"serve-warm": 90, "serve-cold": 75, "cli-sweep": None}


@dataclass
class Context:
    root: str
    workdir: str
    seed: int
    seconds: float
    env: dict

    def directory(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path


@dataclass
class Op:
    """One operation: its input, what came back, and its wall time."""

    request: object
    started: float
    ended: float = 0.0
    exchanges: list = field(default_factory=list)
    stdout: str = ""
    rss_mb: float = 0.0
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.ended - self.started


@dataclass
class Outcome:
    """What one workload run measured."""

    ops: list
    verdicts: list
    loop_seconds: float
    setups: list
    rss_mb: float
    notes: dict = field(default_factory=dict)


def _request_op(client: Client, body: dict) -> Op:
    op = Op(body, time.perf_counter())
    try:
        op.exchanges.append(client.exchange("POST", "/v1/requests", body))
    except Exception as error:  # noqa: BLE001 - any transport failure fails the op
        op.error = f"{type(error).__name__}: {error}"
    op.ended = time.perf_counter()
    return op


def warm_op(client: Client, body: dict) -> Op:
    """serve-warm: one POST, answered from the store."""
    return _request_op(client, body)


def phase(index: int) -> float:
    """A low-discrepancy sequence in [0, 1), the same for every seed."""
    return (index * 0.6180339887498949) % 1.0


def cold_op(client: Client, body: dict, first_pause: float = POLL_SECONDS) -> Op:
    """serve-cold: POST (202), then poll the ticket until the 200 arrives."""
    op = _request_op(client, body)
    if op.error or op.exchanges[-1].status != 202:
        return op
    location = op.exchanges[-1].headers.get("Location", "")
    pause = first_pause
    try:
        while True:
            time.sleep(pause)
            pause = POLL_SECONDS
            exchange = client.exchange("GET", location)
            op.exchanges.append(exchange)
            if exchange.status != 202:
                break
            if exchange.ended - op.started > COLD_TIMEOUT:
                op.error = f"no answer within {COLD_TIMEOUT}s"
                break
    except Exception as error:  # noqa: BLE001
        op.error = f"{type(error).__name__}: {error}"
    op.ended = time.perf_counter()
    return op


def closed_loop(seconds: float, next_op: Callable[[int], Op]) -> tuple[list, float]:
    """Run ops back to back for ``seconds``; returns ``(ops, loop wall)``."""
    ops = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        ops.append(next_op(len(ops)))
    return ops, time.perf_counter() - started


def warm_loop(client: Client, seconds: float, stream) -> tuple[list, float]:
    """serve-warm's loop; the paces between ops do not count as loop time."""
    paused = 0.0

    def one(index: int) -> Op:
        nonlocal paused
        pause = WARM_JITTER * phase(index)
        time.sleep(pause)
        paused += pause
        return warm_op(client, next(stream))

    ops, loop = closed_loop(seconds, one)
    return ops, loop - paused


def cold_loop(client: Client, seconds: float, stream) -> tuple[list, float]:
    return closed_loop(
        seconds, lambda index: cold_op(client, next(stream), COLD_JITTER * phase(index))
    )


def final(op: Op) -> Optional[Exchange]:
    return op.exchanges[-1] if op.exchanges else None


# --------------------------------------------------------------------- #
# serve-warm
# --------------------------------------------------------------------- #
def prefill(store_dir: str, bodies: list[dict]) -> None:
    """Run every request once into the store (outside any timed region)."""
    from repro.engine import Engine, ResultStore

    engine = Engine(store=ResultStore(store_dir))
    for body in bodies:
        for job in checks.plan_of(body).jobs:
            engine.run(job.spec)


def expected_answers(store_dir: str, bodies: list[dict]) -> dict:
    from repro.engine import ResultStore

    store = ResultStore(store_dir)
    distinct = {checks.body_key(body): body for body in bodies}
    return {key: checks.expected_answer(store, body) for key, body in distinct.items()}


def verify_answers(ops: list, store_dir: str, cache: str) -> list:
    """Per-op verdicts: the final 200 equals the assembled store records."""
    expected = expected_answers(store_dir, [op.request for op in ops])
    verdicts = []
    for op in ops:
        error = op.error or (
            "no answer" if final(op) is None
            else checks.answer_error(final(op), expected[checks.body_key(op.request)], cache)
        )
        verdicts.append(error)
    return verdicts


def _setup_servers(ctx: Context, store: str, spool: str, with_worker: bool):
    """Start the program ``SETUP_REPEATS`` times; keep the last one running.

    Returns ``(setup seconds, running programs, peak RSS of the stopped ones, port)``.
    """
    setups, rss = [], 0.0
    for attempt in range(SETUP_REPEATS):
        programs = []
        try:
            worker = None
            if with_worker:
                worker = spawn_worker(ctx.root, ctx.env, ctx.workdir, spool, str(attempt))
                programs.append(worker)
            server, port = spawn_server(ctx.root, ctx.env, ctx.workdir, store, spool, str(attempt))
            programs.append(server)
            if worker is not None:
                worker.wait_for_line("draining spool")
        except BaseException:
            for program in programs:
                program.stop(signal.SIGKILL)
            raise
        setups.append(time.perf_counter() - min(p.started for p in programs))
        if attempt < SETUP_REPEATS - 1:
            rss = max([rss] + [program.stop() for program in programs])
    return setups, programs, rss, port


def serve_warm(ctx: Context) -> Outcome:
    store, spool = ctx.directory("store"), ctx.directory("spool")
    distinct = inputs.warm_requests(ctx.seed)
    prefill(store, distinct)
    setups, programs, rss, port = _setup_servers(ctx, store, spool, with_worker=False)
    client = Client(port)
    try:
        for body in distinct:  # first contact: the server indexes its store
            warm_op(client, body)
        ops, loop = warm_loop(client, ctx.seconds, inputs.warm_operations(ctx.seed))
    finally:
        client.close()
        rss = max([rss] + [program.stop() for program in programs])
    return Outcome(ops, verify_answers(ops, store, "hit"), loop, setups, rss)


# --------------------------------------------------------------------- #
# serve-cold
# --------------------------------------------------------------------- #
def reference_checks(ops: list, verdicts: list) -> None:
    """The first answer of each family must equal a set-kernel Engine run."""
    seen = set()
    for index, op in enumerate(ops):
        family = op.request["family"]
        if verdicts[index] is None and family not in seen:
            seen.add(family)
            verdicts[index] = checks.reference_error(op.request, final(op).body)


def serve_cold(ctx: Context) -> Outcome:
    store, spool = ctx.directory("store"), ctx.directory("spool")
    setups, programs, rss, port = _setup_servers(ctx, store, spool, with_worker=True)
    client = Client(port)
    try:
        for body in inputs.take(inputs.cold_operations(ctx.seed, "warm-up"), 3):
            cold_op(client, body)
        ops, loop = cold_loop(client, ctx.seconds, inputs.cold_operations(ctx.seed))
    finally:
        client.close()
        rss = max([rss] + [program.stop() for program in programs])
    verdicts = verify_answers(ops, store, "fill")
    reference_checks(ops, verdicts)
    polls = sum(len(op.exchanges) - 1 for op in ops) / max(len(ops), 1)
    return Outcome(ops, verdicts, loop, setups, rss, {"polls_per_op": polls})


# --------------------------------------------------------------------- #
# cli-sweep
# --------------------------------------------------------------------- #
def cli_setup(ctx: Context, run) -> tuple[list, list]:
    """Fill the store with the cold run of every command.

    ``run(index, command)`` runs one command into an :class:`Op`.  Returns
    ``(commands, cold ops)``; each cold op is one set-up sample.
    """
    commands = inputs.cli_commands(ctx.seed, ctx.directory("cli-store"))
    return commands, [run(index, command) for index, command in enumerate(commands)]


def verify_cli(ops: list, colds: list) -> list:
    bad = [f"cold run: {cold.error}" for cold in colds if cold.error]
    return [
        bad[0] if bad else op.error or checks.cli_error(op.stdout, colds[op.request].stdout)
        for op in ops
    ]


def child_op(ctx: Context, index: int, command: list) -> Op:
    """One `repro sweep` child, timed from spawn to exit."""
    op = Op(index, time.perf_counter())
    run = run_child(repro_argv(*command), ctx.env, ctx.root)
    op.ended, op.stdout, op.rss_mb = op.started + run.wall, run.stdout, run.rss_mb
    if run.returncode:
        op.error = f"exit code {run.returncode}"
    return op


def cli_sweep(ctx: Context) -> Outcome:
    # Byte-compile the sources once, so no timed child pays for it.
    run_child([sys.executable, "-c", "import repro.cli"], ctx.env, ctx.root)
    commands, colds = cli_setup(ctx, lambda index, command: child_op(ctx, index, command))
    stream = inputs.cli_operations(ctx.seed)

    def one(_: int) -> Op:
        index = next(stream)
        return child_op(ctx, index, commands[index])

    ops, loop = closed_loop(ctx.seconds, one)
    rss = max(op.rss_mb for op in colds + ops)
    return Outcome(ops, verify_cli(ops, colds), loop, [cold.seconds for cold in colds], rss)


WORKLOADS = {"serve-warm": serve_warm, "serve-cold": serve_cold, "cli-sweep": cli_sweep}


def describe_failures(outcome: Outcome, limit: int = 5) -> list:
    return [
        json.dumps({"op": index, "error": error})
        for index, error in enumerate(outcome.verdicts)
        if error is not None
    ][:limit]
