"""The traced run: the workload's operations replayed in one process.

The server, worker and CLI run as threads and calls inside the driver, with
the timing wrappers of :mod:`tracing` installed.  Operations run in pairs of
passes over the same inputs: first with the wrappers idle, then recording.
The ratio of the two walls is the tracing overhead; the recorded passes
give the per-layer metrics.  Every answer is checked as in the untraced run.
"""

from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout

import inputs
import stats
import tracing
from programs import Client, run_child
from workloads import (
    COLD_JITTER,
    WARM_JITTER,
    Op,
    Outcome,
    child_op,
    cli_setup,
    cold_op,
    phase,
    prefill,
    reference_checks,
    verify_answers,
    verify_cli,
    warm_op,
)

#: Operations per pass.
PASS_OPS = {"serve-warm": 30, "serve-cold": 3, "cli-sweep": 6}

#: Start-up samples: interpreter-only children and `import repro.cli` children.
INTERP_SAMPLES = 5
IMPORT_SAMPLES = 3

_IMPORT_PROBE = "import sys; n = len(sys.modules); import repro.cli; print(len(sys.modules) - n)"


def startup_metrics(ctx) -> dict:
    """Interpreter start and import cost of the CLI, from child processes."""
    interp = [
        run_child([sys.executable, "-c", "pass"], ctx.env, ctx.root).wall
        for _ in range(INTERP_SAMPLES)
    ]
    imports, modules = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE],
            env=ctx.env, cwd=ctx.root, capture_output=True, text=True, timeout=120,
        )
        modules.append(int(done.stdout.strip()))
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "repro.cli":
                imports.append(int(fields[1]) / 1e6)
    return {
        "cli.interp_s": stats.median(interp),
        "cli.import_s": stats.median(imports),
        "cli.import_modules": stats.median(modules),
    }


class Passes:
    """Pairs of idle and recorded passes over the same operation inputs."""

    def __init__(self, recorder: tracing.Recorder) -> None:
        self.recorder = recorder
        self.ops: list[Op] = []
        self.roots: list[tuple] = []
        self.idle_seconds = 0.0
        self.traced_seconds = 0.0

    def _op(self, call) -> Op:
        recorder = self.recorder
        with recorder.span("op") as root:
            op = call()
        if root is not None:
            for exchange in op.exchanges:
                recorder.add_span("http.body_wait", exchange.headers_at, exchange.ended, root)
            self.roots.append((root, op.started, op.ended))
        return op

    def run(self, seconds: float, batches, run_batch) -> None:
        """Run pass pairs until ``seconds`` have gone (at least one pair).

        ``run_batch(batch, op)`` runs each input of ``batch`` through
        ``op(call)`` and returns the ops.
        """
        deadline = time.perf_counter() + seconds
        while not self.ops or time.perf_counter() < deadline:
            batch = next(batches)
            for traced in (False, True):
                self.recorder.enabled = traced
                try:
                    ops = run_batch(batch, self._op)
                finally:
                    self.recorder.enabled = False
                wall = sum(op.seconds for op in ops)
                if traced:
                    self.traced_seconds += wall
                else:
                    self.idle_seconds += wall
                self.ops.extend(ops)

    def metrics(self, ctx) -> tuple[dict, dict]:
        summary = tracing.summarize(self.recorder, self.roots)
        metrics = dict(summary["metrics"])
        metrics["trace.overhead_ratio"] = self.traced_seconds / self.idle_seconds
        metrics["trace.ops"] = len(self.roots)
        metrics["trace.op_ms"] = 1000.0 * self.traced_seconds / max(len(self.roots), 1)
        metrics.update(startup_metrics(ctx))
        return metrics, {"layer_self_ms": summary["layer_self_ms"]}


def _batches(stream, size: int):
    while True:
        yield inputs.take(stream, size)


def _serve_in_thread(store: str, spool: str):
    """The `repro serve` object graph, serving from a thread of this process."""
    from repro.engine import ResultStore
    from repro.fleet import JobSpool
    from repro.serve import SimulationService, create_server

    service = SimulationService(
        ResultStore.at(store), JobSpool(spool),
        engine_config={"workers": 1, "backend": "auto"},
    )
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


#: Unit of every per-layer metric the traced run prints.
UNITS = {
    **{name: "ms/op" for name in tracing.SELF_TIME_METRICS},
    **{name: "count/op" for name in tracing.CALL_METRICS},
    "store.seed_children": "count/op",
    "store.jsonify_calls": "count/op",
    "store.bytes_written": "B/op",
    "store.hit_ratio": "ratio",
    "http.stalled_share": "ratio",
    "fleet.queue_wait_ms": "ms/op",
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "cli.interp_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.ops": "count",
    "trace.op_ms": "ms",
}


def _units(metrics: dict) -> dict:
    return {name: (metrics[name], unit) for name, unit in UNITS.items()}


def replay_serve_warm(ctx):
    recorder = tracing.Recorder()
    store, spool = ctx.directory("store"), ctx.directory("spool")
    distinct = inputs.warm_requests(ctx.seed)
    prefill(store, distinct)
    tracing.install(recorder)
    server, thread = _serve_in_thread(store, spool)
    client = Client(server.server_address[1])
    passes = Passes(recorder)
    try:
        for body in distinct:
            warm_op(client, body)

        def run_batch(batch, op):
            ops = []
            for index, body in enumerate(batch):
                time.sleep(WARM_JITTER * phase(index))
                ops.append(op(lambda body=body: warm_op(client, body)))
            return ops

        passes.run(
            ctx.seconds,
            _batches(inputs.warm_operations(ctx.seed), PASS_OPS["serve-warm"]),
            run_batch,
        )
    finally:
        client.close()
        _stop_server(server, thread)
    metrics, details = passes.metrics(ctx)
    verdicts = verify_answers(passes.ops, store, "hit")
    op_ms = metrics["trace.op_ms"]
    details["isolation"] = {
        "body_wait_plus_key_share": (metrics["http.body_wait_ms"] + metrics["store.key_ms"]) / op_ms,
        "model_steps": metrics["model.steps"],
    }
    return _outcome(passes, verdicts), _units(metrics), details


def replay_serve_cold(ctx):
    from repro.fleet import run_worker

    recorder = tracing.Recorder()
    tracing.install(recorder)
    passes = Passes(recorder)
    verdicts: list = []
    counter = itertools.count()

    def run_batch(batch, op):
        work = ctx.directory(f"pass-{next(counter)}")
        store, spool = os.path.join(work, "store"), os.path.join(work, "spool")
        server, thread = _serve_in_thread(store, spool)
        worker = threading.Thread(
            target=run_worker, args=(spool,),
            kwargs={"poll": 0.02, "max_jobs": len(batch), "log": lambda message: None},
            daemon=True,
        )
        worker.start()
        client = Client(server.server_address[1])
        try:
            ops = [
                op(lambda body=body, i=i: cold_op(client, body, COLD_JITTER * phase(i)))
                for i, body in enumerate(batch)
            ]
        finally:
            client.close()
            worker.join(timeout=60)
            _stop_server(server, thread)
        verdicts.extend(verify_answers(ops, store, "fill"))
        return ops

    passes.run(
        ctx.seconds,
        _batches(inputs.cold_operations(ctx.seed), PASS_OPS["serve-cold"]),
        run_batch,
    )
    metrics, details = passes.metrics(ctx)
    reference_checks(passes.ops, verdicts)
    layers = details["layer_self_ms"]
    details["isolation"] = {"largest_self_time_layer": max(layers, key=layers.get)}
    return _outcome(passes, verdicts), _units(metrics), details


def replay_cli_sweep(ctx):
    from repro.cli import main

    recorder = tracing.Recorder()
    tracing.install(recorder)

    def in_process(index, command) -> Op:
        op = Op(index, time.perf_counter())
        buffer = io.StringIO()
        try:
            with redirect_stdout(buffer):
                code = main(command)
            if code:
                op.error = f"exit code {code}"
        except Exception as error:  # noqa: BLE001
            op.error = f"{type(error).__name__}: {error}"
        op.ended = time.perf_counter()
        op.stdout = buffer.getvalue()
        return op

    commands, colds = cli_setup(ctx, in_process)

    def run_batch(batch, op):
        return [op(lambda index=index: in_process(index, commands[index])) for index in batch]

    passes = Passes(recorder)
    passes.run(
        ctx.seconds,
        _batches(inputs.cli_operations(ctx.seed), PASS_OPS["cli-sweep"]),
        run_batch,
    )
    metrics, details = passes.metrics(ctx)
    verdicts = verify_cli(passes.ops, colds)
    # The untraced op, for the start-up share: one warm child per command.
    walls = [child_op(ctx, index, command).seconds for index, command in enumerate(commands)]
    details["isolation"] = {
        "import_share_of_child_op": metrics["cli.import_s"] / stats.median(walls),
        "model_steps": metrics["model.steps"],
    }
    return _outcome(passes, verdicts), _units(metrics), details


def _outcome(passes: Passes, verdicts: list) -> Outcome:
    return Outcome(passes.ops, verdicts, passes.idle_seconds + passes.traced_seconds, [], 0.0)


REPLAYS = {
    "serve-warm": replay_serve_warm,
    "serve-cold": replay_serve_cold,
    "cli-sweep": replay_cli_sweep,
}
