"""Output checks.  None of them runs inside a timed region.

The expected answers come from the program's own library, imported by the
driver: a request compiled with :func:`repro.api.compile_request` and
assembled from the store records, serialized the way the HTTP adapter
serializes responses.
"""

from __future__ import annotations

import json
import re

_CACHE_MARKER = re.compile(r"\s+\[cached\]$")


def canonical_json(payload) -> bytes:
    """The bytes the HTTP adapter sends for ``payload``."""
    from repro.engine import jsonify

    return (json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n").encode("utf-8")


def plan_of(body: dict):
    from repro.api import WorkRequest, compile_request

    return compile_request(WorkRequest.from_dict(body))


def body_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def expected_answer(store, body: dict):
    """``(response bytes, ETag)`` a correct server gives for ``body``, or None."""
    from repro.serve.service import plan_etag

    plan = plan_of(body)
    records = {}
    for job in plan.jobs:
        record = store.get(job.store_key())
        if record is None:
            return None
        records[job.tag] = record
    return canonical_json(plan.assemble(records)), plan_etag(plan)


def answer_error(exchange, expected, cache: str):
    """Why a final 200 does not match ``expected``; None when it does."""
    if exchange.status != 200:
        return f"status {exchange.status}"
    if exchange.headers.get("X-Cache") != cache:
        return f"X-Cache {exchange.headers.get('X-Cache')!r}, expected {cache!r}"
    if expected is None:
        return "the store lacks a record the answer needs"
    data, etag = expected
    if exchange.headers.get("ETag") != etag:
        return f"ETag {exchange.headers.get('ETag')!r}, expected {etag!r}"
    if exchange.body != data:
        return "body differs from the assembled store records"
    return None


def reference_error(body: dict, answer: bytes):
    """Why ``answer`` disagrees with a set-kernel Engine run; None when it agrees."""
    from repro.engine import Engine

    plan = plan_of(body)
    measurements = json.loads(answer)["measurements"]
    for job, measurement in zip(plan.jobs, measurements):
        reference = [int(t) for t in Engine(backend="set").run(job.spec).flooding_times]
        if measurement["samples"] != reference:
            return f"{job.tag}: flooding times differ from the set-kernel run"
    if len(measurements) != len(plan.jobs):
        return "wrong number of measurements"
    return None


def strip_cache_markers(stdout: str) -> str:
    return "\n".join(_CACHE_MARKER.sub("", line) for line in stdout.splitlines())


def cli_error(warm: str, cold: str):
    """Why a warm `repro sweep` stdout is not the cold one plus cache markers."""
    points = [line for line in warm.splitlines() if line.lstrip().startswith("n=")]
    if not points or not all(line.endswith("[cached]") for line in points):
        return "not every sweep point was served from the store"
    if strip_cache_markers(warm) != strip_cache_markers(cold):
        return "stdout differs from the cold run"
    return None
