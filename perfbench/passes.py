"""Op timing, output checks and spans for one benchmark pass.

Every call into oamix goes through `Pass.op`, which times it, keeps its
result and counts an exception as a failed op.  An op's time is the CPU time
it used, in this process and in the child processes it waited for: the
program is single-threaded here (BLAS pinned to one thread, FDS with one
worker), so that is its wall time less the time it waited for a CPU, in this
machine or on a shared host that ran another guest on it (steal time, which
the kernel leaves out of CPU time).  Output checks run after the
pass has been timed and mark the op they judge as failed.  When a `Tracer` is
given, each op also leaves a span (name, start, end, parent) in memory; the
spans are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import resource
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans of the traced passes, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, name: str, parent: int | None) -> int:
        self.spans.append(
            {"id": len(self.spans), "parent": parent, "name": name, "start_ns": time.perf_counter_ns(), "end_ns": None}
        )
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end_ns"] = time.perf_counter_ns()

    def record(self, name: str, parent: int, start_ns: int, end_ns: int) -> None:
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name, "start_ns": start_ns, "end_ns": end_ns})

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Op:
    __slots__ = ("key", "span", "seconds", "result", "error", "problems")

    def __init__(self, key: str, span: str):
        self.key = key
        self.span = span
        self.seconds = 0.0
        self.result = None
        self.error: str | None = None
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def layer(self) -> str:
        # interpreter start and imports belong to the CLI layer
        head = self.span.split(".", 1)[0]
        return "cli" if head in ("interp", "import") else head


class Pass:
    """The ops of one pass in order, plus the work counts they report.

    Use as a context manager around the ops; with a tracer it also records
    the pass as the parent span of its ops.
    """

    def __init__(self, kind: str, tracer: Tracer | None = None, parent: int | None = None):
        self.kind = kind
        self.tracer = tracer
        self.parent = parent
        self.span_id: int | None = None
        self.ops: list[Op] = []
        self.by_key: dict[str, Op] = {}
        self.counts: Counter = Counter()

    def __enter__(self) -> "Pass":
        if self.tracer is not None:
            self.span_id = self.tracer.open(self.kind, self.parent)
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.close(self.span_id)

    def op(self, key: str, span: str, fn, *args, **kwargs):
        """Run one call into the program; its result, or None if it raised."""
        if key in self.by_key:
            raise KeyError(f"op key {key!r} used twice in one pass")
        record = Op(key, span)
        start = time.perf_counter_ns()
        cpu_start = cpu_seconds()
        try:
            record.result = fn(*args, **kwargs)
        except Exception as exc:  # a failing op is counted and reported, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
        record.seconds = cpu_seconds() - cpu_start
        end = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record(span, self.span_id, start, end)
        self.ops.append(record)
        self.by_key[key] = record
        return record.result

    def check(self, key: str, ok: bool, detail: str) -> None:
        """Judge the output of op `key`; a failed check fails the op."""
        if not ok:
            self.by_key[key].problems.append(detail)

    def result(self, key: str):
        return self.by_key[key].result

    def release(self) -> None:
        """Drop the ops' results once checked, so memory does not grow with passes."""
        for op in self.ops:
            op.result = None

    def failures(self) -> list[str]:
        out = []
        for op in self.ops:
            if op.error is not None:
                out.append(f"{self.kind} {op.key}: {op.error}")
            out.extend(f"{self.kind} {op.key}: {p}" for p in op.problems)
        return out


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_quickest_cpu(cpus: list[int]) -> None:
    """Pin this process, and the processes it starts, to whichever of `cpus`
    runs a short loop fastest right now.

    On a shared host one CPU can run the same loop up to twice as slowly as
    the other for seconds at a time; moving to the quicker one before each
    pass keeps part of that out of the program's times.
    """
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})
