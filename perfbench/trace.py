"""Span tracing from the benchmark's side of each layer boundary.

The program is not instrumented for this: the traced run rebinds each
layer's public function, in every ``repro`` module that imported it, to a
wrapper that records a span (name, start, end, parent) into a
:class:`SpanRecorder`.  The defining module keeps the original, so a
layer's calls into its own module (the sync scheduler's never-degrade
guard calling the list scheduler) stay inside that layer's span.  Untraced
rounds run with the originals bound and record nothing.

Per op, each layer's *self* time is its spans' durations minus the time
their child spans cover; the op's own root span keeps the remainder as
``pipeline.unattributed_s``, so layers plus remainder add up to the op's
wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layer span name -> (module that re-exports it, public function).
LAYERS: dict[str, tuple[str, str]] = {
    "ir.parse_loop": ("repro.ir.parser", "parse_loop"),
    "transforms.restructure": ("repro.transforms", "restructure"),
    "sync.insert": ("repro.sync", "insert_synchronization"),
    "codegen.lower": ("repro.codegen", "lower_loop"),
    "dfg.build": ("repro.dfg", "build_dfg"),
    "sched.list": ("repro.sched", "list_schedule"),
    "sched.sync": ("repro.sched", "sync_schedule"),
    "sched.verify": ("repro.sched", "assert_valid"),
    "sim.simulate": ("repro.sim", "simulate_doacross"),
}

#: Root span of one op; its self time is the unattributed remainder.
OP_SPAN = "op"


def _count_output(layer: str, result: Any) -> dict[str, float]:
    """Exact counters read off a layer call's return value."""
    if layer == "sync.insert":
        return {"sync.pairs": len(result.pairs)}
    if layer == "codegen.lower":
        return {"codegen.instructions": len(result.instructions)}
    if layer == "dfg.build":
        return {"dfg.arcs": len(result.edges)}
    if layer == "sched.sync":
        return {"sched.sync.runtime_lbd_pairs": len(result.runtime_lbd_pairs())}
    if layer == "sim.simulate":
        return {"sim.fast_path": 1 if result.dispatch == "fast_path" else 0}
    return {}


@dataclass
class SpanRecorder:
    """Spans kept in memory as ``[op, name, start_ns, end_ns, parent]`` rows
    (``parent`` indexes ``spans``; ``None`` for an op's root span)."""

    spans: list[list[Any]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _outputs: list[tuple[str, Any]] = field(default_factory=list)
    ops: int = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.ops, name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._outputs.append((layer, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self) -> "_OpSpan":
        """Context manager around one op: a root span, then (outside the
        timed interval) the counters read off the layers' outputs."""
        return _OpSpan(self)

    def _finish_op(self) -> None:
        for layer, result in self._outputs:
            for name, value in _count_output(layer, result).items():
                self.counters[name] += value
            self.counters[f"{layer}.calls"] += 1
        self._outputs.clear()
        self.ops += 1

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["op", "name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "counters": self.counters,
                    "ops": self.ops,
                },
                handle,
            )


class _OpSpan:
    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def __enter__(self) -> SpanRecorder:
        self.index = self.recorder.begin(OP_SPAN)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        self.recorder.end(self.index)
        self.recorder._finish_op()


def self_times(spans: list[list[Any]]) -> dict[int, dict[str, float]]:
    """Per op, seconds of self time by span name (the root span's self
    time is filed under :data:`OP_SPAN`)."""
    child_ns = [0] * len(spans)
    for row in spans:
        parent = row[4]
        if parent is not None:
            child_ns[parent] += row[3] - row[2]
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (op, name, start, end, _parent) in enumerate(spans):
        per_op[op][name] += (end - start - child_ns[index]) / 1e9
    return per_op


class LayerPatch:
    """Rebinds every layer function in every loaded ``repro`` module except
    its defining one.  Import the modules an op path uses before
    constructing this: later imports bind the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.bindings: list[tuple[Any, str, Callable, Callable]] = []
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = recorder.wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                if name == original.__module__:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, key, original, wrapper))

    def install(self) -> None:
        for module, key, _original, wrapper in self.bindings:
            setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original, _wrapper in self.bindings:
            setattr(module, key, original)

    def __enter__(self) -> "LayerPatch":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


#: First components under ``repro`` that ``import.repro.<name>_ms`` reports;
#: ``init`` is the package ``__init__`` itself, anything else is ``other``.
IMPORT_GROUPS = (
    "cli", "codegen", "deps", "dfg", "init", "ir", "obs", "options", "perf",
    "pipeline", "report", "robust", "sched", "schema", "service", "sim",
    "sync", "transforms", "workloads", "other",
)


def import_times(stderr: str) -> dict[str, float]:
    """Milliseconds of ``python -X importtime`` self time by ``repro``
    group.  Modules outside ``repro`` are charged to the nearest ``repro``
    module that imported them; imports no ``repro`` module caused (the
    interpreter's own start-up) are left out.  ``total`` sums the groups."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":", 1)[1])
        except ValueError:
            continue  # the header line
        name_field = parts[2]
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        rows.append((depth, name, self_us))
    groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
    stack: list[tuple[int, str | None]] = []
    # importtime prints children before their parent; reversed, every
    # parent precedes its subtree.
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "repro":
            group = "init"
        elif name.startswith("repro."):
            first = name.split(".")[1]
            group = first if first in groups else "other"
        else:
            group = stack[-1][1] if stack else None
        stack.append((depth, group))
        if group is not None:
            groups[group] += self_us / 1e3
    groups["total"] = sum(groups[g] for g in IMPORT_GROUPS)
    return groups
