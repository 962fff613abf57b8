"""Spans around calls into the program's modules, recorded from outside it.

The traced run swaps public names in `upqstab`'s module namespaces for
wrappers that time each call, and swaps them back after every traced request,
so untraced requests run the program untouched.  Nothing in the program is
edited.

A span has a name `<layer>.<call>`, start and end (ns), a parent span and a
request id.  Calls made thousands of times per request (rational formatting,
per-witness Milnor-Wood bounds, per-case selftest checks) are folded into one
aggregate span per request, name and parent, which carries the call count
and the summed time.  A layer's self time is its spans' time minus the time of
their direct children.  Work a thread pool runs in worker threads is parented
to the fan-out span that started it; because those calls can overlap in wall
time, a fan-out span's self time is clamped at zero.  The fresh-interpreter
probes of the `proc` and `import` layers record their spans under the request
id `probes`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# layers timed around calls inside a request, and layers timed by probes in fresh interpreters
REQUEST_LAYERS = ("cli", "walls", "milnor_wood", "core", "oracle", "concurrency")
PROBE_LAYERS = ("proc", "import")
PROBES = "probes"  # the request id of probe spans


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[dict] = []
        self.request: int | str | None = None
        self._aggregates: dict[tuple, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self._fanout

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._parent()
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                      "request": self.request, "calls": 1, "busy_ns": end - start}
            with self._lock:
                self.spans.append(record)

    def _hot_call(self, name: str, fn, args, kwargs):
        key = (self.request, name, self._parent())
        with self._lock:
            record = self._aggregates.get(key)
            if record is None:
                record = {"id": next(self._ids), "name": name, "start_ns": None, "end_ns": None,
                          "parent": key[2], "request": self.request, "calls": 0, "busy_ns": 0}
                self._aggregates[key] = record
                self.spans.append(record)
        stack = self._stack()
        stack.append(record["id"])
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                record["calls"] += 1
                record["busy_ns"] += end - start
                if record["start_ns"] is None:
                    record["start_ns"] = start
                record["end_ns"] = end

    # ------------------------------------------------------------ patching

    def _patch(self, module, attr: str, wrapper_for) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))

    def _span_wrapper(self, name):
        def wrap(fn):
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                with self.span(label):
                    return fn(*args, **kwargs)
            return traced
        return wrap

    def _hot_wrapper(self, name: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                return self._hot_call(name, fn, args, kwargs)
            return traced
        return wrap

    def _fanout_wrapper(self, item_name: str):
        def wrap(fn):
            def traced(item_fn, items, jobs=None):
                with self.span("concurrency.ordered_map") as span_id:
                    outer, self._fanout = self._fanout, span_id
                    try:
                        return fn(lambda item: self._hot_call(item_name, item_fn, (item,), {}), items, jobs)
                    finally:
                        self._fanout = outer
            return traced
        return wrap

    @contextmanager
    def installed(self):
        """Wrap the program's public calls for the duration of the block."""
        cli, walls, oracle = self.modules["cli"], self.modules["walls"], self.modules["oracle"]
        span, hot = self._span_wrapper, self._hot_wrapper
        patches = [
            (cli, "main", span("cli.main")),
            (cli, "parse_args", span("cli.parse_args")),
            (cli, "run", span("cli.run")),
            (cli, "_execute", span("cli.engine")),
            (cli, "render", span(lambda config, report: f"cli.render_{config.output_format}")),
            (cli, "enumerate_walls", span("walls.enumerate_walls")),
            (cli, "chamber_report", span("walls.chamber_report")),
            (cli, "irreducibility_certificate", span("walls.irreducibility_certificate")),
            (cli, "mw_check", span("milnor_wood.mw_check")),
            (cli, "property_driver", span("oracle.property_driver")),
            (cli, "toledo", hot("core.toledo")),
            (cli, "format_rational", hot("core.format_rational")),
            (cli, "parse_rational", hot("core.parse_rational")),
            (walls, "enumerate_walls", span("walls.enumerate_walls")),
            (walls, "ordered_map", self._fanout_wrapper("walls.family_walls")),
            (walls, "toledo_bounds", hot("milnor_wood.toledo_bounds")),
            (walls, "format_rational", hot("core.format_rational")),
            (walls, "as_rational", hot("core.as_rational")),
            (oracle, "ordered_map", self._fanout_wrapper("oracle.check_case")),
            (oracle, "toledo_bounds", hot("milnor_wood.toledo_bounds")),
            (oracle, "envelope_toledo_bounds", hot("oracle.envelope_toledo_bounds")),
        ]
        for name in ("toledo", "alpha_slope_quiver", "alpha_slope_upq", "compare_at", "slope",
                     "upq_quiver_type", "upq_parameter_vector"):
            patches.append((oracle, name, hot(f"core.{name}")))
        for module, attr, wrapper_for in patches:
            self._patch(module, attr, wrapper_for)
        try:
            yield
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    @contextmanager
    def probe_scope(self):
        """Tag the spans of the fresh-interpreter probes with their own request id."""
        self.request = PROBES
        try:
            yield
        finally:
            self.request = None

    @contextmanager
    def request_scope(self, request: int):
        """Trace one request: patches in, a root span, spans tagged with its id."""
        self.request = request
        try:
            with self.installed(), self.span("bench.request"):
                yield
        finally:
            self.request = None

    # ------------------------------------------------------------ report

    def per_request(self) -> dict[int | str, dict[str, float]]:
        """For each request id, keyed `busy.<span>` (ms), `self.<span>` (ms),
        `calls.<span>`, `layer.<layer>` (self ms summed over the layer) and
        `convert` (ms of engine calls outside the engine kernels they made)."""
        child_ns: dict[int, int] = defaultdict(int)
        kernel_ns: dict[int, int] = defaultdict(int)
        for record in self.spans:
            if record["parent"] is not None:
                child_ns[record["parent"]] += record["busy_ns"]
                if record["name"].split(".")[0] in ("walls", "milnor_wood", "oracle"):
                    kernel_ns[record["parent"]] += record["busy_ns"]
        table: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for record in self.spans:
            row = table[record["request"]]
            name, busy = record["name"], record["busy_ns"]
            self_ms = max(0, busy - child_ns[record["id"]]) / 1e6
            row[f"busy.{name}"] += busy / 1e6
            row[f"self.{name}"] += self_ms
            row[f"calls.{name}"] += record["calls"]
            row[f"layer.{name.split('.')[0]}"] += self_ms
            if name == "cli.engine":
                row["convert"] += (busy - kernel_ns[record["id"]]) / 1e6
        return table

    def dump(self, path, extra: dict) -> None:
        """Write every span plus each layer's per-request self times as JSON."""
        table = self.per_request()
        layers = {str(request): {layer: row[f"layer.{layer}"] for layer in (*REQUEST_LAYERS, *PROBE_LAYERS)
                                 if f"layer.{layer}" in row}
                  for request, row in table.items()}
        doc = {"spans": self.spans, "layer_self_ms_by_request": layers, **extra}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
