"""Span tracing of the udlrc layers, installed from outside the library.

`Tracer.install` wraps every public function of each layer module and every
plain public method of the classes defined there (plus `__init__` and
`__matmul__`), patching methods on their class and module-level names at
every import site inside the package, so `udlrc.cli.min_distance_oracle` and
`udlrc.analysis.min_distance_oracle` both reach the same wrapper.  Each call
records one span: name, start, end and parent span.  Spans live in compact
arrays in memory and are written out once, after the traced work.

Calls from one field operation into another (the `mul`s inside `inv`,
`pow` and `frobenius`, the irreducibility search inside `ExtField(...)`)
are not layer boundaries, so they are folded into the outer span instead of
recorded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("fields", "linalg", "gabidulin", "construction", "bounds", "analysis", "specfile", "cli")
WRAPPED_DUNDERS = ("__init__", "__matmul__")
# Spans whose truthy results are counted, for accept ratios.
COUNT_TRUE = ("linalg.RankTracker.add",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.true_counts: dict[str, list[int]] = {}
        self._stack = [-1]
        self._in_fields = [False]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        if layer == "fields":
            busy = self._in_fields

            def traced(*args, **kwargs):
                if busy[0]:
                    return fn(*args, **kwargs)
                busy[0] = True
                i = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                    busy[0] = False

        else:
            hits = self.true_counts.setdefault(name, [0]) if name in COUNT_TRUE else None

            def traced(*args, **kwargs):
                i = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    if hits is not None and result:
                        hits[0] += 1
                    return result
                finally:
                    end[i] = clock()
                    stack.pop()

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the layers of an imported udlrc package."""
        sites = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, BaseException):
                        continue
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth in WRAPPED_DUNDERS):
                            self._patch(obj, meth, self._wrap(fn, f"{layer}.{obj.__name__}.{meth}", layer))
                elif callable(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    for site in sites:
                        for name, value in list(vars(site).items()):
                            if value is obj:
                                self._patch(site, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part covered by its child spans."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw column arrays, gzipped."""
        header = {
            "names": self.names,
            "spans": len(self),
            "byteorder": sys.byteorder,
            "columns": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)


# Per-layer metric groups: metric prefix -> span names it covers.  `calls`
# counts spans entered from outside the group, `self_s` sums self time.
GROUPS = {
    "fields.mul": ("fields.ExtField.mul", "fields.PrimeField.mul"),
    "fields.inv": ("fields.ExtField.inv", "fields.PrimeField.inv"),
    "fields.frobenius": ("fields.ExtField.frobenius",),
    "fields.ext_init": ("fields.ExtField.__init__",),
    "linalg.rank": ("linalg.Matrix.rank",),
    "linalg.solve": ("linalg.Matrix.solve",),
    "linalg.rank_tracker": ("linalg.RankTracker.add",),
    "linalg.multiply": ("linalg.Matrix.left_multiply", "linalg.Matrix.__matmul__"),
    "gabidulin.interpolate": ("gabidulin.interpolate",),
    "gabidulin.moore_matrix": ("gabidulin.moore_matrix",),
    "construction.build_code": ("construction.build_code",),
    "construction.encode": ("construction.encode",),
    "construction.decode_erasures": ("construction.decode_erasures",),
    "construction.erank": ("construction.erank",),
    "bounds": None,  # every span of the bounds module
    "analysis.oracle": ("analysis.min_distance_oracle",),
    "analysis.cover_trace": ("analysis.class_cover_trace",),
    "analysis.witness": ("analysis.rank_deficiency_witness",),
    "analysis.certify_optimal": ("analysis.certify_distance_optimal",),
    "cli.main": ("cli.main",),
    "specfile.load_spec_file": ("specfile.load_spec_file",),
}

# (metric, counted span, enclosing span): calls of one span made inside another.
NESTED_CALLS = (
    ("analysis.oracle.rank_calls", "linalg.Matrix.rank", "analysis.min_distance_oracle"),
    ("analysis.certify_optimal.erank_calls", "construction.erank", "analysis.certify_distance_optimal"),
)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, tuple[int, float]]]:
    """The per-layer metrics and, per span name, (calls, self seconds)."""
    names = tracer.names
    member = {}
    for group, span_names in GROUPS.items():
        for nid, name in enumerate(names):
            covered = name in span_names if span_names else name.startswith(group + ".")
            if covered:
                member[nid] = group
    n_names = len(names)
    calls = [0] * n_names
    own = [0.0] * n_names
    entered: dict[str, int] = dict.fromkeys(GROUPS, 0)
    group_self: dict[str, float] = dict.fromkeys(GROUPS, 0.0)
    name_id, parent = tracer.name_id, tracer.parent
    for i, s in enumerate(tracer.self_times()):
        nid = name_id[i]
        calls[nid] += 1
        own[nid] += s
        group = member.get(nid)
        if group is not None:
            group_self[group] += s
            p = parent[i]
            if p < 0 or member.get(name_id[p]) != group:
                entered[group] += 1

    metrics: dict[str, float] = {}
    for group in GROUPS:
        metrics[f"{group}.calls"] = entered[group]
        metrics[f"{group}.self_s"] = group_self[group]
    adds = metrics.pop("linalg.rank_tracker.calls")
    accepted = tracer.true_counts.get("linalg.RankTracker.add", [0])[0]
    metrics["linalg.rank_tracker.adds"] = adds
    metrics["linalg.rank_tracker.accept_ratio"] = accepted / adds if adds else 0.0

    for metric, counted, enclosing in NESTED_CALLS:
        want = names.index(counted) if counted in names else -1
        outer = names.index(enclosing) if enclosing in names else -1
        inside = bytearray(len(name_id))
        total = 0
        for i, nid in enumerate(name_id):
            p = parent[i]
            under = p >= 0 and (inside[p] or name_id[p] == outer)
            inside[i] = under
            if under and nid == want:
                total += 1
        metrics[metric] = total

    table = {names[nid]: (calls[nid], own[nid]) for nid in range(n_names) if calls[nid]}
    return metrics, table
