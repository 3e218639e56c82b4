"""Per-layer tracing of qlie from outside the program.

`Tracer.install()` wraps the public functions of each qlie module, patching
every place a caller looks a name up: module globals (`checks` binds
`compose`, `embed` and `op_rhat` at import), module-level dicts such as
`checks._FUNCTIONAL_OPS`, and class attributes for methods.  `uninstall()`
restores the originals.  Names a later version of the program no longer has
are skipped, so their metrics read 0.

Every wrapped call adds to one record per metric group: its call count, the
inclusive time of the outermost call of the group, and its self time (its
duration minus the duration of the wrapped calls it made).  A layer's self
time is the sum over its groups, so the self times of all layers add up to
the time spent inside `cli.main`.  Coarse calls (CLI, suites, construction,
composition, elimination) also leave a span (name, start, end, parent,
invocation) in memory; scalar, Laurent and free-algebra calls are too many
to keep one span each and are only counted.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("scalars", "laurent", "operators", "cg", "checks", "freealg", "rtt", "linalg", "cli")

SUITE_FUNCTIONS = {
    "braid": "suite_braid",
    "ybe": "suite_ybe",
    "cybe": "suite_cybe",
    "components": "check_component_identities",
    "ybfr": "check_quadratic_ybe_components",
    "qlie": "suite_qlie",
}

# (group, layer, module, names, keep spans)
FUNCTIONS = [
    ("cli.main", "cli", "qlie.cli", ("main",), True),
    *[(f"checks.{s}", "checks", "qlie.checks", (f,), True) for s, f in SUITE_FUNCTIONS.items()],
    ("rtt.compare", "rtt", "qlie.rtt", ("compare_relation_spans",), True),
    ("linalg.prefilter", "linalg", "qlie.linalg", ("numeric_echelon", "numeric_contains"), True),
    ("linalg.echelon", "linalg", "qlie.linalg", ("echelon",), True),
    ("cg.build", "cg", "qlie.cg",
     ("sigma_cg", "sigma_cg_family", "structure_constants", "extended_rhat"), True),
    ("operators.compose", "operators", "qlie.operators", ("compose",), True),
    ("operators.embed", "operators", "qlie.operators", ("embed",), True),
    ("operators.from_functional", "operators", "qlie.operators", ("from_functional",), True),
    ("laurent.op", "laurent", "qlie.laurent", ("op_rho", "op_s", "op_r", "op_rhat", "permute"), False),
    ("laurent.divided_difference", "laurent", "qlie.laurent", ("divided_difference",), False),
]

# (group, layer, module, class, method names, keep spans)
METHODS = [
    ("scalars.mul", "scalars", "qlie.scalars", "Scalar", ("__mul__", "__rmul__"), False),
    ("scalars.add", "scalars", "qlie.scalars", "Scalar", ("__add__",), False),
    ("scalars.substitute", "scalars", "qlie.scalars", "Scalar", ("substitute",), False),
    ("scalars.exact_div", "scalars", "qlie.scalars", "Scalar", ("exact_div",), False),
    ("scalars.other", "scalars", "qlie.scalars", "Scalar", ("__sub__", "__neg__", "__str__"), False),
    ("laurent.monomial", "laurent", "qlie.laurent", "LaurentFn", ("monomial",), False),
    ("laurent.other", "laurent", "qlie.laurent", "LaurentFn", ("__add__", "__sub__", "__neg__", "scale"), False),
    ("operators.other", "operators", "qlie.operators", "Operator",
     ("__add__", "__sub__", "__neg__", "scale", "map_entries", "with_entry"), False),
    ("freealg.ncpoly_mul", "freealg", "qlie.freealg", "NCPoly", ("__mul__",), False),
    ("freealg.other", "freealg", "qlie.freealg", "NCPoly", ("__add__", "__sub__", "__neg__", "scale"), False),
    ("linalg.contains", "linalg", "qlie.linalg", "Echelon", ("contains",), True),
]

# lazy generators, timed as they are consumed rather than when created
GENERATORS = [("rtt.relations", "rtt", "qlie.rtt", ("all_rtt_relations", "all_bcc_relations"))]

MODULES = ("qlie", "qlie.scalars", "qlie.laurent", "qlie.operators", "qlie.cg", "qlie.checks",
           "qlie.freealg", "qlie.linalg", "qlie.rtt", "qlie.cli")

_END = object()


def self_time_tolerance(traced_verdict_s: float) -> float:
    """How far the summed layer self times may sit from the traced verdict_s.

    They differ only by the moments between the benchmark's timer and the
    root span around each `cli.main` call.
    """
    return 0.01 * traced_verdict_s + 0.01


class Group:
    __slots__ = ("layer", "calls", "total", "self_time", "depth", "counts")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self) -> None:
        self.groups: dict[str, Group] = {}
        self.spans: list = []
        self.invocation = 0
        self._frames = [0.0]  # time of wrapped children, per open call
        self._open_spans: list[int] = []
        self._undo: list[tuple] = []
        self._modules = [importlib.import_module(m) for m in MODULES]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for group, layer, module, names, spans in FUNCTIONS:
            mod = importlib.import_module(module)
            for name in names:
                original = getattr(mod, name, None)
                if callable(original):
                    after = _AFTER.get(group)
                    self._replace(original, self._wrap(group, layer, original, spans, after))
        for group, layer, module, cls_name, names, spans in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            wrapped: dict[int, Callable] = {}
            for name in names:
                raw = cls.__dict__.get(name) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(group, layer, raw.__func__, spans, None))
                else:
                    if id(raw) not in wrapped:
                        wrapped[id(raw)] = self._wrap(group, layer, raw, spans, None)
                    replacement = wrapped[id(raw)]
                self._undo.append((cls, name, raw, False))
                setattr(cls, name, replacement)
        for group, layer, module, names in GENERATORS:
            mod = importlib.import_module(module)
            for name in names:
                original = getattr(mod, name, None)
                if callable(original):
                    self._replace(original, self._wrap_generator(group, layer, original))

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._undo):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def _replace(self, original: Callable, replacement: Callable) -> None:
        """Rebind every module global and module-level dict value that is `original`."""
        for mod in self._modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original, False))
                    setattr(mod, name, replacement)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original, True))
                            value[key] = replacement

    # -- wrappers -------------------------------------------------------------

    def _group(self, name: str, layer: str) -> Group:
        group = self.groups.get(name)
        if group is None:
            group = self.groups[name] = Group(layer)
        return group

    def _wrap(self, name: str, layer: str, fn: Callable, keep_spans: bool,
              after: Optional[Callable]) -> Callable:
        group = self._group(name, layer)
        frames = self._frames
        tracer = self

        if not keep_spans:
            def wrapper(*args, **kwargs):
                frames.append(0.0)
                group.depth += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t0
                    child = frames.pop()
                    frames[-1] += d
                    group.calls += 1
                    group.self_time += d - child
                    group.depth -= 1
                    if not group.depth:
                        group.total += d
            return wrapper

        label = f"{name}:{getattr(fn, '__name__', '?')}"
        spans = self.spans
        open_spans = self._open_spans

        def span_wrapper(*args, **kwargs):
            frames.append(0.0)
            group.depth += 1
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                child = frames.pop()
                frames[-1] += d
                group.calls += 1
                group.self_time += d - child
                group.depth -= 1
                if not group.depth:
                    group.total += d
                open_spans.pop()
                spans[sid] = (label, t0, t1, parent, tracer.invocation)
            if after is not None:
                after(group, args, result)
            return result
        return span_wrapper

    def _wrap_generator(self, name: str, layer: str, fn: Callable) -> Callable:
        group = self._group(name, layer)
        step = self._wrap(name, layer, next, False, None)

        def consume(iterator):
            while True:
                item = step(iterator, _END)
                if item is _END:
                    return
                if not item[1].is_zero():
                    group.add("nonzero", 1)
                yield item

        def factory(*args, **kwargs):
            return consume(fn(*args, **kwargs))
        return factory

    # -- results --------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for group in self.groups.values():
            out[group.layer] = out.get(group.layer, 0.0) + group.self_time
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, invocation = span
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "invocation": invocation}) + "\n")


def _after_compose(group: Group, args: tuple, result) -> None:
    group.add("nnz_in", len(args[0].entries) + len(args[1].entries))
    group.add("nnz_out", len(result.entries))


def _after_echelon(group: Group, args: tuple, result) -> None:
    group.add("rows_in", len(args[0]))
    group.add("rank", result.rank)
    pivots = [step[1].term_count() for step in getattr(result, "steps", ())]
    group.counts["max_pivot_terms"] = max([group.counts.get("max_pivot_terms", 0), *pivots])


def _after_report(group: Group, args: tuple, result) -> None:
    group.add("witnesses", result.failures)


# groups whose calls return a verification report, rtt's included
REPORTING = (*(f"checks.{s}" for s in SUITE_FUNCTIONS), "rtt.compare")

_AFTER = {
    "operators.compose": _after_compose,
    "linalg.echelon": _after_echelon,
    **{name: _after_report for name in REPORTING},
}


def per_layer_metrics(tracer: Tracer, report_bytes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, as (value, unit)."""
    g = tracer.groups
    empty = Group("")

    def grp(name: str) -> Group:
        return g.get(name, empty)

    layer_self = tracer.layer_self_times()
    m: dict[str, tuple[float, str]] = {}

    def calls(metric: str, name: str) -> None:
        m[metric] = (grp(name).calls, "count")

    def secs(metric: str, name: str) -> None:
        m[metric] = (grp(name).total, "s")

    def count(metric: str, name: str, key: str) -> None:
        m[metric] = (grp(name).counts.get(key, 0), "count")

    calls("scalars.mul_calls", "scalars.mul")
    secs("scalars.mul_s", "scalars.mul")
    calls("scalars.add_calls", "scalars.add")
    calls("scalars.substitute_calls", "scalars.substitute")
    secs("scalars.substitute_s", "scalars.substitute")
    calls("scalars.exact_div_calls", "scalars.exact_div")
    secs("scalars.exact_div_s", "scalars.exact_div")
    calls("laurent.op_calls", "laurent.op")
    secs("laurent.op_s", "laurent.op")
    calls("laurent.divided_difference_calls", "laurent.divided_difference")
    calls("laurent.monomials_applied", "laurent.monomial")
    calls("operators.compose_calls", "operators.compose")
    secs("operators.compose_s", "operators.compose")
    count("operators.compose_nnz_in", "operators.compose", "nnz_in")
    count("operators.compose_nnz_out", "operators.compose", "nnz_out")
    secs("operators.embed_s", "operators.embed")
    secs("operators.from_functional_s", "operators.from_functional")
    secs("cg.build_s", "cg.build")
    for suite in SUITE_FUNCTIONS:
        secs(f"checks.{suite}.wall_s", f"checks.{suite}")
    m["checks.witnesses"] = (sum(grp(name).counts.get("witnesses", 0) for name in REPORTING), "count")
    calls("freealg.ncpoly_mul_calls", "freealg.ncpoly_mul")
    secs("freealg.ncpoly_mul_s", "freealg.ncpoly_mul")
    secs("rtt.wall_s", "rtt.compare")
    secs("rtt.relations_s", "rtt.relations")
    count("rtt.relations_nonzero", "rtt.relations", "nonzero")
    calls("linalg.prefilter_calls", "linalg.prefilter")
    secs("linalg.prefilter_s", "linalg.prefilter")
    calls("linalg.echelon_calls", "linalg.echelon")
    secs("linalg.echelon_s", "linalg.echelon")
    count("linalg.echelon_rows_in", "linalg.echelon", "rows_in")
    count("linalg.echelon_rank", "linalg.echelon", "rank")
    count("linalg.max_pivot_terms", "linalg.echelon", "max_pivot_terms")
    calls("linalg.contains_calls", "linalg.contains")
    secs("linalg.contains_s", "linalg.contains")
    nonzero = grp("rtt.relations").counts.get("nonzero", 0)
    m["linalg.exact_fallback_ratio"] = (grp("linalg.contains").calls / nonzero if nonzero else 0.0, "ratio")
    secs("cli.wall_s", "cli.main")
    m["cli.report_bytes"] = (report_bytes, "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
