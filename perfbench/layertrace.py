"""Span tracer for the traced run.

``Tracer.install`` replaces every public function of the traced
``gpauction`` modules by a wrapper, at every place a caller looks the
name up: the defining module, each ``gpauction`` module that imported
it, and the package namespace. A wrapper records one span per call
(name, start, end, parent span, optional detail); a call that returns a
generator gets a wrapped iterator whose every ``__next__`` is a span of
its own. Spans stay in memory; ``metrics`` reduces them and ``dump``
writes them out when the run ends. Private names are never wrapped.
"""
from __future__ import annotations

import inspect
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("pricing", "demand", "polytope", "linprog", "instances", "cli")


def _lp_detail(args, kwargs, out):
    lp = args[0] if args else kwargs["lp"]
    return (len(lp.rows), len(lp.objective), getattr(out, "status", None))


def _status_detail(args, kwargs, out):
    return getattr(out, "status", None)


# Result details kept on a span, for the metrics that need more than time.
DETAILS = {
    "linprog.lp_solve": _lp_detail,
    "pricing.ce_price_at_point": _status_detail,
}

NEXT = ".__next__"


class _TracedIter:
    """Times each ``__next__`` of a generator as a span; the detail is the
    creating span's index and whether a value was yielded."""

    __slots__ = ("_it", "_name", "_origin", "_tracer")

    def __init__(self, it, name, origin, tracer):
        self._it, self._name, self._origin, self._tracer = it, name, origin, tracer

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        idx = tr._open()
        t0 = perf_counter()
        try:
            value = next(self._it)
        except BaseException:
            tr._close(idx, self._name, t0, (self._origin, False))
            raise
        tr._close(idx, self._name, t0, (self._origin, True))
        return value


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, t0, t1, parent, detail)
        self._stack = [-1]
        self._patched: list = []  # (namespace, attribute, original)
        self.wrapped: set[str] = set()

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, t0, detail):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1], detail)

    def _wrap(self, name, fn):
        detail_of = DETAILS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open()
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                detail = detail_of(args, kwargs, out) if detail_of else None
                tracer._close(idx, name, t0, detail)
            if isinstance(out, types.GeneratorType):
                return _TracedIter(out, name + NEXT, idx, tracer)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package: str = "gpauction") -> None:
        """Wrap the public functions of the traced modules everywhere a
        ``gpauction`` module or the package binds them."""
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"{package}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        self.wrapped = set(originals.values())
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def scale_spans(self, first: int, scale: float) -> None:
        """Rescale the times of the spans from index ``first`` on, as the
        runner does for each call, so span times share its time base."""
        base = self.spans[first][1] if first < len(self.spans) else 0.0
        self.spans[first:] = [
            (name, base + (t0 - base) * scale, base + (t1 - base) * scale, parent, detail)
            for name, t0, t1, parent, detail in self.spans[first:]
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(spans, wrapped: set[str], passes: int) -> dict:
    """Reduce spans to the per-layer metrics, per traced pass, and list
    the absent ones. A metric whose functions were not found to wrap is
    absent, not reported as zero; a ratio whose base is empty (the layer
    did not run) reads 0."""
    busy = defaultdict(float)
    child = defaultdict(float)  # time of direct child spans, by span index
    calls = defaultdict(int)
    self_t = defaultdict(float)
    for span in spans:
        name, t0, t1, parent, _ = span
        if parent >= 0:
            child[parent] += t1 - t0
    # Busy time counts only the outermost span of a name on each stack.
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        base = name[: -len(NEXT)] if name.endswith(NEXT) else name
        nested = False
        p = parent
        while p >= 0:
            pb = spans[p][0]
            if (pb[: -len(NEXT)] if pb.endswith(NEXT) else pb) == base:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            busy[base] += t1 - t0
        if not name.endswith(NEXT):
            calls[name] += 1
        self_t[base] += (t1 - t0) - child[idx]

    def nearest(idx, names):
        p = spans[idx][3]
        while p >= 0:
            if spans[p][0] in names:
                return spans[p][0]
            p = spans[p][3]
        return None

    lp = [(i, s) for i, s in enumerate(spans) if s[0] == "linprog.lp_solve"]
    lp_under = defaultdict(int)
    for i, _ in lp:
        owner = nearest(i, ("pricing.ce_price_at_point", "pricing.ce_for_covering"))
        if owner:
            lp_under[owner] += 1
    found = sum(1 for s in spans if s[0] == "pricing.ce_price_at_point" and s[4] == "found")
    decomposed = {
        s[4][0] for s in spans
        if s[0] == "polytope.enumerate_decompositions" + NEXT and s[4][1]
    }
    yielded = defaultdict(int)
    for s in spans:
        if s[0].endswith(NEXT) and s[4][1]:
            yielded[s[0][: -len(NEXT)]] += 1

    per = 1.0 / passes
    n_lp = calls["linprog.lp_solve"]
    n_pp = calls["pricing.ce_price_at_point"]
    n_cov = calls["pricing.ce_for_covering"]
    n_dec = calls["polytope.enumerate_decompositions"]
    cli_self = sum(v for k, v in self_t.items() if k.startswith("cli."))

    table = [
        ("linprog.lp_solve.calls", "count", ["linprog.lp_solve"], lambda: n_lp * per),
        ("linprog.lp_solve.busy_s", "s", ["linprog.lp_solve"], lambda: busy["linprog.lp_solve"] * per),
        ("linprog.lp_solve.rows_mean", "rows", ["linprog.lp_solve"], lambda: _ratio(sum(s[4][0] for _, s in lp), n_lp)),
        ("linprog.lp_solve.cols_mean", "cols", ["linprog.lp_solve"], lambda: _ratio(sum(s[4][1] for _, s in lp), n_lp)),
        ("linprog.lp_solve.infeasible_ratio", "ratio", ["linprog.lp_solve"], lambda: _ratio(sum(1 for _, s in lp if s[4][2] == "infeasible"), n_lp)),
        ("pricing.lp_per_point", "count", ["pricing.ce_price_at_point", "linprog.lp_solve"], lambda: _ratio(lp_under["pricing.ce_price_at_point"], n_pp)),
        ("pricing.ce_price_at_point.calls", "count", ["pricing.ce_price_at_point"], lambda: n_pp * per),
        ("pricing.ce_price_at_point.self_s", "s", ["pricing.ce_price_at_point"], lambda: self_t["pricing.ce_price_at_point"] * per),
        ("pricing.ce_for_covering.calls", "count", ["pricing.ce_for_covering"], lambda: n_cov * per),
        ("pricing.ce_for_covering.self_s", "s", ["pricing.ce_for_covering"], lambda: self_t["pricing.ce_for_covering"] * per),
        ("pricing.lp_per_covering", "count", ["pricing.ce_for_covering", "linprog.lp_solve"], lambda: _ratio(lp_under["pricing.ce_for_covering"], n_cov)),
        ("pricing.optimal_ce.self_s", "s", ["pricing.optimal_ce"], lambda: self_t["pricing.optimal_ce"] * per),
        ("pricing.points_found_ratio", "ratio", ["pricing.ce_price_at_point"], lambda: _ratio(found, n_pp)),
        ("demand.candidate_points.yielded", "count", ["demand.candidate_points"], lambda: yielded["demand.candidate_points"] * per),
        ("demand.candidate_points.busy_s", "s", ["demand.candidate_points"], lambda: busy["demand.candidate_points"] * per),
        ("polytope.decomposable_ratio", "ratio", ["polytope.enumerate_decompositions"], lambda: _ratio(len(decomposed), n_dec)),
        ("demand.max_welfare.calls", "count", ["demand.max_welfare"], lambda: calls["demand.max_welfare"] * per),
        ("demand.max_welfare.self_s", "s", ["demand.max_welfare"], lambda: self_t["demand.max_welfare"] * per),
        ("polytope.enumerate_decompositions.calls", "count", ["polytope.enumerate_decompositions"], lambda: n_dec * per),
        ("polytope.enumerate_decompositions.yielded", "count", ["polytope.enumerate_decompositions"], lambda: yielded["polytope.enumerate_decompositions"] * per),
        ("polytope.enumerate_decompositions.busy_s", "s", ["polytope.enumerate_decompositions"], lambda: busy["polytope.enumerate_decompositions"] * per),
        ("demand.verify_ce.calls", "count", ["demand.verify_ce"], lambda: calls["demand.verify_ce"] * per),
        ("demand.verify_ce.busy_s", "s", ["demand.verify_ce"], lambda: busy["demand.verify_ce"] * per),
        ("demand.demand_set.calls", "count", ["demand.demand_set"], lambda: calls["demand.demand_set"] * per),
        ("demand.demand_set.busy_s", "s", ["demand.demand_set"], lambda: busy["demand.demand_set"] * per),
        ("demand.seller_demand.self_s", "s", ["demand.seller_demand"], lambda: self_t["demand.seller_demand"] * per),
        ("demand.verify_pe.busy_s", "s", ["demand.verify_pe"], lambda: busy["demand.verify_pe"] * per),
        ("instances.load_instance.busy_s", "s", ["instances.load_instance"], lambda: busy["instances.load_instance"] * per),
        ("instances.parse_alloc_price.busy_s", "s", ["instances.parse_alloc_price"], lambda: busy["instances.parse_alloc_price"] * per),
        ("cli.main.self_s", "s", ["cli.main"], lambda: cli_self * per),
    ]
    present = {
        name: {"value": fn(), "unit": unit}
        for name, unit, needs, fn in table
        if all(n in wrapped for n in needs)
    }
    return present, [name for name, *_ in table if name not in present]
