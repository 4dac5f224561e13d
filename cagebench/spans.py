"""Span tracing installed from outside the library.

Wrappers replace the public names through which cagekit's layers call each
other: module functions (in the defining module and in every cagekit module
that imported them with `from x import y`) and a few class methods. Each call,
and each resume of a generator, is one span with a name, start, end and
parent. Spans live in flat arrays until the run ends. A span's self time is
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute, kind). Kinds: "call"; "emit" counts each
# graph returned at layer entry; "gen" wraps a generator, one span per resume.
FUNCTIONS = (
    ("spectrum", "spectrum", "spectrum_search", "call"),
    ("canon.certificate", "canon", "certificate", "call"),
    ("canon.refine", "canon", "refine", "call"),
    ("canon.is_isomorphic", "canon", "is_isomorphic", "call"),
    ("graph.edit", "graph", "add_edges", "call"),
    ("graph.edit", "graph", "remove_edges", "call"),
    ("graph.edit", "graph", "remove_vertices", "call"),
    ("graph.edit", "graph", "add_vertices", "call"),
    ("graph.edit", "graph", "relabeled", "call"),
    ("graph.edit", "graph", "disjoint_union", "call"),
    ("graph.check_kg", "graph", "check_kg", "call"),
    ("graph6.decode", "graph6", "decode", "call"),
    ("graph6.encode", "graph6", "encode", "call"),
    ("cli", "cli", "main", "call"),
    ("rewire.completions", "rewire", "iter_completions", "gen"),
    ("rewire", "rewire", "iter_delete_edges_add_vertices", "gen"),
    ("rewire", "rewire", "iter_delete_vertices", "gen"),
    ("rewire", "rewire", "iter_remove_biggs_tree", "gen"),
    ("constructions", "constructions", "iter_subdivide_two", "gen"),
    ("constructions", "constructions", "iter_subdivide_three", "gen"),
    ("constructions", "constructions", "iter_subdivide_merge", "gen"),
    ("constructions", "constructions", "amalgamate", "emit"),
    ("constructions", "constructions", "canonical_double_cover", "emit"),
    ("constructions", "constructions", "apply_moore_double", "emit"),
    ("constructions", "constructions", "apply_subdivide_pair", "emit"),
    ("constructions", "constructions", "apply_subdivide_triple", "emit"),
    ("constructions", "constructions", "apply_subdivide_merge", "emit"),
    ("constructions", "constructions", "moore_double_matching", "call"),
    ("families", "families", "circulant", "call"),
    ("families", "families", "circulant44", "call"),
    ("families", "families", "quartic_parity_graph", "call"),
    ("families", "families", "gdgp", "call"),
    ("recipes.replay", "recipes", "verified_replay", "call"),
    ("recipes.replay", "recipes", "replay", "call"),
)

# (span name, module, class, attribute)
METHODS = (
    ("graph.build", "graph", "Graph", "__init__"),
    ("graph.build", "graph", "Graph", "from_edges"),
    ("graph.girth", "graph", "Graph", "girth"),
    ("graph.distance", "graph", "Graph", "distances_from"),
    ("graph.distance", "graph", "Graph", "distance"),
    ("graph.distance", "graph", "Graph", "is_connected"),
    ("graph.distance", "graph", "Graph", "edge_distance"),
    ("limits", "limits", "Budget", "spend"),
)

ROOT = "bench.pass"


class Tracer:
    """Records spans while installed; `uninstall` restores every name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._spectrum = self.name_id("spectrum")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, sid: int) -> tuple[int, bool]:
        """Open a span; the flag says whether it enters its layer from outside."""
        idx = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(sid)
        self.parent.append(parent)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx, parent < 0 or self.name[parent] != sid

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _call(self, name, fn, kind):
        sid = self.name_id(name)
        tracer = self
        counters = self.counters
        decode = name == "graph6.decode"
        certificate = name == "canon.certificate"

        def wrapper(*args, **kwargs):
            idx, entry = tracer.enter(sid)
            if entry:
                if decode:
                    counters["graph6.decode.bytes"] += len(args[0])
                elif certificate and tracer._in(tracer._spectrum):
                    counters["spectrum.certificates"] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if kind == "emit" and entry:
                counters[f"{name}.emitted"] += 1
            return out

        return wrapper

    def _gen(self, name, fn):
        sid = self.name_id(name)
        tracer = self
        counters = self.counters
        key = "rewire.completions.yielded" if name == "rewire.completions" else f"{name}.emitted"

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx, entry = tracer.enter(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(idx)
                    if entry:
                        counters[key] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _spend(self, name, fn):
        sid = self.name_id(name)
        tracer = self
        counters = self.counters

        def spend(budget, amount=1):
            idx, _ = tracer.enter(sid)
            counters["limits.budget_steps"] += amount
            try:
                return fn(budget, amount)
            finally:
                tracer.exit(idx)

        return spend

    def _in(self, sid: int) -> bool:
        name = self.name
        return any(name[i] == sid for i in self.stack)

    def install(self, modules: dict) -> None:
        """Wrap every traced name in the given cagekit modules (name -> module).

        A name the library no longer has is skipped; its layer then reports 0.
        """
        swap: dict[int, object] = {}
        for name, mod, attr, kind in FUNCTIONS:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                continue
            wrapped = self._gen(name, fn) if kind == "gen" else self._call(name, fn, kind)
            swap[id(fn)] = (fn, wrapped)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(modules[mod], cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._call(name, raw.__func__, "call"))
            elif attr == "spend":
                wrapped = self._spend(name, raw)
            else:
                wrapped = self._call(name, raw, "call")
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= dur[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            totals[self.names[self.name[i]]] += own[i]
        return totals

    def entries(self) -> Counter:
        """Calls that enter each layer from outside it (nested same-name spans count once)."""
        out: Counter = Counter()
        name, parent = self.name, self.parent
        for i in range(len(name)):
            p = parent[i]
            if p < 0 or name[p] != name[i]:
                out[self.names[name[i]]] += 1
        return out

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: a name table, then name/parent/start/end rows."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("#names\t" + "\t".join(self.names) + "\n")
            fh.write("#name\tparent\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.name[i]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n"
                )


def traced(tracer: Tracer, fn, *args):
    """Run fn under a root span; returns (result, wall seconds)."""
    sid = tracer.name_id(ROOT)
    t0 = perf_counter()
    idx, _ = tracer.enter(sid)
    try:
        out = fn(*args)
    finally:
        tracer.exit(idx)
    return out, perf_counter() - t0


def layer_metrics(tracer: Tracer, realized: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    own = tracer.self_times()
    calls = tracer.entries()
    count = tracer.counters
    yielded = count["rewire.completions.yielded"]
    m = {
        "limits.budget_steps": (count["limits.budget_steps"], "count"),
        "rewire.completions.yielded": (yielded, "count"),
        "rewire.completions.self_s": (own.get("rewire.completions", 0.0), "s"),
        "rewire.emitted": (count["rewire.emitted"], "count"),
        "rewire.accept_ratio": (count["rewire.emitted"] / yielded if yielded else 0.0, "ratio"),
        "rewire.self_s": (own.get("rewire", 0.0), "s"),
    }
    for layer in ("canon.certificate", "canon.refine", "graph.build", "graph.edit",
                  "graph.girth", "graph.distance", "graph6.decode", "graph6.encode",
                  "families", "recipes.replay"):
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    m["canon.is_isomorphic.calls"] = (calls["canon.is_isomorphic"], "count")
    m["graph.check_kg.calls"] = (calls["graph.check_kg"], "count")
    m["graph6.decode.bytes"] = (count["graph6.decode.bytes"], "B")
    m["cli.self_s"] = (own.get("cli", 0.0), "s")
    m["constructions.emitted"] = (count["constructions.emitted"], "count")
    m["constructions.self_s"] = (own.get("constructions", 0.0), "s")
    m["spectrum.self_s"] = (own.get("spectrum", 0.0), "s")
    m["spectrum.certs_per_realized"] = (
        count["spectrum.certificates"] / realized if realized else 0.0, "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def deterministic(metrics: dict) -> dict:
    """The metrics that count work and must repeat exactly for one seed."""
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B", "ratio")}
