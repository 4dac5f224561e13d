"""Spectrum-of-orders engine: which orders carry a connected (k,g)-graph."""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import graph6
from .bounds import excluded_by_excess, moore_bound, moore_tree_size, parity_admissible
from .canon import certificate
from .constructions import (
    AMALGAMATE_MODES,
    amalgamate,
    apply_moore_double,
    canonical_double_cover,
    iter_subdivide_merge,
    iter_subdivide_three,
    iter_subdivide_two,
    moore_double_matching,
)
from .errors import (
    BadSeed,
    BudgetExhausted,
    HorizonTooSmall,
    InvalidConnectingSet,
    NoCompletion,
    NotCubic,
    NotTetravalent,
    OrderTooSmall,
    ParameterOutOfRange,
    RadiusTooLarge,
    SpecViolation,
    TreeNotInduced,
    UnknownOperation,
)
from .families import circulant44, quartic_parity_graph
from .graph import ACYCLIC, Graph, check_kg
from .limits import DEFAULT_BUDGET, Budget
from .recipes import Recipe, verified_replay
from .rewire import (
    biggs_excision_size,
    iter_delete_edges_add_vertices,
    iter_delete_vertices,
    iter_remove_biggs_tree,
)


class OrderState(Enum):
    REALIZED = "Realized"
    EXCLUDED_PARITY = "ExcludedParity"
    EXCLUDED_BELOW_MOORE = "ExcludedBelowMoore"
    EXCLUDED_EXCESS = "ExcludedExcess"
    EXCLUDED_CITED = "ExcludedCited"
    UNRESOLVED = "Unresolved"


_EXCLUDED = (
    OrderState.EXCLUDED_PARITY,
    OrderState.EXCLUDED_BELOW_MOORE,
    OrderState.EXCLUDED_EXCESS,
    OrderState.EXCLUDED_CITED,
)

DEFAULT_CONSTRUCTIONS = (
    "amalgamate",
    "subdivide_two",
    "subdivide_three",
    "subdivide_merge",
    "canonical_double_cover",
    "moore_tree_double",
    "remove_biggs_tree",
    "delete_vertices",
    "delete_edges_add_vertices",
    "circulant44",
    "parity46",
)

# Failures that mean "this input yields no candidate". Any other error from a
# construction is a bug and propagates.
_NO_CANDIDATE = (
    InvalidConnectingSet,
    NoCompletion,
    NotCubic,
    NotTetravalent,
    OrderTooSmall,
    ParameterOutOfRange,
    RadiusTooLarge,
    TreeNotInduced,
)


@dataclass(frozen=True)
class OrderStatus:
    n: int
    state: OrderState
    witness: Recipe | None = None
    citation: str | None = None


@dataclass(frozen=True)
class SearchConfig:
    constructions: tuple[str, ...] = DEFAULT_CONSTRUCTIONS
    budget: int = DEFAULT_BUDGET
    rounds: int = 3
    reps_per_order: int = 4
    pool_cap: int = 64
    scan_cap: int = 200
    amalgam_tries: int = 15
    rng_seed: int | None = None

    def __post_init__(self):
        unknown = [name for name in self.constructions if name not in DEFAULT_CONSTRUCTIONS]
        if unknown:
            raise UnknownOperation(f"unknown construction(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class SpectrumReport:
    k: int
    g: int
    horizon: int
    statuses: tuple[OrderStatus, ...]
    n_kg: int | None
    N_candidate: int | None
    run_found: bool
    provenance: tuple[Recipe, ...] = ()
    truncated: bool = False  # the budget stopped the run

    def realized_orders(self) -> list[int]:
        return [s.n for s in self.statuses if s.state is OrderState.REALIZED]

    def unresolved_orders(self) -> list[int]:
        return [s.n for s in self.statuses if s.state is OrderState.UNRESOLVED]


def parse_citations(path: str | os.PathLike) -> dict[tuple[int, int, int], str]:
    """Read lines of the form 'k g n reason'; '#' starts a comment."""
    table: dict[tuple[int, int, int], str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, g, n, reason = line.split(None, 3)
            table[(int(k), int(g), int(n))] = reason
    return table


def load_seeds(root: str | os.PathLike, k: int, g: int) -> list[Graph]:
    """Graphs from every <root>/k{K}g{G}/*.g6 file, in sorted file order."""
    folder = os.path.join(os.fspath(root), f"k{k}g{g}")
    if not os.path.isdir(folder):
        return []
    seeds: list[Graph] = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".g6"):
            seeds.extend(graph6.read_file(os.path.join(folder, name)))
    return seeds


class _Engine:
    def __init__(self, k, g, seeds, horizon, config, citations):
        self.k = k
        self.g = g
        self.horizon = horizon
        self.config = config
        self.budget = Budget(config.budget)
        self.pool_limit = horizon + 16
        self.store: dict[str, Graph] = {}
        self.log: dict[str, Recipe] = {}
        self.reps: dict[int, list[str]] = {}
        self.pool: dict[int, list[str]] = {}
        self.state: dict[int, OrderState] = {}
        self.witness: dict[int, Recipe] = {}
        self.cited: dict[int, str] = {}
        self.rng = (
            random.Random(config.rng_seed) if config.rng_seed is not None else None
        )
        if horizon < k + 1:
            raise HorizonTooSmall(f"horizon {horizon} below smallest order {k + 1}")
        for n in range(k + 1, horizon + 1):
            if n < moore_bound(k, g):
                self.state[n] = OrderState.EXCLUDED_BELOW_MOORE
            elif not parity_admissible(k, n):
                self.state[n] = OrderState.EXCLUDED_PARITY
            elif (k, g, n) in citations:
                self.state[n] = OrderState.EXCLUDED_CITED
                self.cited[n] = citations[(k, g, n)]
            elif excluded_by_excess(k, g, n):
                self.state[n] = OrderState.EXCLUDED_EXCESS
            else:
                self.state[n] = OrderState.UNRESOLVED
        for seed in seeds:
            reason = check_kg(seed, k, g)
            if reason is not None:
                raise BadSeed(f"seed of order {seed.order}: {reason}")
            if seed.order > horizon:
                raise HorizonTooSmall(
                    f"horizon {horizon} below seed order {seed.order}"
                )
            self.commit(seed, "seed", (), {})

    def enabled(self, name: str) -> bool:
        return name in self.config.constructions

    def commit(self, graph: Graph, op: str, parents: tuple[str, ...], params: dict) -> bool:
        """Route a candidate: exact girth becomes a witness, higher girth
        joins the side pool, anything else is dropped. True when an order
        moves to Realized."""
        if graph.regularity() != self.k or not graph.is_connected():
            return False
        gg = graph.girth()
        if gg is ACYCLIC or gg < self.g:
            return False
        n = graph.order
        if gg == self.g:
            if n > self.horizon:
                return False
            st = self.state[n]
            if st in _EXCLUDED:
                raise SpecViolation(
                    f"constructed a ({self.k},{self.g})-graph of order {n}, "
                    f"but that order is marked {st.value}"
                )
            cert = certificate(graph)
            if cert in self.store:
                return False
            self.store[cert] = graph
            recipe = Recipe(op, parents, params, cert)
            self.log[cert] = recipe
            bucket = self.reps.setdefault(n, [])
            if st is OrderState.REALIZED:
                if len(bucket) < self.config.reps_per_order:
                    bucket.append(cert)
                return False
            self.state[n] = OrderState.REALIZED
            self.witness[n] = recipe
            bucket.append(cert)
            return True
        if n > self.pool_limit:
            return False
        bucket = self.pool.setdefault(n, [])
        if len(bucket) >= self.config.pool_cap:
            return False
        cert = certificate(graph)
        if cert in self.store:
            return False
        self.store[cert] = graph
        self.log[cert] = Recipe(op, parents, params, cert)
        bucket.append(cert)
        return False

    def _seed_generators(self) -> None:
        if self.enabled("circulant44") and self.k == 4 and self.g == 4:
            for n in range(max(8, self.k + 1), self.horizon + 1):
                if self.state.get(n) is not OrderState.UNRESOLVED:
                    continue
                try:
                    graph = circulant44(n)
                except _NO_CANDIDATE:
                    continue
                params = {"n": n, "S": [1, 3, n - 3, n - 1]}
                self.commit(graph, "circulant", (), params)
        if self.enabled("parity46") and self.k == 4 and self.g == 6:
            for n in range(26, self.horizon + 1, 2):
                if self.state.get(n) is not OrderState.UNRESOLVED:
                    continue
                self.commit(quartic_parity_graph(n), "quartic_parity_graph", (), {"n": n})

    def _amalgam_closure(self) -> None:
        """Mark a+b Realized for Realized a, b; runs to a fixed point.

        Kept outside the global budget so the additive-closure invariant
        survives budget exhaustion; each pair gets a bounded edge scan.
        """
        if not self.enabled("amalgamate"):
            return
        tries = self.config.amalgam_tries
        changed = True
        while changed:
            changed = False
            orders = sorted(self.reps)
            for a in orders:
                for b in (o for o in orders if o >= a and o + a <= self.horizon):
                    if self.state[a + b] is not OrderState.UNRESOLVED:
                        continue
                    if self._try_amalgam(a, b, tries):
                        changed = True

    def _try_amalgam(self, a: int, b: int, tries: int) -> bool:
        for ca in self.reps[a][:1]:
            for cb in self.reps[b][:1]:
                g1, g2 = self.store[ca], self.store[cb]
                for e1 in g1.edges()[:tries]:
                    for e2 in g2.edges()[:tries]:
                        for mode in AMALGAMATE_MODES:
                            out = amalgamate(g1, g2, e1, e2, mode)
                            if out.girth() != self.g:
                                continue
                            params = {
                                "e1": list(e1),
                                "e2": list(e2),
                                "mode": mode,
                            }
                            if self.commit(out, "amalgamate", (ca, cb), params):
                                return True
        return False

    def _parents(self, order: int, with_pool: bool = True) -> list[str]:
        certs = list(self.reps.get(order, []))
        if with_pool:
            certs += self.pool.get(order, [])
        return certs

    def _scan(self, iterator, op: str, parent_cert: str) -> bool:
        try:
            for i, (params, out) in enumerate(iterator):
                if i >= self.config.scan_cap:
                    break
                if self.commit(out, op, (parent_cert,), params):
                    return True
        except _NO_CANDIDATE:
            pass
        return False

    def _ops_for(self, n: int) -> list[str]:
        if self.k == 3:
            ops = [
                "subdivide_two",
                "subdivide_three",
                "canonical_double_cover",
                "moore_tree_double",
                "remove_biggs_tree",
                "delete_vertices",
                "delete_edges_add_vertices",
            ]
        elif self.k == 4:
            ops = [
                "subdivide_merge",
                "canonical_double_cover",
                "moore_tree_double",
                "delete_vertices",
                "delete_edges_add_vertices",
            ]
        else:
            ops = ["canonical_double_cover", "moore_tree_double", "delete_vertices"]
        ops = [name for name in ops if self.enabled(name)]
        if self.rng is not None:
            self.rng.shuffle(ops)
        return ops

    def _attempt(self, n: int, op: str) -> bool:
        k, g, budget = self.k, self.g, self.budget
        if op == "subdivide_two":
            for cert in self._parents(n - 2):
                if self._scan(
                    iter_subdivide_two(self.store[cert], g, budget), op, cert
                ):
                    return True
        elif op == "subdivide_three":
            for cert in self._parents(n - 4):
                if self._scan(
                    iter_subdivide_three(self.store[cert], g, budget), op, cert
                ):
                    return True
        elif op == "subdivide_merge":
            for cert in self._parents(n - 1):
                if self._scan(
                    iter_subdivide_merge(self.store[cert], g, budget), op, cert
                ):
                    return True
        elif op == "canonical_double_cover":
            if n % 2 == 0:
                for cert in self._parents(n // 2, with_pool=False):
                    out = canonical_double_cover(self.store[cert])
                    if self.commit(out, op, (cert,), {}):
                        return True
        elif op == "moore_tree_double":
            if n % 2 == 0:
                for r in range(0, g // 4 + 1):
                    parent_order = n // 2 + moore_tree_size(k, r)
                    for cert in self._parents(parent_order, with_pool=False):
                        if self._double_from(cert, r):
                            return True
        elif op == "remove_biggs_tree":
            for order, certs in sorted(self.pool.items()):
                for cert in certs:
                    parent = self.store[cert]
                    pg = parent.girth()
                    if order - biggs_excision_size(pg) != n:
                        continue
                    if self._scan(iter_remove_biggs_tree(parent, budget), op, cert):
                        return True
        elif op == "delete_vertices":
            for removed in (1, 2, 3, 4):
                for cert in self._parents(n + removed):
                    it = iter_delete_vertices(self.store[cert], removed, g, budget)
                    if self._scan(it, op, cert):
                        return True
        elif op == "delete_edges_add_vertices":
            num_edges, num_vertices = (3, 2) if k == 3 else (2, 1) if k == 4 else (k, 2)
            for cert in self._parents(n - num_vertices):
                it = iter_delete_edges_add_vertices(
                    self.store[cert], num_edges, num_vertices, g, budget
                )
                if self._scan(it, op, cert):
                    return True
        return False

    def _double_from(self, cert: str, r: int) -> bool:
        parent = self.store[cert]
        for root in range(parent.order):
            try:
                matching = moore_double_matching(parent, r, root, self.budget)
            except _NO_CANDIDATE:
                continue
            out = apply_moore_double(parent, r, root, matching)
            params = {"r": r, "root": root, "matching": matching}
            if self.commit(out, "moore_tree_double", (cert,), params):
                return True
        return False

    def _construct_pass(self) -> bool:
        changed = False
        for n in range(self.k + 1, self.horizon + 1):
            if self.state[n] is not OrderState.UNRESOLVED:
                continue
            for op in self._ops_for(n):
                if self._attempt(n, op):
                    changed = True
                    break
        return changed

    def run(self) -> SpectrumReport:
        truncated = False
        try:
            self._seed_generators()
            self._amalgam_closure()
            for _ in range(self.config.rounds):
                if not any(
                    st is OrderState.UNRESOLVED for st in self.state.values()
                ):
                    break
                changed = self._construct_pass()
                self._amalgam_closure()
                if not changed:
                    break
        except BudgetExhausted:
            truncated = True
            self._amalgam_closure()
        self._replay_gate()
        return self._report(truncated)

    def _replay_gate(self) -> None:
        for n, recipe in sorted(self.witness.items()):
            out = verified_replay(recipe, self._resolve)
            reason = check_kg(out, self.k, self.g)
            if reason is not None or out.order != n:
                raise SpecViolation(
                    f"witness for order {n} replays badly: {reason or 'wrong order'}"
                )

    def _resolve(self, cert: str) -> Graph:
        graph = self.store.get(cert)
        if graph is None:
            raise SpecViolation(f"no stored graph for certificate {cert!r}")
        return graph

    def _provenance(self) -> tuple[Recipe, ...]:
        ordered: list[Recipe] = []
        seen: set[str] = set()

        def visit(cert: str) -> None:
            if cert in seen:
                return
            seen.add(cert)
            recipe = self.log.get(cert)
            if recipe is None:
                return
            for parent in recipe.parents:
                visit(parent)
            ordered.append(recipe)

        for n in sorted(self.witness):
            visit(self.witness[n].output_cert)
        return tuple(ordered)

    def _report(self, truncated: bool) -> SpectrumReport:
        statuses = []
        for n in range(self.k + 1, self.horizon + 1):
            st = self.state[n]
            statuses.append(
                OrderStatus(n, st, self.witness.get(n), self.cited.get(n))
            )
        n_kg = None
        for status in statuses:
            if status.state is OrderState.REALIZED:
                n_kg = status.n
                break
            if status.state is OrderState.UNRESOLVED:
                break
        report = SpectrumReport(
            self.k,
            self.g,
            self.horizon,
            tuple(statuses),
            n_kg,
            None,
            False,
            self._provenance(),
        )
        cand = infer_N(report, n_kg) if n_kg is not None else None
        return SpectrumReport(
            report.k,
            report.g,
            report.horizon,
            report.statuses,
            n_kg,
            cand,
            cand is not None,
            report.provenance,
            truncated,
        )


def spectrum_search(
    k: int,
    g: int,
    seeds: Iterable[Graph],
    horizon: int,
    config: SearchConfig | None = None,
    citations: dict[tuple[int, int, int], str] | None = None,
) -> SpectrumReport:
    """Classify every order up to the horizon for connected (k,g)-graphs."""
    engine = _Engine(
        k, g, list(seeds), horizon, config or SearchConfig(), citations or {}
    )
    return engine.run()


def infer_N(report: SpectrumReport, n_kg: int) -> int | None:
    """Smallest N whose following admissible n_kg-length window is all
    Realized; such an N certifies every admissible order from N upward."""
    realized = set(report.realized_orders())
    if n_kg is None or not realized:
        return None
    if report.k % 2 == 0:
        step, needed = 1, n_kg
    else:
        step, needed = 2, n_kg // 2
    for start in sorted(realized):
        run = [start + i * step for i in range(needed)]
        if run[-1] > report.horizon:
            return None
        if all(m in realized for m in run):
            return start
    return None


def render_report(report: SpectrumReport) -> str:
    """Machine-readable order table, recipe appendix, and a summary row."""
    lines = [f"spectrum k={report.k} g={report.g} horizon={report.horizon}"]
    ids = {recipe.output_cert: i for i, recipe in enumerate(report.provenance)}
    lines.append("orders:")
    for status in report.statuses:
        parts = [str(status.n), status.state.value]
        if status.witness is not None:
            parts.append(f"recipe=R{ids[status.witness.output_cert]}")
        if status.citation is not None:
            parts.append(f"citation={status.citation}")
        lines.append(" ".join(parts))
    lines.append("recipes:")
    for i, recipe in enumerate(report.provenance):
        lines.append(f"R{i} {recipe.to_line()}")
    lines.append("summary:")
    unresolved = report.unresolved_orders()
    gaps = ",".join(str(n) for n in unresolved) if unresolved else "none"
    cage = report.n_kg if report.n_kg is not None else "unknown"
    nbound = f"<={report.N_candidate}" if report.N_candidate is not None else "unknown"
    cut = " truncated" if report.truncated else ""
    lines.append(f"g={report.g} n(k,g)={cage} unresolved={gaps} N(k,g)={nbound}{cut}")
    return "\n".join(lines) + "\n"
