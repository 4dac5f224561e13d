"""Spectrum-of-orders engine: which orders carry a connected (k,g)-graph."""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import graph6
from .bounds import excluded_by_excess, moore_bound, parity_admissible
from .canon import certificate
from .errors import (
    BadSeed,
    BudgetExhausted,
    HorizonTooSmall,
    MalformedInput,
    NoCandidate,
    SpecViolation,
    UnknownOperation,
)
from .graph import Graph, check_kg
from .limits import DEFAULT_BUDGET, Budget
from .recipes import OPERATIONS, Operation, Recipe, replay


class OrderState(Enum):
    REALIZED = "Realized"
    EXCLUDED_PARITY = "ExcludedParity"
    EXCLUDED_BELOW_MOORE = "ExcludedBelowMoore"
    EXCLUDED_EXCESS = "ExcludedExcess"
    EXCLUDED_CITED = "ExcludedCited"
    UNRESOLVED = "Unresolved"


# Every operation the engine tries for some degree, in the table's order.
DEFAULT_CONSTRUCTIONS = tuple(name for name, op in OPERATIONS.items() if op.degrees)


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
    provenance: tuple[Recipe, ...] = ()
    truncated: bool = False  # the budget stopped the run

    @property
    def n_kg(self) -> int | None:
        """The smallest Realized order, unless an Unresolved order is smaller."""
        for s in self.statuses:
            if s.state is OrderState.REALIZED:
                return s.n
            if s.state is OrderState.UNRESOLVED:
                return None
        return None

    @property
    def N_candidate(self) -> int | None:
        """infer_N at the report's own n(k,g)."""
        return infer_N(self, self.n_kg)

    def realized_orders(self) -> list[int]:
        return [s.n for s in self.statuses if s.state is OrderState.REALIZED]

    def unresolved_orders(self) -> list[int]:
        return [s.n for s in self.statuses if s.state is OrderState.UNRESOLVED]


def parse_citations(path: str | os.PathLike) -> dict[tuple[int, int, int], str]:
    """Read lines of the form 'k g n reason'; '#' starts a comment."""
    table: dict[tuple[int, int, int], str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                k, g, n, reason = line.split(None, 3)
                table[(int(k), int(g), int(n))] = reason
            except ValueError:
                raise MalformedInput(
                    f"{os.fspath(path)}:{lineno}: expected 'k g n reason', got {line!r}"
                ) from None
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
        self.citations = citations
        self.budget = Budget(config.budget)
        # Every stored graph by certificate, with the recipe that made it.
        self.records: dict[str, tuple[Graph, Recipe]] = {}
        # Certificates by order; reps[n][0] is the witness for order n, and
        # an order is Realized exactly when it has an entry here.
        self.reps: dict[int, list[str]] = {}
        # The orders a bound or a citation rules out, fixed before any search.
        self.excluded: dict[int, OrderState] = {}
        self.ops = {
            arity: [
                op for op in OPERATIONS.values()
                if op.arity == arity and k in op.degrees and op.name in config.constructions
            ]
            for arity in (0, 1, 2)
        }
        self.rng = (
            random.Random(config.rng_seed) if config.rng_seed is not None else None
        )
        if horizon < k + 1:
            raise HorizonTooSmall(f"horizon {horizon} below smallest order {k + 1}")
        for n in range(k + 1, horizon + 1):
            if n < moore_bound(k, g):
                self.excluded[n] = OrderState.EXCLUDED_BELOW_MOORE
            elif not parity_admissible(k, n):
                self.excluded[n] = OrderState.EXCLUDED_PARITY
            elif (k, g, n) in citations:
                self.excluded[n] = OrderState.EXCLUDED_CITED
            elif excluded_by_excess(k, g, n):
                self.excluded[n] = OrderState.EXCLUDED_EXCESS
        for seed in seeds:
            reason = check_kg(seed, k, g)
            if reason is not None:
                raise BadSeed(f"seed of order {seed.order}: {reason}")
            if seed.order > horizon:
                raise HorizonTooSmall(
                    f"horizon {horizon} below seed order {seed.order}"
                )
            if self.excluded.get(seed.order) is OrderState.EXCLUDED_CITED:
                raise BadSeed(
                    f"seed of order {seed.order}, which the citation "
                    f"{citations[(k, g, seed.order)]!r} excludes"
                )
            self.commit(seed, "seed", (), {})

    def commit(self, graph: Graph, op: str, parents: tuple[str, ...], params: dict) -> bool:
        """Store a (k,g)-graph within the horizon under its certificate and
        drop any other candidate. True when it is the first for its order."""
        n = graph.order
        if n > self.horizon or check_kg(graph, self.k, self.g) is not None:
            return False
        if n in self.excluded:
            raise SpecViolation(
                f"constructed a ({self.k},{self.g})-graph of order {n}, "
                f"but that order is marked {self.excluded[n].value}"
            )
        cert = certificate(graph)
        if cert in self.records:
            return False
        self.records[cert] = (graph, Recipe(op, parents, params, cert))
        first = n not in self.reps
        self.reps.setdefault(n, []).append(cert)
        return first

    def _open(self, n: int) -> bool:
        """Neither Realized nor Excluded: the orders a search still asks for."""
        return n not in self.reps and n not in self.excluded

    def _amalgam_closure(self) -> None:
        """Mark a+b Realized for Realized a, b; runs to a fixed point.

        An amalgam scan is bounded by its pair's edges and spends no budget,
        so the additive-closure invariant survives budget exhaustion.
        """
        for op in self.ops[2]:
            changed = True
            while changed:
                changed = False
                orders = sorted(self.reps)
                for a in orders:
                    for b in (o for o in orders if o >= a and o + a <= self.horizon):
                        if self._open(a + b):
                            pair = (self.reps[a][0], self.reps[b][0])
                            changed |= self._scan(op, pair, {})

    def _scan(self, op: Operation, parents: tuple[str, ...], kw: dict) -> bool:
        """Commit what op grows from the stored parents until an order is
        realized; a scan that yields no candidate realizes nothing."""
        graphs = tuple(self.records[cert][0] for cert in parents)
        try:
            for params, out in op.grow(graphs, self.budget, **kw):
                if self.commit(out, op.name, parents, params):
                    return True
        except NoCandidate:
            pass
        return False

    def _attempt(self, n: int, op: Operation) -> bool:
        for order, kw in op.steps(n, self.k, self.g):
            sources = [()] if order is None else [(c,) for c in self.reps.get(order, ())]
            if any(self._scan(op, parents, kw) for parents in sources):
                return True
        return False

    def _pass(self, ops: list[Operation], rng: random.Random | None) -> bool:
        """Try ops on each open order upward, shuffled per order by rng when
        one is given; True when some order is realized."""
        changed = False
        for n in range(self.k + 1, self.horizon + 1):
            if not self._open(n):
                continue
            order = list(ops)
            if rng is not None:
                rng.shuffle(order)
            changed |= any(self._attempt(n, op) for op in order)
        return changed

    def run(self) -> SpectrumReport:
        """Generators, then construction passes until one realizes nothing."""
        truncated = False
        try:
            self._pass(self.ops[0], None)
            self._amalgam_closure()
            while self._pass(self.ops[1], self.rng):
                self._amalgam_closure()
        except BudgetExhausted:
            truncated = True
            self._amalgam_closure()
        self._replay_gate()
        return self._report(truncated)

    def _replay_gate(self) -> None:
        """Each witness must replay to its stored graph, label for label; that
        graph is filed under the recorded certificate, so none is recomputed."""
        for n in sorted(self.reps):
            graph, recipe = self.records[self.reps[n][0]]
            reason = check_kg(graph, self.k, self.g)
            if reason is not None or replay(recipe, self._resolve) != graph:
                raise SpecViolation(
                    f"witness for order {n} replays badly: {reason or 'not to its stored graph'}"
                )

    def _resolve(self, cert: str) -> Graph:
        record = self.records.get(cert)
        if record is None:
            raise SpecViolation(f"no stored graph for certificate {cert!r}")
        return record[0]

    def _provenance(self) -> tuple[Recipe, ...]:
        ordered: list[Recipe] = []
        seen: set[str] = set()

        def visit(cert: str) -> None:
            if cert in seen:
                return
            seen.add(cert)
            recipe = self.records[cert][1]
            for parent in recipe.parents:
                visit(parent)
            ordered.append(recipe)

        for n in sorted(self.reps):
            visit(self.reps[n][0])
        return tuple(ordered)

    def _status(self, n: int) -> OrderStatus:
        if n in self.reps:
            return OrderStatus(n, OrderState.REALIZED, self.records[self.reps[n][0]][1])
        st = self.excluded.get(n, OrderState.UNRESOLVED)
        if st is OrderState.EXCLUDED_CITED:
            return OrderStatus(n, st, citation=self.citations[(self.k, self.g, n)])
        return OrderStatus(n, st)

    def _report(self, truncated: bool) -> SpectrumReport:
        statuses = tuple(self._status(n) for n in range(self.k + 1, self.horizon + 1))
        return SpectrumReport(
            self.k, self.g, self.horizon, statuses, self._provenance(), truncated
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


def infer_N(report: SpectrumReport, n_kg: int | None) -> int | None:
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
