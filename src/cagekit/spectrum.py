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
    InvalidConnectingSet,
    MalformedInput,
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
from .graph import ACYCLIC, Graph, check_kg
from .limits import DEFAULT_BUDGET, Budget
from .recipes import OPERATIONS, Operation, Recipe, verified_replay


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

# Every operation the engine tries for some degree, in the table's order.
DEFAULT_CONSTRUCTIONS = tuple(name for name, op in OPERATIONS.items() if op.degrees)

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
    provenance: tuple[Recipe, ...] = ()
    truncated: bool = False  # the budget stopped the run

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

    def _ops(self, arity: int) -> list[Operation]:
        return [
            op for op in OPERATIONS.values()
            if op.arity == arity and self.k in op.degrees and self.enabled(op.name)
        ]

    def _seed_generators(self) -> None:
        for op in self._ops(0):
            for n in range(self.k + 1, self.horizon + 1):
                if self.state[n] is OrderState.UNRESOLVED:
                    self._attempt(n, op)

    def _amalgam_closure(self) -> None:
        """Mark a+b Realized for Realized a, b; runs to a fixed point.

        Kept outside the global budget so the additive-closure invariant
        survives budget exhaustion; each pair gets a bounded edge scan.
        """
        for op in self._ops(2):
            changed = True
            while changed:
                changed = False
                orders = sorted(self.reps)
                for a in orders:
                    for b in (o for o in orders if o >= a and o + a <= self.horizon):
                        if self.state[a + b] is not OrderState.UNRESOLVED:
                            continue
                        if self._try_amalgam(op, a, b):
                            changed = True

    def _try_amalgam(self, op: Operation, a: int, b: int) -> bool:
        ca, cb = self.reps[a][0], self.reps[b][0]
        pair = (self.store[ca], self.store[cb])
        grown = op.grow(pair, self.g, None, tries=self.config.amalgam_tries)
        return any(self.commit(out, op.name, (ca, cb), params) for params, out in grown)

    def _parents(self, order: int | None, source: str | None) -> list[str | None]:
        if source is None:
            return [None]
        if order is None:
            return [cert for _, certs in sorted(self.pool.items()) for cert in certs]
        certs = list(self.reps.get(order, [])) if source != "pool" else []
        if source != "reps":
            certs += self.pool.get(order, [])
        return certs

    def _scan(self, op: Operation, cert: str | None, kw: dict) -> bool:
        parent, parents = (None, ()) if cert is None else (self.store[cert], (cert,))
        try:
            grown = op.grow(parent, self.g, self.budget, **kw)
            for i, (params, out) in enumerate(grown):
                if i >= self.config.scan_cap:
                    break
                if self.commit(out, op.name, parents, params):
                    return True
        except _NO_CANDIDATE:
            pass
        return False

    def _attempt(self, n: int, op: Operation) -> bool:
        for order, source, kw in op.steps(n, self.k, self.g):
            for cert in self._parents(order, source):
                if self._scan(op, cert, kw):
                    return True
        return False

    def _construct_pass(self) -> bool:
        changed = False
        for n in range(self.k + 1, self.horizon + 1):
            if self.state[n] is not OrderState.UNRESOLVED:
                continue
            ops = self._ops(1)
            if self.rng is not None:
                self.rng.shuffle(ops)
            if any(self._attempt(n, op) for op in ops):
                changed = True
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
        return SpectrumReport(
            self.k,
            self.g,
            self.horizon,
            tuple(statuses),
            n_kg,
            self._provenance(),
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
