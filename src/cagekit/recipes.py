"""Construction provenance records, the operation table, and replay."""
from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Sequence

from . import families
from .bounds import moore_tree_size
from .canon import certificate
from .constructions import (
    AMALGAMATE_MODES,
    Emitted,
    amalgamate,
    apply_moore_double,
    apply_subdivide_merge,
    apply_subdivide_pair,
    apply_subdivide_triple,
    canonical_double_cover,
    find_perfect_matching,
    iter_moore_double,
    iter_subdivide_merge,
    iter_subdivide_three,
    iter_subdivide_two,
)
from .errors import MalformedInput, ParameterOutOfRange, ReplayMismatch, UnknownOperation
from .graph import Graph, edit
from .limits import Budget
from .rewire import (
    apply_delete_vertices,
    iter_delete_edges_add_vertices,
    iter_delete_vertices,
    iter_remove_biggs_tree,
)


@dataclass(frozen=True)
class Recipe:
    operation: str
    parents: tuple[str, ...]
    params: dict
    output_cert: str

    def to_line(self) -> str:
        blob = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        parents = ",".join(self.parents)
        return f"op={self.operation} parents={parents} params={blob} out={self.output_cert}"

    @classmethod
    def from_line(cls, line: str) -> "Recipe":
        fields = {}
        for token in line.strip().split(" "):
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            parents = tuple(c for c in fields["parents"].split(",") if c)
            params = json.loads(fields["params"])
            if not isinstance(params, dict):
                raise ValueError("params must be a JSON object")
            return cls(fields["op"], parents, params, fields["out"])
        except (KeyError, ValueError) as err:
            raise MalformedInput(f"bad recipe line {line.strip()!r}: {err!r}") from None


ANY_DEGREE = range(2**31)


@dataclass(frozen=True)
class Operation:
    """One construction, as the engine grows with it, the CLI runs it and a
    recipe replays it.

    - `apply(parents, params)` replays a recipe; it reads params through
      the typed readers of `_Params` and builds by the rule of the module
      that grows the operation, so replay rebuilds what grow emits.
    - `grow(parents, budget, **options)` yields (params, graph), as `apply`
      takes the parents: `()`, `(g,)` or `(g1, g2)`. Its keywords after the
      budget are its `options`, which `construct` accepts and the CLI fills
      from flags, taking a unary operation's own default for one not given;
      a `target_girth` defaults to the parent's girth.
    - `steps(n, k, g)` yields the engine's steps toward a (k,g)-graph of
      order n, each a (parent order, grow keywords). The engine grows from
      each (k,g)-graph it stores of that order, or from no parent when the
      order is None.
    - `degrees` holds the k the engine tries the operation for.

    Entries reach library functions through module globals at call time, so
    patched or traced names take effect.
    """

    name: str
    arity: int
    apply: Callable[[Sequence[Graph], dict], Graph]
    grow: Callable[..., Iterator[Emitted]] | None = None
    steps: Callable[[int, int, int], Iterable[tuple]] = lambda n, k, g: ()
    degrees: Container[int] = ()

    @property
    def options(self) -> dict[str, inspect.Parameter]:
        """The grow keywords after (parents, budget), by name."""
        params = inspect.signature(self.grow).parameters if self.grow else {}
        return dict(list(params.items())[2:])


def _grow_amalgams(parents, budget):
    """Amalgams of the pair over every edge of each, of any girth."""
    g1, g2 = parents
    edges2 = g2.edges()
    for e1 in g1.edges():
        for e2 in edges2:
            for mode in AMALGAMATE_MODES:
                out = amalgamate(g1, g2, e1, e2, mode)
                yield {"e1": list(e1), "e2": list(e2), "mode": mode}, out


def _adds(count: int):
    """Steps of an operation that adds count vertices to any stored parent."""
    return lambda n, k, g: [(n - count, {})]


def _moore_steps(n, k, g):
    # Doubling needs girth 4 or more.
    if n % 2 or g < 4:
        return []
    return [(n // 2 + moore_tree_size(k, r), {"radius": r}) for r in range(g // 4 + 1)]


def _grow_double_cover(parents, budget):
    yield {}, canonical_double_cover(parents[0])


def _grow_matching(parents, budget):
    matching = find_perfect_matching(parents[0], budget)
    yield {"matching": [list(e) for e in matching]}, edit(parents[0], remove=matching)


def _grow_circulant(parents, budget, n):
    g = families.circulant44(n)
    # A circulant's connecting set is the neighbourhood of vertex 0.
    yield {"n": n, "S": list(g.neighbors(0))}, g


def _grow_parity(parents, budget, n):
    yield {"n": n}, families.quartic_parity_graph(n)


def _apply_delete_edges_add_vertices(parents, params):
    return edit(
        parents[0], remove=params.edges("removed"), new_vertices=params.integer("added"),
        add=params.edges("edges"),
    )


# Table order is the engine's order of trial for each k.
OPERATIONS: dict[str, Operation] = {op.name: op for op in (
    Operation(
        "amalgamate", 2,
        lambda ps, p: amalgamate(ps[0], ps[1], p.edge("e1"), p.edge("e2"), p["mode"]),
        grow=_grow_amalgams,
        degrees=ANY_DEGREE,
    ),
    Operation(
        "subdivide_two", 1,
        lambda ps, p: apply_subdivide_pair(ps[0], p.edge("e1"), p.edge("e2")),
        grow=lambda ps, budget, target_girth=None: iter_subdivide_two(
            ps[0], target_girth, budget
        ),
        steps=_adds(2),
        degrees=(3,),
    ),
    Operation(
        "subdivide_three", 1,
        lambda ps, p: apply_subdivide_triple(ps[0], p.edge("e1"), p.edge("e2"), p.edge("e3")),
        grow=lambda ps, budget, target_girth=None: iter_subdivide_three(
            ps[0], target_girth, budget
        ),
        steps=_adds(4),
        degrees=(3,),
    ),
    Operation(
        "subdivide_merge", 1,
        lambda ps, p: apply_subdivide_merge(ps[0], p.edge("e1"), p.edge("e2")),
        grow=lambda ps, budget, target_girth=None: iter_subdivide_merge(
            ps[0], target_girth, budget
        ),
        steps=_adds(1),
        degrees=(4,),
    ),
    Operation(
        "canonical_double_cover", 1,
        lambda ps, p: canonical_double_cover(ps[0]),
        grow=_grow_double_cover,
        # A double cover is bipartite, so its girth is even.
        steps=lambda n, k, g: [] if n % 2 or g % 2 else [(n // 2, {})],
        degrees=ANY_DEGREE,
    ),
    Operation(
        "moore_tree_double", 1,
        lambda ps, p: apply_moore_double(
            ps[0], p.integer("r"), p.integer("root"), p.integers("matching")
        ),
        grow=lambda ps, budget, radius=1, root=None: iter_moore_double(
            ps[0], radius, budget, root
        ),
        steps=_moore_steps,
        degrees=ANY_DEGREE,
    ),
    Operation(
        "remove_biggs_tree", 1,
        lambda ps, p: apply_delete_vertices(ps[0], p.integers("tree"), p.edges("edges")),
        grow=lambda ps, budget: iter_remove_biggs_tree(ps[0], budget),
    ),
    Operation(
        "delete_vertices", 1,
        lambda ps, p: apply_delete_vertices(ps[0], p.integers("removed"), p.edges("edges")),
        grow=lambda ps, budget, vertices=2, target_girth=None: iter_delete_vertices(
            ps[0], vertices, target_girth, budget
        ),
        steps=lambda n, k, g: [(n + m, {"vertices": m}) for m in (1, 2, 3, 4)],
        degrees=ANY_DEGREE,
    ),
    Operation(
        "delete_edges_add_vertices", 1,
        _apply_delete_edges_add_vertices,
        grow=lambda ps, budget, edges=3, vertices=2, target_girth=None: (
            iter_delete_edges_add_vertices(ps[0], edges, vertices, target_girth, budget)
        ),
        steps=lambda n, k, g: [
            (n - v, {"edges": e, "vertices": v})
            for e, v in [(3, 2) if k == 3 else (2, 1)]
        ],
        degrees=(3, 4),
    ),
    Operation(
        "remove_perfect_matching", 1,
        lambda ps, p: edit(ps[0], remove=p.edges("matching")),
        grow=_grow_matching,
    ),
    Operation(
        "circulant", 0,
        lambda ps, p: families.circulant(
            families.CirculantSpec(p.integer("n"), p.integers("S"))
        ),
        grow=_grow_circulant,
        steps=lambda n, k, g: [(None, {"n": n})] if g == 4 and n >= 8 else [],
        degrees=(4,),
    ),
    Operation(
        "quartic_parity_graph", 0,
        lambda ps, p: families.quartic_parity_graph(p.integer("n")),
        grow=_grow_parity,
        steps=lambda n, k, g: [(None, {"n": n})] if g == 6 and n >= 26 and n % 2 == 0 else [],
        degrees=(4,),
    ),
    Operation(
        "gdgp", 0,
        lambda ps, p: families.gdgp(
            families.GdgpSpec(p.integer("m"), p.integer("n"), p.integers("K"))
        ),
    ),
)}


def construct(
    name: str,
    parent: Graph,
    target_girth: int | None = None,
    budget: Budget | int | None = None,
    **options,
) -> list[Emitted]:
    """The outputs of one unary operation on parent, one per isomorphism
    class, as (params, graph) in the order the operation grows them.

    `options` are the operation's grow keywords (its `options`, such as
    `vertices` for delete_vertices or `radius` and `root` for
    moore_tree_double); one left out takes its grow default. A
    `target_girth` other than None is one of them. A keyword the operation
    does not name, then a value that is neither None nor an int, then None
    for one whose default is not None, is a `ParameterOutOfRange`.
    """
    op = OPERATIONS.get(name)
    if op is None or op.arity != 1 or op.grow is None:
        raise UnknownOperation(f"{name!r} is not a unary operation")
    if target_girth is not None:
        options["target_girth"] = target_girth
    unknown = sorted(set(options) - set(op.options))
    if unknown:
        raise ParameterOutOfRange(f"{name} takes no option {', '.join(unknown)}")
    wrong = [k for k, v in options.items() if v is not None and not _is_int(v)]
    if wrong:
        raise ParameterOutOfRange(f"{name} option {', '.join(wrong)} must be an integer")
    missing = [k for k, p in op.options.items() if options.get(k, p) is None is not p.default]
    if missing:
        raise ParameterOutOfRange(f"{name} needs option {', '.join(missing)}")
    firsts: dict[str, Emitted] = {}
    for params, h in op.grow((parent,), budget, **options):
        firsts.setdefault(certificate(h), (params, h))
    return list(firsts.values())


def _is_int(value) -> bool:
    return type(value) is int


def _is_list(value, item: Callable[[object], bool]) -> bool:
    return isinstance(value, (list, tuple)) and all(map(item, value))


def _is_edge(value) -> bool:
    return _is_list(value, _is_int) and len(value) == 2


class _Params(dict):
    """Recipe params as `apply` reads them. A missing key, or a value of the
    wrong type or shape, is a bad recipe."""

    def __init__(self, operation: str, params: dict):
        super().__init__(params)
        self.operation = operation

    def __missing__(self, key):
        raise ReplayMismatch(f"{self.operation} recipe has no param {key!r}")

    def _read(self, key: str, valid: Callable[[object], bool], kind: str):
        value = self[key]
        if not valid(value):
            raise ReplayMismatch(f"{self.operation} recipe param {key!r} is not {kind}: {value!r}")
        return value

    def integer(self, key: str) -> int:
        return self._read(key, _is_int, "an integer")

    def integers(self, key: str) -> list[int]:
        return list(self._read(key, lambda v: _is_list(v, _is_int), "a list of integers"))

    def edge(self, key: str) -> tuple[int, int]:
        return tuple(self._read(key, _is_edge, "an edge [u, v]"))

    def edges(self, key: str) -> list[tuple[int, int]]:
        values = self._read(key, lambda v: _is_list(v, _is_edge), "a list of edges")
        return [tuple(e) for e in values]


def apply_operation(
    name: str, parents: Sequence, params: dict, resolve: Callable = lambda parent: parent
) -> Graph:
    """Build with table entry `name` from its parents and recipe params;
    `resolve` maps each parent to its graph once the name and the parent
    count have been checked."""
    op = OPERATIONS.get(name)
    if op is None:
        raise UnknownOperation(f"no replay rule for {name!r}")
    if len(parents) != op.arity:
        raise ReplayMismatch(
            f"{op.name} takes {op.arity} parent(s), the recipe names {len(parents)}"
        )
    return op.apply([resolve(parent) for parent in parents], _Params(op.name, params))


def replay(recipe: Recipe, resolve: Callable[[str], Graph]) -> Graph:
    """Re-run a recorded construction; resolve maps certificates to graphs."""
    if recipe.operation == "seed":
        return resolve(recipe.output_cert)
    return apply_operation(recipe.operation, recipe.parents, recipe.params, resolve)


def verified_replay(recipe: Recipe, resolve: Callable[[str], Graph]) -> Graph:
    """Replay and insist the output certificate matches the record."""
    out = replay(recipe, resolve)
    got = certificate(out)
    if got != recipe.output_cert:
        raise ReplayMismatch(
            f"{recipe.operation} replayed to {got!r}, recorded {recipe.output_cert!r}"
        )
    return out


def write_recipes(path: str | os.PathLike, recipes: Iterable[Recipe]) -> int:
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for recipe in recipes:
            fh.write(recipe.to_line() + "\n")
            count += 1
    return count


def read_recipes(path: str | os.PathLike) -> list[Recipe]:
    out = []
    with open(path, encoding="latin-1") as fh:  # one char per byte; decoded per line
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.encode("latin-1").decode("ascii").strip()
                if line and not line.startswith("#"):
                    out.append(Recipe.from_line(line))
            except (UnicodeDecodeError, MalformedInput) as err:
                raise MalformedInput(f"{os.fspath(path)}:{lineno}: {err}") from None
    return out
