"""Multigraphs, partitions and cut primitives shared by every solver stage.

Two graph modes exist.  ``weighted`` carries exact rational weights and is
only used at the outermost layer; ``multi`` carries positive integer
multiplicities and is what every inner algorithm operates on.  All types are
immutable after construction and every operation here is a pure function.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Num = int | Fraction

WEIGHTED = "weighted"
MULTI = "multi"


class InvalidInputError(ValueError):
    """An operation was called outside its stated preconditions."""


def _as_num(w) -> Num:
    if isinstance(w, (int, Fraction)):
        return w
    if isinstance(w, str):
        return Fraction(w)
    raise InvalidInputError(f"weight {w!r} is not an exact number")


@dataclass(frozen=True)
class MultiGraph:
    """A multigraph on vertices ``0..n-1`` given as a tuple of edge records.

    Each record is ``(u, v, w)`` with ``u < v``.  In ``multi`` mode ``w`` is
    a positive integer multiplicity and records are canonical: parallel
    records of the same pair merge into one, sorted by endpoints.  In
    ``weighted`` mode ``w`` is a nonnegative rational and parallel records
    stay separate (rounding treats each on its own).  Self-loops are
    forbidden.
    """

    n: int
    edges: tuple[tuple[int, int, Num], ...]
    mode: str = MULTI

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        if self.mode not in (WEIGHTED, MULTI):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        canon = []
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInputError(f"edge ({u},{v}) endpoints out of range")
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            w = _as_num(w)
            if self.mode == MULTI:
                if not isinstance(w, int) or w < 1:
                    raise InvalidInputError(f"multiplicity {w!r} must be a positive integer")
            elif w < 0:
                raise InvalidInputError(f"weight {w!r} must be nonnegative")
            canon.append((u, v, w))
        if self.mode == MULTI:
            merged: dict[tuple[int, int], int] = {}
            for u, v, w in canon:
                merged[(u, v)] = merged.get((u, v), 0) + w
            canon = [(u, v, w) for (u, v), w in sorted(merged.items())]
        object.__setattr__(self, "edges", tuple(canon))

    # -- constructors ------------------------------------------------------

    @classmethod
    def multi(cls, n: int, edges: Iterable[tuple[int, int, int]] | Iterable[tuple[int, int]]) -> "MultiGraph":
        """Build an unweighted multigraph; 2-tuples get multiplicity 1."""
        full = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges]
        return cls(n, tuple(full), MULTI)

    @classmethod
    def weighted(cls, n: int, edges: Iterable[tuple[int, int, Num]]) -> "MultiGraph":
        return cls(n, tuple(edges), WEIGHTED)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edge records (parallel classes, not multiplicity sum)."""
        return len(self.edges)

    def total_weight(self) -> Num:
        return sum((w for _, _, w in self.edges), 0)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"p {self.n} {self.m} {self.mode}\n".encode())
        for u, v, w in sorted(self.edges):
            h.update(f"{u} {v} {w}\n".encode())
        return h.hexdigest()

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["MultiGraph", list[int]]:
        """Induced subgraph on ``vertices``; returns it plus new->old labels."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        sub = [
            (index[u], index[v], w)
            for u, v, w in self.edges
            if u in index and v in index
        ]
        return MultiGraph(len(keep), tuple(sub), self.mode), keep


@dataclass(frozen=True)
class Partition:
    """A partition of a sorted ground set into disjoint nonempty parts.

    The single degenerate member is the empty-ground partition ``P_empty``
    which by convention consists of one empty part.
    """

    ground: tuple[int, ...]
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.ground == ():
            if self.parts != (frozenset(),):
                raise InvalidInputError("empty ground set must carry exactly one empty part")
            return
        seen: set[int] = set()
        for p in self.parts:
            if not p:
                raise InvalidInputError("empty part in a nonempty partition")
            if p & seen:
                raise InvalidInputError("parts are not disjoint")
            seen |= p
        if seen != set(self.ground):
            raise InvalidInputError("parts do not cover the ground set")
        if tuple(sorted(self.ground)) != self.ground:
            raise InvalidInputError("ground set must be sorted")
        canon = tuple(sorted(self.parts, key=lambda p: sorted(p)))
        object.__setattr__(self, "parts", canon)

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]]) -> "Partition":
        ps = tuple(frozenset(p) for p in parts)
        ground = tuple(sorted(v for p in ps for v in p))
        if not ground:
            return cls.empty()
        return cls(ground, ps)

    @classmethod
    def empty(cls) -> "Partition":
        return cls((), (frozenset(),))

    def __len__(self) -> int:
        return len(self.parts)

    def is_empty(self) -> bool:
        return self.ground == ()

    def part_of(self) -> dict[int, int]:
        """Vertex -> index of its part (parts in canonical order)."""
        out: dict[int, int] = {}
        for i, p in enumerate(self.parts):
            for v in p:
                out[v] = i
        return out


def cut_weight(g: MultiGraph, p: Partition) -> Num:
    """Total weight of edges of ``G[ground]`` whose endpoints sit in
    different parts of ``p``.

    Edges leaving the ground set are ignored: weights of partitions of a
    vertex subset are always taken with respect to the induced subgraph.
    """
    ground = set(p.ground)
    if not ground <= set(range(g.n)):
        raise InvalidInputError("partition ground set is not a vertex subset")
    label = p.part_of()
    total: Num = 0
    for u, v, w in g.edges:
        if u in ground and v in ground and label[u] != label[v]:
            total += w
    return total


@dataclass(frozen=True)
class EdgeCut:
    """A bipartition (A, B) of the vertex set together with its order."""

    side_a: frozenset[int]
    side_b: frozenset[int]
    order: Num

    @classmethod
    def of(cls, g: MultiGraph, side_a: Iterable[int]) -> "EdgeCut":
        a = frozenset(side_a)
        b = frozenset(range(g.n)) - a
        order: Num = 0
        for u, v, w in g.edges:
            if (u in a) != (v in a):
                order += w
        return cls(a, b, order)


def uf_find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest over ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def uf_union(parent: list[int], a: int, b: int) -> bool:
    """Merge the sets of a and b; False if they were one set already.

    The larger root hangs below the smaller, so every root stays the least
    member of its set."""
    ra, rb = uf_find(parent, a), uf_find(parent, b)
    if ra == rb:
        return False
    if ra < rb:
        parent[rb] = ra
    else:
        parent[ra] = rb
    return True


def bfs(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root`` over the adjacency lists ``adj``,
    each scanned in its own order, and every vertex's parent: -1 at the
    root, -2 where a vertex is unreached."""
    parent = [-2] * len(adj)
    parent[root] = -1
    order = [root]
    for u in order:
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
    return order, parent


def connected_components(g: MultiGraph) -> Partition:
    """The partition of V(G) into maximal connected vertex sets."""
    parent = list(range(g.n))
    for u, v, _ in g.edges:
        uf_union(parent, u, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf_find(parent, v), []).append(v)
    if g.n == 0:
        return Partition.empty()
    return Partition.from_parts(groups.values())


def cc(g: MultiGraph) -> int:
    return len(connected_components(g)) if g.n else 0


def is_connected(g: MultiGraph) -> bool:
    return g.n <= 1 or cc(g) == 1


# -- weighted -> unweighted rounding --------------------------------------


@dataclass(frozen=True)
class RoundResult:
    """Outcome of rounding a weighted graph to an unweighted multigraph.

    ``vertex_map[v]`` is the contracted image of original vertex ``v``; heavy
    edges (weight above twice the lower bound) were contracted away.  ``scale``
    is the weight of one unit of multiplicity.
    """

    graph: MultiGraph
    scale: Fraction
    vertex_map: tuple[int, ...]

    def lift_partition(self, p: Partition) -> Partition:
        """Pull a partition of the contracted graph back to original vertices."""
        fibers: dict[int, list[int]] = {}
        for v, img in enumerate(self.vertex_map):
            fibers.setdefault(img, []).append(v)
        parts = [frozenset(x for img in part for x in fibers[img]) for part in p.parts]
        return Partition.from_parts(parts)


def round_to_multigraph(g: MultiGraph, epsilon: Num, lower_bound: Num) -> RoundResult:
    """Round a weighted graph to a multigraph preserving k-cut weights.

    Requires ``lower_bound <= OPT <= 2 * lower_bound``.  Edges heavier than
    ``2 * lower_bound`` cross no solution of that weight and are contracted.
    Each remaining edge record becomes ``ceil(w / delta)`` parallel copies
    with ``delta = epsilon * lower_bound / m``; the ceiling makes the
    per-edge rescaling error one-sided, so for any partition the rescaled
    weight overshoots the true weight by at most ``epsilon * lower_bound``.
    """
    if g.mode != WEIGHTED:
        raise InvalidInputError("rounding expects a weighted graph")
    epsilon = Fraction(epsilon)
    lower_bound = Fraction(lower_bound)
    if epsilon <= 0 or epsilon > 1:
        raise InvalidInputError("epsilon must lie in (0, 1]")
    if lower_bound <= 0:
        raise InvalidInputError("lower bound must be positive")

    threshold = 2 * lower_bound
    parent = list(range(g.n))
    for u, v, w in g.edges:
        if w > threshold:
            uf_union(parent, u, v)

    roots = sorted({uf_find(parent, v) for v in range(g.n)})
    new_id = {r: i for i, r in enumerate(roots)}
    vmap = tuple(new_id[uf_find(parent, v)] for v in range(g.n))

    if g.m == 0:
        return RoundResult(MultiGraph(len(roots), (), MULTI), Fraction(1), vmap)

    delta = epsilon * lower_bound / g.m
    edges = []
    for u, v, w in g.edges:
        a, b = vmap[u], vmap[v]
        if a == b:
            continue
        w = Fraction(w)
        mult = -((-w.numerator * delta.denominator) // (w.denominator * delta.numerator))
        if mult > 0:
            edges.append((min(a, b), max(a, b), int(mult)))
    return RoundResult(MultiGraph(len(roots), tuple(edges), MULTI), delta, vmap)


# -- edge-list text format -------------------------------------------------


def write_graph(g: MultiGraph) -> str:
    lines = [f"p {g.n} {g.m} {g.mode}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> MultiGraph:
    """Parse the edge-list format (header ``p n m mode``, lines ``u v w``).

    Raises :class:`InvalidInputError` naming the offending line number.
    """
    header = None
    edges: list[tuple[int, int, Num]] = []
    declared_m = 0
    mode = MULTI
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "p" or len(fields) != 4:
                raise InvalidInputError(f"line {lineno}: expected header 'p <n> <m> <weighted|multi>'")
            try:
                n = int(fields[1])
                declared_m = int(fields[2])
            except ValueError:
                raise InvalidInputError(f"line {lineno}: malformed header numbers") from None
            mode = fields[3]
            if mode not in (WEIGHTED, MULTI):
                raise InvalidInputError(f"line {lineno}: unknown mode {mode!r}")
            header = (n, declared_m, mode)
            continue
        if len(fields) != 3:
            raise InvalidInputError(f"line {lineno}: expected 'u v w'")
        try:
            u, v = int(fields[0]), int(fields[1])
            w: Num
            if mode == MULTI:
                w = int(fields[2])
            else:
                w = Fraction(fields[2])
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError(f"line {lineno}: malformed edge") from None
        edges.append((u, v, w))
    if header is None:
        raise InvalidInputError("line 1: missing header")
    n, declared_m, mode = header
    if len(edges) != declared_m:
        raise InvalidInputError(f"header declares {declared_m} edges, found {len(edges)}")
    try:
        return MultiGraph(n, tuple(edges), mode)
    except InvalidInputError as exc:
        raise InvalidInputError(str(exc)) from None
