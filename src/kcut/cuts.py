"""Flow based cut utilities, the greedy k-cut 2-approximation, and the
brute-force enumeration oracle: the CLI's oracle mode, the scheme's exact
path up to 14 vertices, and the reference of the test and acceptance suites.

All flow computations run on integer capacities.  Weighted graphs are scaled
to a common denominator first, so every value returned here is exact.

Every flow runs on one engine, ``ResidualNetwork``: shortest augmenting
paths on directed arcs, stopped once the flow exceeds a bound.  The global
minimum 2-cut takes its order from Nagamochi–Ibaraki contraction (maximum
adjacency phases, each contracting every edge whose attachment reaches the
best cut so far) and its side from bounded decisions on one network of the
graph, one per class of vertices more than λ-connected; the s-t cuts and the
vertex separators (on the node-split arcs) are the same call with a bound no
flow reaches.  The same contraction at a fixed bound s, finished by bounded
decisions along Gusfield's equivalent-flow tree, gives the exact classes of
vertices more than s-connected that the witness search works from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import (
    MULTI,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Num,
    Partition,
    connected_components,
    cut_weight,
    uf_find,
)

ORACLE_ENUM_LIMIT = 14


class OracleTooLargeError(InvalidInputError):
    """Exact enumeration was requested beyond the supported instance size."""


class ResidualNetwork:
    """Directed arcs ``(u, v, cap_uv, cap_vu)`` on vertices ``0..n-1``, built
    once, for many flow computations.

    ``of(g)`` gives each multigraph edge as the pair ``(u, v, w, w)``.  Each
    flow copies the initial capacities and augments along shortest paths, so
    a decision bounded by s costs at most s+2 breadth-first searches,
    O((s+1)·m).  A full maximum flow is the same call with s at least the
    total capacity out of the sources.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, int, int]]):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, cap_uv, cap_vu in arcs:
            self.adj[u].append((v, len(self.to)))
            self.to.append(v)
            self.adj[v].append((u, len(self.to)))
            self.to.append(u)
            self.cap += (cap_uv, cap_vu)

    @classmethod
    def of(cls, g: MultiGraph) -> ResidualNetwork:
        _require_multi(g)
        return cls(g.n, ((u, v, w, w) for u, v, w in g.edges))

    def bounded_flow(
        self, sources: Iterable[int], sinks: Iterable[int], s: int
    ) -> tuple[int, list[int], list[int]] | None:
        """A maximum sources-sinks flow if its value is at most s: the value,
        the residual capacity of every arc, and the vertices a residual
        search from the sources reaches.  Returns None as soon as the flow
        exceeds s.  No augmenting path enters a source or leaves a sink.
        """
        adj, to = self.adj, self.to
        cap = self.cap[:]
        sources = list(sources)
        is_sink = [False] * self.n
        for v in sinks:
            is_sink[v] = True
        flow = 0
        while True:
            via = [-1] * self.n  # arc that reached each vertex; -2 at sources
            for v in sources:
                via[v] = -2
            reached = list(sources)
            hit = -1
            for u in reached:
                for v, eid in adj[u]:
                    if via[v] == -1 and cap[eid]:
                        via[v] = eid
                        if is_sink[v]:
                            hit = v
                            break
                        reached.append(v)
                if hit >= 0:
                    break
            if hit < 0:
                return flow, cap, reached
            path = []
            v = hit
            while via[v] != -2:
                path.append(via[v])
                v = to[via[v] ^ 1]
            pushed = min(cap[eid] for eid in path)
            for eid in path:
                cap[eid] -= pushed
                cap[eid ^ 1] += pushed
            flow += pushed
            if flow > s:
                return None

    def small_cut_side(self, sources: Iterable[int], sinks: Iterable[int], s: int) -> frozenset[int] | None:
        """The source side of a minimum sources-sinks cut if its order is at most s.

        The side is the set a residual search from the sources reaches after a
        maximum flow, which is the unique minimal minimum-cut source side, so
        it equals ``min_st_edge_cut(g, sources, sinks).cut.side_a``.  Returns
        None as soon as the flow exceeds s.
        """
        res = self.bounded_flow(sources, sinks, s)
        return None if res is None else frozenset(res[2])


def _require_multi(g: MultiGraph) -> None:
    if g.mode != MULTI:
        raise InvalidInputError("this operation expects an unweighted multigraph")


def _require_vertices(g: MultiGraph, terminals: list[int]) -> None:
    for v in terminals:
        if not 0 <= v < g.n:
            raise InvalidInputError(f"terminal {v} is not a vertex of the {g.n}-vertex graph")


def to_integer_multigraph(g: MultiGraph) -> tuple[MultiGraph, Fraction]:
    """Exact rescaling of a weighted graph to integer multiplicities.

    Returns ``(h, scale)`` with every cut of ``h`` equal to the corresponding
    cut of ``g`` divided by ``scale``.  Zero-weight edges are dropped; they
    contribute to no cut.  Multigraphs pass through with scale 1.
    """
    if g.mode == MULTI:
        return g, Fraction(1)
    # Weights are ints or Fractions, which both carry numerator/denominator.
    denom = math.lcm(*(w.denominator for _, _, w in g.edges))
    edges = [(u, v, w.numerator * (denom // w.denominator)) for u, v, w in g.edges if w > 0]
    return MultiGraph(g.n, tuple(edges), MULTI), Fraction(1, denom)


@dataclass(frozen=True)
class FlowResult:
    value: int
    cut: EdgeCut


def min_st_edge_cut(g: MultiGraph, sources: Iterable[int], sinks: Iterable[int]) -> FlowResult:
    """Minimum total multiplicity separating ``sources`` from ``sinks``.

    The returned cut keeps all sources on side A and all sinks on side B;
    side A is the minimal one.
    """
    _require_multi(g)
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    if not src or not snk:
        raise InvalidInputError("sources and sinks must be nonempty")
    _require_vertices(g, src + snk)
    if set(src) & set(snk):
        raise InvalidInputError("sources and sinks overlap")
    res = ResidualNetwork.of(g).bounded_flow(src, snk, sum(w for _, _, w in g.edges))
    assert res is not None
    value, _, reached = res
    side_a = frozenset(reached)
    cut = EdgeCut(side_a, frozenset(range(g.n)) - side_a, value)
    assert EdgeCut.of(g, side_a).order == value
    return FlowResult(value, cut)


@dataclass(frozen=True)
class SeparatorResult:
    """Minimum-order vertex separation with a Menger path system.

    ``x1`` and ``x2`` cover V(G), ``separator = x1 & x2``, and ``paths[i]``
    is a z1-z2 path through ``sorted(separator)[i]``; the paths are pairwise
    vertex-disjoint.
    """

    x1: frozenset[int]
    x2: frozenset[int]
    separator: frozenset[int]
    paths: tuple[tuple[int, ...], ...]


def min_vertex_separator(g: MultiGraph, z1: Iterable[int], z2: Iterable[int]) -> SeparatorResult:
    """Minimum vertex separation (X1, X2) with z1 in X1, z2 in X2.

    Terminals may overlap; shared vertices are forced into the separator.
    Uses the standard node-splitting reduction, so the order equals the
    maximum number of vertex-disjoint z1-z2 paths.
    """
    z1 = sorted(set(z1))
    z2 = sorted(set(z2))
    if len(z1) != len(z2):
        raise InvalidInputError("terminal sets must have equal size")
    if not z1:
        raise InvalidInputError("terminal sets must be nonempty")
    _require_vertices(g, z1 + z2)
    n = g.n
    # v_in = 2v, v_out = 2v+1.  Arc v is v's unit arc; each edge joins the
    # out-nodes to the in-nodes with capacity n, more than any flow here.
    arcs = [(2 * v, 2 * v + 1, 1, 0) for v in range(n)]
    for u, v, _ in g.edges:
        arcs += ((2 * u + 1, 2 * v, n, 0), (2 * v + 1, 2 * u, n, 0))
    net = ResidualNetwork(2 * n, arcs)
    res = net.bounded_flow([2 * v for v in z1], [2 * v + 1 for v in z2], len(z1))
    assert res is not None
    order, cap, reached = res
    reach = set(reached)
    sep = frozenset(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
    x1 = frozenset(v for v in range(n) if 2 * v + 1 in reach) | sep | frozenset(z1)
    x2 = frozenset(v for v in range(n) if 2 * v + 1 not in reach) | sep
    # Arc i's flow is the residual of its reverse, eid 2i+1, which started at
    # 0.  Each vertex carries at most one unit, and no flow enters a z1 in-node
    # or leaves a z2 out-node, so each path walks from a z1 vertex to a z2 one.
    sinks = frozenset(z2)
    by_vertex = {}
    for v in z1:
        if not cap[2 * v + 1]:
            continue
        path = [v]
        while v not in sinks:
            v = next(w // 2 for w, eid in net.adj[2 * v + 1] if eid % 2 == 0 and cap[eid + 1])
            path.append(v)
        hits = [x for x in path if x in sep]
        assert len(hits) == 1, "each Menger path passes exactly one separator vertex"
        by_vertex[hits[0]] = tuple(path)
    ordered = tuple(by_vertex[v] for v in sorted(sep))
    assert len(ordered) == order == len(sep)
    return SeparatorResult(x1, x2, sep, ordered)


def _contract(g: MultiGraph, lam: int, margin: int) -> tuple[int, list[int]]:
    """Nagamochi–Ibaraki contraction of a connected multigraph: the bound λ̂
    and a class root for every vertex, where every two vertices of one class
    have λ(u, v) ≥ λ̂ + margin.

    Each phase grows a maximum-adjacency order with a lazy heap, keeping the
    cut of the added set as ``cut += deg(u) − 2·attach(u)``.  Scanning edge
    (u, v) gives λ(u, v) ≥ attach(v), so u and v are united once attach(v)
    reaches λ̂ + margin, and so are the last two vertices, whose λ is the
    last attachment.  The united classes are contracted and phases repeat
    until one vertex is left or a phase unites nothing.

    Only at margin 0 is λ̂ lowered, to the cut of every proper added set:
    every phase then unites the last two and λ̂ ends at the minimum cut.  At
    margin 1, λ̂ is a fixed bound b and each class has λ > b.  No cut of
    order ≤ b splits a class, so such a cut survives every contraction and
    leaves two classes; without one, every contracted graph has its minimum
    cut above b, and every phase unites its last two.  So the vertices form
    one class exactly when no cut has order ≤ b.
    """
    root = list(range(g.n))
    adj: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    for u, v, w in g.edges:
        adj[u][v] = adj[v][u] = w
    while len(adj) > 1:
        attach = dict.fromkeys(adj, 0)  # of the vertices not yet added
        heap = [(0, next(iter(adj)))]
        cut = 0
        united = False
        prev = last = -1
        while heap:
            neg, u = heapq.heappop(heap)
            if attach.get(u) != -neg:
                continue
            prev, last, a_last = last, u, attach.pop(u)
            cut += sum(adj[u].values()) - 2 * a_last
            if not margin and cut < lam and attach:
                lam = cut
            ru = uf_find(root, u)
            for v, w in adj[u].items():
                if v in attach:
                    a = attach[v] = attach[v] + w
                    heapq.heappush(heap, (-a, v))
                    if a >= lam + margin:
                        rv = uf_find(root, v)
                        if rv != ru:
                            root[rv] = ru
                            united = True
        assert not attach, "contraction expects a connected graph"
        if a_last >= lam + margin and uf_find(root, prev) != uf_find(root, last):
            root[uf_find(root, last)] = uf_find(root, prev)
            united = True
        if not united:
            break
        rep = {u: uf_find(root, u) for u in adj}
        merged: dict[int, dict[int, int]] = {}
        for u, nbrs in adj.items():
            ru = rep[u]
            out = merged.setdefault(ru, {})
            for v, w in nbrs.items():
                rv = rep[v]
                if rv != ru:
                    out[rv] = out.get(rv, 0) + w
        adj = merged
    return lam, [uf_find(root, v) for v in range(g.n)]


def _classes_above(g: MultiGraph, s: int, net: ResidualNetwork) -> list[int]:
    """The classes of a connected multigraph's vertices under λ(u, v) > s:
    for every vertex, the least vertex of its class.  ``net`` is
    ``ResidualNetwork.of(g)``.

    Gusfield's equivalent-flow tree ("Very simple methods for all pairs
    network flow analysis", SIAM J. Comput. 1990) with decisions bounded by
    s: each vertex i = 1..n-1 is decided against its tree parent t < i, and
    the side of a cut of order <= s re-hangs the later vertices with parent
    t on i's side to i.  A flow above s puts i in t's class instead.  No cut
    of order <= s separates such a pair, so the run is Gusfield's on the
    graph with these pairs merged, where every tree edge left has λ <= s.
    Pairs that ``_contract`` at the fixed bound s unites are settled without
    a flow.
    """
    _, root = _contract(g, s, 1)
    label = list(range(g.n))
    parent = [0] * g.n
    for i in range(1, g.n):
        t = parent[i]
        side = None if root[i] == root[t] else net.small_cut_side((i,), (t,), s)
        if side is None:
            label[i] = label[t]
            continue
        for j in side:
            if j > i and parent[j] == t:
                parent[j] = i
    return label


def _min_cut_value(g: MultiGraph) -> int:
    """Order of a minimum 2-cut of a connected multigraph (Nagamochi–Ibaraki).

    ``_contract`` at margin 0 from λ̂ = the least weighted degree: at most
    n−1 phases of O(m·log n) each, and on clustered multigraphs far fewer,
    since a phase contracts most heavy edges at once.
    """
    degree = [0] * g.n
    for u, v, w in g.edges:
        degree[u] += w
        degree[v] += w
    return _contract(g, min(degree), 0)[0]


def global_min_2cut(g: MultiGraph) -> EdgeCut:
    """A minimum-order edge cut of ``g``.

    On a connected graph this is the nontrivial global minimum 2-cut (order
    at least 1): among the minimal minimum 0-t cut sides over all sinks t,
    the lexicographically smallest sorted side containing vertex 0.  On a
    disconnected graph the zero cut separating the component of the
    smallest vertex is returned.

    ``_min_cut_value`` gives the order λ*, and ``_min_2cut_of_order`` the
    side.
    """
    _require_multi(g)
    if g.n < 2:
        raise InvalidInputError("a 2-cut needs at least two vertices")
    comps = connected_components(g)
    if len(comps) > 1:
        side = comps.parts[0]
        return EdgeCut.of(g, side)
    return _min_2cut_of_order(g, _min_cut_value(g))


def _min_2cut_of_order(g: MultiGraph, order: int) -> EdgeCut:
    """``global_min_2cut`` of a connected multigraph whose minimum cut order
    λ* = ``order`` is known.

    ``_contract`` at the fixed bound λ* and margin 1 splits the vertices
    into classes with λ > λ*.  Sinks t = 1..n-1 are decided in order on one
    residual network, each with at most λ*+1 augmenting paths, skipping
    every sink that vertex 0's class or an earlier decision settles: at most
    one decision per class.
    """
    _, root = _contract(g, order, 1)
    net = ResidualNetwork.of(g)
    # A sink t outside a found side S (found for sink t_S) adds nothing new:
    # S is a 0-t cut of order λ*, so λ(0,t) = λ* and S is a minimum 0-t
    # cut, hence the minimal side S_t ⊆ S.  Then t_S ∉ S_t, so S_t is a
    # minimum 0-t_S cut and S ⊆ S_t.  So S_t = S, with the same key.  Only
    # sinks inside every side found so far are decided.  A sink t' in the
    # class of 0 or of a decided sink t (a settled class) adds nothing
    # either: λ(0,t') > λ* when λ(0,t) > λ*, and otherwise no cut of order
    # λ* separates t' from t, so t' lies outside t's side.
    open_sinks = set(range(1, g.n))
    settled = {root[0]}
    best: tuple[int, ...] | None = None
    for t in range(1, g.n):
        if t not in open_sinks or root[t] in settled:
            continue
        settled.add(root[t])
        side = net.small_cut_side((0,), (t,), order)
        if side is None:
            continue
        open_sinks &= side
        key = tuple(sorted(side))
        if best is None or key < best:
            best = key
    assert best is not None, "some sink lies across a minimum cut"
    cut = EdgeCut.of(g, best)
    assert cut.order == order
    return cut


# -- greedy splitting 2-approximation --------------------------------------


def approx2_kcut(g: MultiGraph, k: int) -> tuple[Partition, Num]:
    """Greedy splitting approximation for minimum k-cut (Saran and Vazirani,
    "Finding k cuts within twice the optimal", SIAM J. Comput. 1995).

    Repeatedly splits the current part with the cheapest minimum 2-cut,
    ties broken toward the least vertex, until k parts exist; with at least
    k components the split is free.  The result is within a factor 2 of
    optimal.
    """
    h, scale = to_integer_multigraph(g)
    parts, splits = _greedy_splits(h, k)
    partition = Partition.from_parts(parts)
    w_a = cut_weight(g, partition)
    assert Fraction(w_a) == sum(order for order, _ in splits) * scale
    return partition, w_a


def merge_to_k_parts(parts: Iterable[Iterable[int]], k: int) -> list[set[int]]:
    """Merge the two smallest parts, by (size, least vertex), until at most
    k remain."""
    out = sorted((set(p) for p in parts), key=lambda p: (len(p), min(p)))
    while len(out) > k:
        merged = out[0] | out[1]
        out = sorted(out[2:] + [merged], key=lambda p: (len(p), min(p)))
    return out


def _greedy_splits(h: MultiGraph, k: int) -> tuple[list[set[int]], list[tuple[int, frozenset[int]]]]:
    """The greedy 2-approximation's rounds on a multigraph: its final parts
    and, for each round in order, the order of the cut it took and the side
    it split off.

    The parts start as the components of h, merged down to k if there are
    more, and every part stays connected, since both sides of a minimum cut
    of a connected graph are connected.  Each part's order comes from
    ``_min_cut_value`` once, in the first round that sees it; only the part
    a round splits, the least by (order, least vertex), gets its side from
    ``_min_2cut_of_order`` with that order: ``global_min_2cut``'s side,
    which contains that least vertex.
    """
    if not 1 <= k <= h.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    parts = merge_to_k_parts(connected_components(h).parts, k)
    splits: list[tuple[int, frozenset[int]]] = []
    heap: list[tuple[int, int, MultiGraph, list[int], set[int]]] = []
    new = list(parts)
    while len(parts) < k:
        for part in new:
            if len(part) > 1:
                sub, labels = h.induced_subgraph(part)
                heapq.heappush(heap, (_min_cut_value(sub), min(part), sub, labels, part))
        order, _, sub, labels, part = heapq.heappop(heap)
        cut = _min_2cut_of_order(sub, order)
        side = {labels[v] for v in cut.side_a}
        new = [side, part - side]
        parts.remove(part)
        parts += new
        splits.append((order, frozenset(side)))
    return parts, splits


# -- exact oracle -----------------------------------------------------------


def _partitions_into_k(n: int, k: int):
    """Yield vertex labelings (restricted growth strings) with exactly k blocks."""
    labels = [0] * n

    def rec(i: int, used: int):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                yield tuple(labels)
            return
        top = min(used + 1, k)
        for c in range(top):
            labels[i] = c
            yield from rec(i + 1, used + (1 if c == used else 0))

    yield from rec(1, 1) if n else iter(())


def oracle_exact_kcut(g: MultiGraph, k: int) -> tuple[Partition, Num]:
    """Exact minimum k-cut by exhausting all set partitions into exactly k
    nonempty parts; refuses instances with more than 14 vertices."""
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    if g.n > ORACLE_ENUM_LIMIT:
        raise OracleTooLargeError(
            f"enumeration oracle supports at most {ORACLE_ENUM_LIMIT} vertices, got {g.n}"
        )
    h, _ = to_integer_multigraph(g)
    best_val: int | None = None
    best_labels: tuple[int, ...] | None = None
    for labels in _partitions_into_k(g.n, k):
        val = 0
        for u, v, w in h.edges:
            if labels[u] != labels[v]:
                val += w
                if best_val is not None and val >= best_val:
                    break
        else:
            if best_val is None or val < best_val:
                best_val, best_labels = val, labels
    assert best_labels is not None
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(best_labels):
        groups.setdefault(c, []).append(v)
    partition = Partition.from_parts(groups.values())
    return partition, cut_weight(g, partition)
