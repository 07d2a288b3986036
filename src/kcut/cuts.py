"""Flow based cut utilities, the greedy k-cut 2-approximation, and brute
force oracles used throughout the test and acceptance suites.

All flow computations run on integer capacities.  Weighted graphs are scaled
to a common denominator first, so every value returned here is exact.
"""

from __future__ import annotations

import math
import random
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
)

ORACLE_ENUM_LIMIT = 14


class OracleTooLargeError(InvalidInputError):
    """Exact enumeration was requested beyond the supported instance size."""


class _Dinic:
    """Max-flow on integer capacities with deterministic arc order."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap_uv: int, cap_vu: int = 0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            flow += self._blocking_flow(s, t, level)

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Push one s-t path at a time along the level graph until none is left.

        ``path`` is the stack of arcs from s to the current vertex.  A dead
        end pops its arc and advances the parent's arc pointer, so each
        vertex scans its arcs once per phase, in ``head`` order.
        """
        head, to, cap = self.head, self.to, self.cap
        it = [0] * self.n
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                total += pushed
                path.clear()
                u = s
                continue
            arcs = head[u]
            while it[u] < len(arcs):
                eid = arcs[it[u]]
                if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if u == s:
                    return total
                eid = path.pop()
                u = to[eid ^ 1]
                it[u] += 1
                continue
            path.append(eid)
            u = to[eid]

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


class ResidualNetwork:
    """The arcs of a multigraph, built once, for many bounded cut decisions.

    Each decision copies the initial capacities and augments along shortest
    paths, so it costs at most s+2 breadth-first searches, O((s+1)·m).
    """

    def __init__(self, g: MultiGraph):
        _require_multi(g)
        self.n = g.n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for u, v, w in g.edges:
            self.adj[u].append((v, len(self.to)))
            self.to.append(v)
            self.adj[v].append((u, len(self.to)))
            self.to.append(u)
            self.cap += (w, w)

    def small_cut_side(self, sources: Iterable[int], sinks: Iterable[int], s: int) -> frozenset[int] | None:
        """The source side of a minimum sources-sinks cut if its order is at most s.

        The side is the set a residual search from the sources reaches after a
        maximum flow, which is the unique minimal minimum-cut source side, so
        it equals ``min_st_edge_cut(g, sources, sinks).cut.side_a``.  Returns
        None as soon as the flow exceeds s.
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
                return frozenset(reached)
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

    def has_cut_at_most(self, s: int) -> bool:
        """Whether some 2-cut has order at most s: the global minimum cut is
        the minimum over t of the 0-t cut, so stop at the first small one."""
        return any(self.small_cut_side((0,), (t,), s) is not None for t in range(1, self.n))


def _require_multi(g: MultiGraph) -> None:
    if g.mode != MULTI:
        raise InvalidInputError("this operation expects an unweighted multigraph")


def to_integer_multigraph(g: MultiGraph) -> tuple[MultiGraph, Fraction]:
    """Exact rescaling of a weighted graph to integer multiplicities.

    Returns ``(h, scale)`` with every cut of ``h`` equal to the corresponding
    cut of ``g`` divided by ``scale``.  Zero-weight edges are dropped; they
    contribute to no cut.  Multigraphs pass through with scale 1.
    """
    if g.mode == MULTI:
        return g, Fraction(1)
    denom = 1
    for _, _, w in g.edges:
        denom = denom * Fraction(w).denominator // math.gcd(denom, Fraction(w).denominator)
    scale = Fraction(1, denom)
    edges = []
    for u, v, w in g.edges:
        mult = int(Fraction(w) * denom)
        if mult > 0:
            edges.append((u, v, mult))
    return MultiGraph(g.n, tuple(edges), MULTI), scale


@dataclass(frozen=True)
class FlowResult:
    value: int
    cut: EdgeCut


def min_st_edge_cut(g: MultiGraph, sources: Iterable[int], sinks: Iterable[int]) -> FlowResult:
    """Minimum total multiplicity separating ``sources`` from ``sinks``.

    The returned cut keeps all sources on side A and all sinks on side B.
    """
    _require_multi(g)
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    if not src or not snk:
        raise InvalidInputError("sources and sinks must be nonempty")
    if set(src) & set(snk):
        raise InvalidInputError("sources and sinks overlap")
    inf = sum(w for _, _, w in g.edges) + 1
    net = _Dinic(g.n + 2)
    s_node, t_node = g.n, g.n + 1
    for u, v, w in g.edges:
        net.add_arc(u, v, w, w)
    for v in src:
        net.add_arc(s_node, v, inf)
    for v in snk:
        net.add_arc(v, t_node, inf)
    value = net.max_flow(s_node, t_node)
    reach = net.residual_reachable(s_node)
    side_a = frozenset(v for v in range(g.n) if v in reach)
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
    n = g.n
    # v_in = 2v, v_out = 2v+1; source = 2n, sink = 2n+1.
    inf = 2 * n + len(g.edges) * 2 + 2
    net = _Dinic(2 * n + 2)
    for v in range(n):
        net.add_arc(2 * v, 2 * v + 1, 1)
    for u, v, _ in g.edges:
        net.add_arc(2 * u + 1, 2 * v, inf)
        net.add_arc(2 * v + 1, 2 * u, inf)
    for v in z1:
        net.add_arc(2 * n, 2 * v, inf)
    for v in z2:
        net.add_arc(2 * v + 1, 2 * n + 1, inf)
    order = net.max_flow(2 * n, 2 * n + 1)
    reach = net.residual_reachable(2 * n)
    sep = frozenset(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
    x1 = frozenset(v for v in range(n) if 2 * v + 1 in reach) | sep | frozenset(z1)
    x2 = frozenset(v for v in range(n) if 2 * v + 1 not in reach) | sep
    paths = _unit_paths(net, n, order)
    by_vertex = {}
    for path in paths:
        hits = [v for v in path if v in sep]
        assert len(hits) == 1, "each Menger path passes exactly one separator vertex"
        by_vertex[hits[0]] = tuple(path)
    ordered = tuple(by_vertex[v] for v in sorted(sep))
    assert len(ordered) == order == len(sep)
    return SeparatorResult(x1, x2, sep, ordered)


def _unit_paths(net: _Dinic, n: int, count: int) -> list[list[int]]:
    """Decompose the node-split flow into ``count`` vertex paths.

    Every arc in the separator network was added with an empty reverse arc,
    so the flow on forward arc ``eid`` is exactly ``cap[eid ^ 1]``.
    """
    flow = [0] * len(net.to)
    for eid in range(0, len(net.to), 2):
        flow[eid] = net.cap[eid ^ 1]
    src, dst = 2 * n, 2 * n + 1
    paths: list[list[int]] = []
    for _ in range(count):
        node = src
        verts: list[int] = []
        while node != dst:
            for eid in net.head[node]:
                if eid % 2 == 0 and flow[eid] > 0:
                    flow[eid] -= 1
                    node = net.to[eid]
                    if node < 2 * n and node % 2 == 0:
                        verts.append(node // 2)
                    break
            else:
                raise AssertionError("flow decomposition got stuck")
        paths.append(verts)
    return paths


def global_min_2cut(g: MultiGraph) -> EdgeCut:
    """A minimum-order edge cut of ``g``.

    On a connected graph this is the nontrivial global minimum 2-cut (order
    at least 1).  On a disconnected graph the zero cut separating the
    component of the smallest vertex is returned.  Ties between equal-order
    candidates break toward the lexicographically smallest side containing
    vertex 0.
    """
    _require_multi(g)
    if g.n < 2:
        raise InvalidInputError("a 2-cut needs at least two vertices")
    comps = connected_components(g)
    if len(comps) > 1:
        side = comps.parts[0]
        return EdgeCut.of(g, side)
    best: tuple[int, tuple[int, ...]] | None = None
    inf = sum(w for _, _, w in g.edges) + 1
    for t in range(1, g.n):
        net = _Dinic(g.n)
        for u, v, w in g.edges:
            net.add_arc(u, v, w, w)
        value = net.max_flow(0, t)
        reach = net.residual_reachable(0)
        assert value < inf
        key = (value, tuple(sorted(reach)))
        if best is None or key < best:
            best = key
    assert best is not None
    return EdgeCut.of(g, best[1])


def min_nontrivial_2cut(g: MultiGraph) -> EdgeCut | None:
    """Minimum 2-cut with at least one crossing edge, or None if g has no edges.

    Works on disconnected graphs: the cheapest way to get one crossing edge
    splits a single component minimally and spreads the rest around it.
    """
    _require_multi(g)
    if not g.edges:
        return None
    comps = connected_components(g)
    best: EdgeCut | None = None
    for part in comps.parts:
        if len(part) < 2:
            continue
        sub, labels = g.induced_subgraph(part)
        if not sub.edges:
            continue
        local = global_min_2cut(sub)
        side = frozenset(labels[v] for v in local.side_a)
        cand = EdgeCut.of(g, side)
        assert cand.order == local.order
        if best is None or (cand.order, sorted(cand.side_a)) < (best.order, sorted(best.side_a)):
            best = cand
    return best


# -- greedy splitting 2-approximation --------------------------------------


def approx2_kcut(g: MultiGraph, k: int) -> tuple[Partition, Num]:
    """Greedy splitting approximation for minimum k-cut.

    Repeatedly applies the cheapest nontrivial 2-cut inside any current part
    until k parts exist; with at least k components the split is free.  The
    result is within a factor 2 of optimal.
    """
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    h, scale = to_integer_multigraph(g)
    parts: list[set[int]] = [set(p) for p in connected_components(h).parts]
    total = 0
    while len(parts) > k:
        parts.sort(key=lambda p: (len(p), min(p)))
        merged = parts[0] | parts[1]
        parts = [merged] + parts[2:]
    while len(parts) < k:
        best: tuple[int, int, frozenset[int]] | None = None
        for part in sorted(parts, key=min):
            if len(part) < 2:
                continue
            sub, labels = h.induced_subgraph(part)
            cut = min_nontrivial_2cut(sub)
            if cut is None:
                cut = EdgeCut.of(sub, frozenset([0]))
            side = frozenset(labels[v] for v in cut.side_a)
            key = (cut.order, min(part))
            if best is None or key < (best[0], best[1]):
                best = (int(cut.order), min(part), side)
        if best is None:
            raise InvalidInputError("cannot split singleton parts further")
        _, _, side = best
        for i, part in enumerate(parts):
            if side <= part:
                rest = part - side
                parts[i : i + 1] = [set(side), set(rest)]
                break
        total += best[0]
    partition = Partition.from_parts(parts)
    w_a = cut_weight(g, partition)
    assert Fraction(w_a) == Fraction(total) * scale
    return partition, w_a


# -- exact oracles ----------------------------------------------------------


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


def oracle_exact_kcut(
    g: MultiGraph,
    k: int,
    method: str = "enumerate",
    seed: int = 0,
    runs: int | None = None,
) -> tuple[Partition, Num]:
    """Exact (or, in contraction mode, whp-exact) minimum k-cut.

    ``enumerate`` exhausts all set partitions into exactly k nonempty parts
    and refuses instances with more than 14 vertices.  ``contract`` runs
    repeated random contractions and keeps the best of ``runs`` tries.
    """
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    h, scale = to_integer_multigraph(g)
    if method == "enumerate":
        if g.n > ORACLE_ENUM_LIMIT:
            raise OracleTooLargeError(
                f"enumeration oracle supports at most {ORACLE_ENUM_LIMIT} vertices, got {g.n}"
            )
        best_val: int | None = None
        best_labels: tuple[int, ...] | None = None
        edges = h.edges
        for labels in _partitions_into_k(g.n, k):
            val = 0
            for u, v, w in edges:
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
    elif method == "contract":
        if runs is None:
            runs = min(10**6, max(1, math.ceil(g.n ** (2 * (k - 1)) * math.log(max(g.n, 2)))))
        rng = random.Random(seed)
        best_partition: Partition | None = None
        best_val = None
        for _ in range(runs):
            partition = _contract_once(h, k, rng)
            val = cut_weight(h, partition)
            if best_val is None or val < best_val:
                best_val, best_partition = val, partition
        assert best_partition is not None
        partition = best_partition
    else:
        raise InvalidInputError(f"unknown oracle method {method!r}")
    return partition, cut_weight(g, partition)


def _contract_once(g: MultiGraph, k: int, rng: random.Random) -> Partition:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    alive = g.n
    edges = list(g.edges)
    while alive > k:
        weights = []
        live = []
        for u, v, w in edges:
            if find(u) != find(v):
                live.append((u, v))
                weights.append(w)
        if not live:
            # Disconnected remainder: merge two smallest roots.
            roots = sorted({find(v) for v in range(g.n)})
            parent[roots[1]] = roots[0]
            alive -= 1
            continue
        pick = rng.randrange(sum(weights))
        acc = 0
        for (u, v), w in zip(live, weights):
            acc += w
            if pick < acc:
                parent[find(max(u, v))] = find(min(u, v))
                alive -= 1
                break
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return Partition.from_parts(groups.values())
