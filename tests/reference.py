"""Slow reference implementations that the tests compare the solver against.

None of this runs on a solver path.  ``project_tree`` and ``feasible_family``
build a tree's projection and feasible family the way the paper states them
(the engine projects in linear time from a tree rooted once and never builds
a family); ``is_bag_unbreakable`` checks edge-unbreakability by brute force;
``crossings`` counts the tree edges a partition cuts.  The engine helpers
they share come from ``kcut.dp``.

``reference_global_min_2cut`` runs a fresh matrix max-flow per sink, and
``reference_approx2_kcut`` and ``reference_strip`` run the greedy
2-approximation and the stripping stage as one round loop each, every round
cutting every part again with that reference cut.

``class_quotient_kcut`` checks the exact solver past the enumeration
oracle's 14 vertices with no code the DP uses: it contracts the classes of
λ(u, v) > s (``classes_above``, by matrix max-flows) and enumerates the
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from kcut.cuts import merge_to_k_parts, oracle_exact_kcut, to_integer_multigraph
from kcut.dp import (
    MaskPartition,
    _cut_components,
    _label_vectors,
    _mask,
    _merged,
    _proj_masks,
    _rooted_sides,
    guess_budget,
    unmask_partition,
)
from kcut.graph import (
    MULTI,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Num,
    Partition,
    cc,
    connected_components,
    cut_weight,
    uf_find,
    uf_union,
)
from kcut.sparsify import StripResult

# -- spanning tree projection ------------------------------------------------


@dataclass(frozen=True)
class ProjEdge:
    u: int
    v: int
    path: tuple[int, ...]  # original tree path from u to v, inclusive


@dataclass(frozen=True)
class ProjectedTree:
    """A spanning tree restricted to a hub set X: leaves and degree-2
    vertices outside X are dissolved, so at most 2|X| vertices remain."""

    x: frozenset[int]
    vertices: frozenset[int]
    edges: tuple[ProjEdge, ...]


def project_tree(tree: Iterable[tuple[int, int]], x: Iterable[int]) -> ProjectedTree:
    """Exhaustively delete non-X leaves and smooth non-X degree-2 vertices."""
    xset = frozenset(x)
    adj: dict[int, dict[int, tuple[int, ...]]] = {}
    for u, v in tree:
        adj.setdefault(u, {})[v] = (u, v)
        adj.setdefault(v, {})[u] = (v, u)
    if not adj:
        if len(xset) > 1:
            raise InvalidInputError("projection hub set exceeds the tree")
        return ProjectedTree(xset, xset, ())

    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v in xset:
                continue
            deg = len(adj[v])
            if deg == 1:
                (u,) = adj[v]
                del adj[u][v]
                del adj[v]
                changed = True
            elif deg == 2:
                a, b = sorted(adj[v])
                path_a = adj[v][a]  # path v..a
                path_b = adj[v][b]
                del adj[a][v]
                del adj[b][v]
                del adj[v]
                adj[a][b] = tuple(reversed(path_a)) + path_b[1:]
                adj[b][a] = tuple(reversed(path_b)) + path_a[1:]
                changed = True

    verts = frozenset(adj)
    edges = []
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if u < v:
                edges.append(ProjEdge(u, v, adj[u][v]))
    out = ProjectedTree(xset, verts, tuple(edges))
    assert xset <= verts or not xset
    assert len(verts) <= max(2 * len(xset), 1) or not xset
    return out


def _edge_pairs(pt: ProjectedTree) -> tuple[tuple[int, int], ...]:
    return tuple((e.u, e.v) for e in pt.edges)


# -- feasible families --------------------------------------------------------


def _groupings(pieces: Sequence[int]) -> list[MaskPartition]:
    """All merges of disjoint masks into coarser partitions."""
    return [
        tuple(sorted(_merged(pieces, lab, max(lab, default=-1) + 1)))
        for lab in _label_vectors(len(pieces))
    ]


@dataclass(frozen=True)
class FeasibleFamily:
    x: frozenset[int]
    partitions: tuple[Partition, ...]


def _feasible_masks(xmask: int, vmask: int, edges: Sequence[tuple[int, int]], k: int) -> frozenset[MaskPartition]:
    """Projections onto the hub mask of all partitions of a projected tree
    (vertex mask and edges) obtainable by cutting at most 2k-2 edges and
    merging the resulting components."""
    if not xmask:
        return frozenset({()})
    below = _rooted_sides(vmask, edges)
    out: set[MaskPartition] = set()
    budget = min(guess_budget(k), len(edges))
    for r in range(budget + 1):
        for cut in combinations(range(len(edges)), r):
            for merged in _groupings(_cut_components(vmask, below, cut)):
                out.add(_proj_masks(merged, xmask))
    return frozenset(out)


def feasible_family(pt: ProjectedTree, k: int) -> FeasibleFamily:
    masks = sorted(_feasible_masks(_mask(pt.x), _mask(pt.vertices), _edge_pairs(pt), k))
    return FeasibleFamily(pt.x, tuple(unmask_partition(m) for m in masks))


# -- decompositions and tree families -------------------------------------------


def is_bag_unbreakable(g: MultiGraph, bag: Iterable[int], q: int, s: int) -> bool:
    """Brute force ((q, s))-edge-unbreakability check, exponential in g.m."""
    bag = frozenset(bag)
    for r in range(0, s + 1):
        for cut_edges in combinations(range(g.m), r):
            weight = sum(g.edges[i][2] for i in cut_edges)
            if weight > s:
                continue
            parent = list(range(g.n))
            for i, (u, v, _) in enumerate(g.edges):
                if i not in cut_edges:
                    uf_union(parent, u, v)
            comps: dict[int, set[int]] = {}
            for v in range(g.n):
                comps.setdefault(uf_find(parent, v), set()).add(v)
            if len(comps) < 2:
                continue
            groups = sorted(comps.values(), key=min)
            # Any union of components forms one side of a cut of weight <= s.
            for bits in range(1, 1 << (len(groups) - 1)):
                side = set()
                for i, grp in enumerate(groups):
                    if bits >> i & 1:
                        side |= grp
                cut = EdgeCut.of(g, frozenset(side))
                if cut.order <= s:
                    if len(side & bag) > q and len(bag - side) > q:
                        return False
    return True


def crossings(tree: Iterable[tuple[int, int]], p: Partition) -> int:
    """Number of tree edges whose endpoints lie in different parts."""
    label = p.part_of()
    count = 0
    for u, v in tree:
        if label[u] != label[v]:
            count += 1
    return count


# -- minimum cuts, the greedy 2-approximation and stripping -----------------


def matrix_max_flow(g, s, t):
    """Maximum s-t flow value and the residual reach of s, by depth-first
    augmenting paths on a capacity matrix."""
    cap = [[0] * g.n for _ in range(g.n)]
    for u, v, w in g.edges:
        cap[u][v] += w
        cap[v][u] += w
    value = 0
    while True:
        prev = {s: None}
        stack = [s]
        while stack and t not in prev:
            u = stack.pop()
            for v in range(g.n):
                if cap[u][v] and v not in prev:
                    prev[v] = u
                    stack.append(v)
        if t not in prev:
            return value, frozenset(prev)
        path = []
        v = t
        while prev[v] is not None:
            path.append((prev[v], v))
            v = prev[v]
        pushed = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= pushed
            cap[b][a] += pushed
        value += pushed


def classes_above(g: MultiGraph, s: int) -> list[int]:
    """For every vertex, the least vertex of its class under λ(u, v) > s.
    That relation is an equivalence (λ(u, w) >= min(λ(u, v), λ(v, w))), so
    each vertex is compared against one representative per class."""
    reps: list[int] = []
    label = []
    for v in range(g.n):
        r = next((r for r in reps if matrix_max_flow(g, r, v)[0] > s), None)
        if r is None:
            reps.append(v)
            r = v
        label.append(r)
    return label


def class_quotient_kcut(g: MultiGraph, k: int, s: int) -> Num | None:
    """The minimum k-cut weight of a multigraph when it is at most s, else
    None, by enumerating the quotient over ``classes_above(g, s)``.

    A k-cut of weight <= s splits no class, since it would leave a cut of
    order <= s between two vertices of one; so it is a k-cut of the quotient
    with the same weight, and every k-cut of the quotient lifts to one of g.
    Raises ``OracleTooLargeError`` past 14 classes."""
    label = classes_above(g, s)
    index = {r: i for i, r in enumerate(sorted(set(label)))}
    if len(index) < k:
        return None
    quotient = MultiGraph.multi(
        len(index),
        [(index[label[u]], index[label[v]], w) for u, v, w in g.edges if label[u] != label[v]],
    )
    value = oracle_exact_kcut(quotient, k)[1]
    return value if value <= s else None


def reference_global_min_2cut(g):
    """The n-1 fresh max-flow loop global_min_2cut used to run: the least
    (order, sorted minimal 0-t side) over all sinks t."""
    comps = connected_components(g)
    if len(comps) > 1:
        return EdgeCut.of(g, comps.parts[0])
    best = None
    for t in range(1, g.n):
        value, reach = matrix_max_flow(g, 0, t)
        key = (value, tuple(sorted(reach)))
        if best is None or key < best:
            best = key
    return EdgeCut.of(g, best[1])


def reference_min_nontrivial_2cut(g: MultiGraph) -> EdgeCut | None:
    """The least (order, sorted side) cut with a crossing edge: one component
    split by its reference minimum cut, the rest spread around it.  None if
    g has no edges."""
    best = None
    for part in connected_components(g).parts:
        if len(part) < 2:
            continue
        sub, labels = g.induced_subgraph(part)
        local = reference_global_min_2cut(sub)
        key = (local.order, tuple(sorted(labels[v] for v in local.side_a)))
        if best is None or key < best:
            best = key
    return None if best is None else EdgeCut.of(g, best[1])


def reference_approx2_kcut(g: MultiGraph, k: int) -> tuple[Partition, Num]:
    """The greedy splitting 2-approximation as a round loop: each round cuts
    every part and splits the least by (order, least vertex)."""
    h, _ = to_integer_multigraph(g)
    parts = merge_to_k_parts(connected_components(h).parts, k)
    while len(parts) < k:
        best = None
        for part in parts:
            if len(part) < 2:
                continue
            sub, labels = h.induced_subgraph(part)
            cut = reference_min_nontrivial_2cut(sub)
            key = (cut.order, min(part))
            if best is None or key < best[0]:
                best = (key, part, {labels[v] for v in cut.side_a})
        _, part, side = best
        parts.remove(part)
        parts += [side, part - side]
    partition = Partition.from_parts(parts)
    return partition, cut_weight(g, partition)


def reference_strip(g: MultiGraph, k: int, epsilon: Num) -> StripResult:
    """Stripping as a round loop: while fewer than k components exist and
    the minimum nontrivial 2-cut costs at most epsilon * w_a / (k - 1),
    remove its crossing edges.  Expects fewer than k components."""
    _, w_a = reference_approx2_kcut(g, k)
    threshold = Fraction(epsilon) * w_a / (k - 1)
    current, removed, iterations = g, 0, 0
    while cc(current) < k:
        cut = reference_min_nontrivial_2cut(current)
        if cut is None or cut.order > threshold:
            break
        crossing = [(u in cut.side_a) != (v in cut.side_a) for u, v, _ in current.edges]
        removed += sum(w for (_, _, w), c in zip(current.edges, crossing) if c)
        current = MultiGraph(current.n, tuple(e for e, c in zip(current.edges, crossing) if not c), MULTI)
        iterations += 1
    return StripResult(current, removed, cc(current) >= k, iterations, w_a, threshold)
