"""Slow reference implementations that the tests compare the solver against.

None of this runs on a solver path.  ``project_tree`` and ``feasible_family``
build a tree's projection and feasible family the way the paper states them
(the engine projects in linear time from a tree rooted once and never builds
a family); ``is_bag_unbreakable`` checks edge-unbreakability by brute force;
``crossings`` counts the tree edges a partition cuts.  The engine helpers
they share come from ``kcut.dp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

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
from kcut.graph import EdgeCut, InvalidInputError, MultiGraph, Partition, uf_find, uf_union

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
