"""Spanning tree families for the exact solver, and the policy that picks
one.

The solver only needs one family member that crosses some optimal k-cut at
most 2k-2 times.  Such a tree always exists among all spanning trees (take
spanning forests inside the optimal parts plus k-1 connecting edges), so the
exhaustive enumerator below is a complete, if brute-force, supplier.  The
greedy load-balancing packer is the scalable stand-in: each new tree is a
minimum spanning tree under costs that grow with prior usage, spreading the
family across the edge set.  ``_tree_family`` is the default family the
exact solver uses when it is given none: every tree of a small graph whose
Kirchhoff count fits ``DEFAULT_TREE_CAP``, else a packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import MULTI, InvalidInputError, MultiGraph, is_connected, uf_find, uf_union

DEFAULT_TREE_CAP = 5000


@dataclass(frozen=True)
class TreeFamily:
    """Spanning trees stored as tuples of edge-class indices into g.edges."""

    graph: MultiGraph
    trees: tuple[tuple[int, ...], ...]

    def tree_edges(self, i: int) -> tuple[tuple[int, int], ...]:
        return tuple((self.graph.edges[e][0], self.graph.edges[e][1]) for e in self.trees[i])

    def __len__(self) -> int:
        return len(self.trees)


def pack_trees(g: MultiGraph, count: int) -> TreeFamily:
    """Greedy packing of a connected unweighted multigraph: tree i+1 is an
    MST under per-class usage costs.

    The cost of an edge class is its usage count divided by its multiplicity,
    so classes with many parallel copies absorb proportionally more trees.
    Ties break on edge index.  Duplicate trees are dropped.  Costs are
    compared as exact integers: with L the lcm of the multiplicities,
    (load / mult, e) orders as load * (L // mult) * m + e, one int per class
    that each use raises by (L // mult) * m.
    """
    if g.mode != MULTI:
        raise InvalidInputError("tree packing expects an unweighted multigraph")
    if count < 1:
        raise InvalidInputError("tree count must be positive")
    if not is_connected(g) or g.n == 0:
        raise InvalidInputError("tree packing needs a connected graph")
    lcm = math.lcm(*(w for _, _, w in g.edges))
    step = [lcm // w * g.m for _, _, w in g.edges]
    cost = list(range(g.m))
    seen: set[tuple[int, ...]] = set()
    trees: list[tuple[int, ...]] = []
    for _ in range(count):
        order = sorted(range(g.m), key=cost.__getitem__)
        parent = list(range(g.n))
        tree = []
        for e in order:
            u, v, _ = g.edges[e]
            if uf_union(parent, u, v):
                tree.append(e)
                if len(tree) == g.n - 1:
                    break
        assert len(tree) == g.n - 1
        key = tuple(sorted(tree))
        for e in tree:
            cost[e] += step[e]
        if key not in seen:
            seen.add(key)
            trees.append(key)
    return TreeFamily(g, tuple(trees))


def enumerate_spanning_trees(g: MultiGraph, cap: int = DEFAULT_TREE_CAP) -> TreeFamily:
    """All spanning trees up to ``cap``, as edge-class index tuples.

    Classic include/exclude backtracking over the class list with a
    connectivity prune.  Parallel classes between the same endpoints yield
    structurally equal but distinct trees; they are deduplicated by class
    index set, not by vertex pairs, matching how the DP consumes them.
    """
    if not is_connected(g) or g.n == 0:
        raise InvalidInputError("spanning tree enumeration needs a connected graph")
    m = g.m
    found: list[tuple[int, ...]] = []

    def connectable(picked: list[int], start: int) -> bool:
        probe = list(picked)
        comps = len({uf_find(probe, v) for v in range(g.n)})
        for e in range(start, m):
            u, v, _ = g.edges[e]
            if uf_union(probe, u, v):
                comps -= 1
        return comps == 1

    # Depth-first over include/exclude decisions, one stack entry per open
    # branch: (next class, union-find forest, classes chosen).  The include
    # branch is pushed last, so every tree that takes class e comes before
    # every tree that skips it, and the trees come out in increasing order.
    stack: list[tuple[int, list[int], tuple[int, ...]]] = [(0, list(range(g.n)), ())]
    while stack and len(found) < cap:
        e, parent, chosen = stack.pop()
        if len(chosen) == g.n - 1:
            found.append(chosen)
            continue
        if e == m or not connectable(parent, e):
            continue
        stack.append((e + 1, parent, chosen))
        u, v, _ = g.edges[e]
        if uf_find(parent, u) != uf_find(parent, v):
            child = list(parent)
            uf_union(child, u, v)
            stack.append((e + 1, child, chosen + (e,)))
    return TreeFamily(g, tuple(found))


def _spanning_tree_count(g: MultiGraph) -> int:
    """The number of spanning trees ``enumerate_spanning_trees`` lists, one
    unit per edge class: Kirchhoff's determinant of the Laplacian with the
    last row and column removed, by fraction-free (Bareiss) elimination.
    The matrix is positive semidefinite, so a zero pivot means a zero
    determinant (g is disconnected)."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v, _ in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    size = g.n - 1
    prev = 1
    for i in range(size):
        piv = lap[i][i]
        if piv == 0:
            return 0
        for r in range(i + 1, size):
            row, f = lap[r], lap[r][i]
            for c in range(i + 1, size):
                row[c] = (row[c] * piv - f * lap[i][c]) // prev
        prev = piv
    return prev


def _tree_family(g: MultiGraph, k: int) -> TreeFamily:
    """Every spanning tree when there are at most ``DEFAULT_TREE_CAP`` of
    them on at most 10 vertices, else a packing.  A truncated enumeration
    would share its lowest-indexed edges across all its trees and can miss
    every tree that crosses an optimum at most 2k-2 times."""
    if g.n <= 10 and _spanning_tree_count(g) <= DEFAULT_TREE_CAP:
        return enumerate_spanning_trees(g, cap=DEFAULT_TREE_CAP)
    count = min(200, max(1, math.ceil(k**3 * math.log(g.m + 2))))
    return pack_trees(g, count)
