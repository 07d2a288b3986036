"""Exact minimum k-cut on unweighted multigraphs, fixed-parameter in the
solution size.

The solver walks a compact edge-unbreakable tree decomposition bottom-up.
At each node it guesses which edges of a spanning tree's projection onto
the bag an optimal solution cuts, derives from that guess a coarse split of
the bag into a center and loosely attached satellite parts, and then runs a
knapsack-style composition over the children hanging off each satellite.
A guess's components come straight from the projection, rooted once.
Every knapsack level, a small bag's one or an oversized bag's center and
satellites, scores the groupings of its pieces into at most k parts from
one piece-pair weight matrix; a childless level keeps only per-key minima.

One DP serves the whole tree family: each node's candidates are the union
over the family's trees, built once per distinct projection of a tree onto
the bag, and each node is evaluated once over that union (``_Engine``
explains why this is exact).  ``solve_exact`` adds the trees in batches
and re-evaluates only the nodes a batch changed, so it can stop at the
first batch that yields a cut within budget.  Every finite table entry
corresponds to an actually constructible partition; traceback
reconstruction re-verifies this by recomputing weights.

Each call to ``solve_exact`` or ``exact_values`` builds its own
decomposition and ``_Engine`` and drops both when it returns; the only
module-level state is the pure memo tables of ``_label_vectors`` and
``_scoring``.

Internally partitions are tuples of integer bitmasks sorted ascending; the
empty-ground partition is the empty tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .decomposition import TreeDecomposition, build_unbreakable_decomposition
from .graph import (
    MULTI,
    InvalidInputError,
    MultiGraph,
    Partition,
    cut_weight,
    is_connected,
)
from .treepack import TreeFamily, enumerate_spanning_trees, pack_trees

DEFAULT_TREE_CAP = 5000


def tau_big(k: int, s: int) -> int:
    """Bags at most this large take the single-candidate preprocessing branch."""
    return 2 * k * (s + 1) ** 5


def guess_budget(k: int) -> int:
    """Maximum number of projected tree edges an optimal cut can cross."""
    return 2 * k - 2


# -- bitmask partition helpers ----------------------------------------------

MaskPartition = tuple[int, ...]


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _proj_masks(parts: Sequence[int], mask: int) -> MaskPartition:
    return tuple(sorted(p & mask for p in parts if p & mask))


def mask_partition(p: Partition) -> MaskPartition:
    if p.is_empty():
        return ()
    return tuple(sorted(_mask(part) for part in p.parts))


def unmask_partition(parts: MaskPartition) -> Partition:
    if not parts:
        return Partition.empty()
    return Partition.from_parts([_bits(p) for p in parts])


@lru_cache(maxsize=None)
def _label_vectors(c: int) -> tuple[tuple[int, ...], ...]:
    """Restricted-growth strings of length c: every grouping of c items once."""
    out: list[tuple[int, ...]] = []
    vec = [0] * c

    def rec(i: int, top: int):
        if i == c:
            out.append(tuple(vec))
            return
        for lab in range(top + 1):
            vec[i] = lab
            rec(i + 1, top + (1 if lab == top else 0))

    if c:
        rec(1, 1)
    else:
        out.append(())
    return tuple(out)


@lru_cache(maxsize=None)
def _scoring(c: int, k: int, touch: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """Groupings of c pieces into at most k parts, in ``_label_vectors``
    order: their label vectors, the flat indices ``a * c + b`` (a < b) of the
    piece pairs each separates, and their positions grouped by (labels of the
    ``touch`` pieces, part count), which fixes the adhesion projection."""
    labelings = tuple(lab for lab in _label_vectors(c) if max(lab, default=-1) < k)
    pairs = tuple(
        tuple(a * c + b for a in range(c) for b in range(a + 1, c) if lab[a] != lab[b])
        for lab in labelings
    )
    groups: dict[tuple, list[int]] = {}
    for i, lab in enumerate(labelings):
        groups.setdefault((tuple(lab[j] for j in touch), max(lab, default=-1) + 1), []).append(i)
    return labelings, pairs, tuple((key, tuple(idx)) for key, idx in groups.items())


def _merged(pieces: Sequence[int], labels: Sequence[int], nparts: int) -> list[int]:
    acc = [0] * nparts
    for p, lab in zip(pieces, labels):
        acc[lab] |= p
    return acc


def _groupings(pieces: Sequence[int]) -> list[MaskPartition]:
    """All merges of disjoint masks into coarser partitions."""
    return [
        tuple(sorted(_merged(pieces, lab, max(lab, default=-1) + 1)))
        for lab in _label_vectors(len(pieces))
    ]


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


def _rooting(tree: Iterable[tuple[int, int]], n: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from vertex 0 and parent links of a spanning tree
    on vertices 0..n-1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    return order, parent


def _projection(order: Sequence[int], parent: Sequence[int], xmask: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex mask and sorted (u, v) edges of ``project_tree`` onto a
    nonempty hub mask, from a tree rooted once by ``_rooting``, in linear
    time.  Pruning and smoothing leave the minimal subtree spanning the
    hubs with its non-hub degree-2 vertices dissolved: the hubs plus every
    vertex where three branches toward hubs meet.  Each such vertex joins
    the nearest one above it; when the hubs' lowest common ancestor is
    dissolved, its two branches' top vertices join each other instead."""
    nx = xmask.bit_count()
    cnt = [0] * len(order)  # hubs below each vertex
    for v in reversed(order):
        cnt[v] += xmask >> v & 1
        if parent[v] >= 0:
            cnt[parent[v]] += cnt[v]
    ways = [0] * len(order)  # directions from each vertex toward hubs
    for v in order:
        if cnt[v] and parent[v] >= 0:
            ways[parent[v]] += 1
            if cnt[v] < nx:
                ways[v] += 1
    keep = [xmask >> v & 1 or ways[v] >= 3 for v in range(len(order))]
    vmask = 0
    edges = []
    tops = []
    for v in order:
        if not keep[v]:
            continue
        vmask |= 1 << v
        if cnt[v] == nx:
            continue  # the top of the projection
        u = parent[v]
        while cnt[u] < nx and not keep[u]:
            u = parent[u]
        if keep[u]:
            edges.append((u, v) if u < v else (v, u))
        else:
            tops.append(v)
    if tops:
        a, b = tops
        edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return vmask, tuple(edges)


def _rooted_sides(vmask: int, edges: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Per edge of a projected tree, the mask of the vertices below it when
    the tree hangs from its smallest vertex."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in _bits(vmask)}
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    order = [min(adj)] if adj else []
    up = {v: (-1, -1) for v in order}
    for v in order:
        for w, i in adj[v]:
            if w not in up:
                up[w] = (v, i)
                order.append(w)
    sub = {v: 1 << v for v in order}
    below = [0] * len(edges)
    for v in reversed(order):
        p, i = up[v]
        if i >= 0:
            below[i] = sub[v]
            sub[p] |= sub[v]
    return tuple(below)


def _cut_components(full: int, below: Sequence[int], cut: Iterable[int]) -> list[int]:
    """Sorted component masks of a rooted tree after deleting the ``cut``
    edges.  Each vertex joins the nearest cut edge above it: taking the
    nested-or-disjoint lower sides smallest first, each keeps what no
    smaller one took, and the root keeps the rest."""
    comps = []
    taken = 0
    for side in sorted((below[i] for i in cut), key=int.bit_count):
        comps.append(side & ~taken)
        taken |= side
    if full:
        comps.append(full & ~taken)
    comps.sort()
    return comps


# -- feasible families --------------------------------------------------------


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


# -- nice decompositions ------------------------------------------------------


@dataclass(frozen=True)
class NiceDecomposition:
    """A bag split (coarse parts, refinement, center) steering the knapsack.

    ``center`` is 0 (no center; then ``pprime`` has one part) or one of the
    ``pprime`` masks.  ``qtilde`` refines ``pprime`` and leaves the center
    whole; non-center parts see at most 2k-1 refinement pieces, share no
    graph edge, and share no adhesion.
    """

    pprime: MaskPartition
    qtilde: MaskPartition
    center: int


def validate_nice_decomposition(
    nd: NiceDecomposition,
    bag_mask: int,
    edges: Sequence[tuple[int, int, int]],
    adhesions: Sequence[int],
    k: int,
) -> None:
    if sum(nd.pprime) != bag_mask or sum(nd.qtilde) != bag_mask:
        raise AssertionError("nice decomposition must partition the bag")
    for q in nd.qtilde:
        if not any(q & p == q for p in nd.pprime):
            raise AssertionError("refinement property violated")
    if nd.center:
        if nd.center not in nd.pprime or nd.center not in nd.qtilde:
            raise AssertionError("center must be a part left whole")
    elif len(nd.pprime) != 1:
        raise AssertionError("empty center requires a single part")
    satellites = [p for p in nd.pprime if p != nd.center]
    for p in satellites:
        pieces = sum(1 for q in nd.qtilde if q & p)
        if pieces > 2 * k - 1:
            raise AssertionError("satellite refined into too many pieces")
    for u, v, _ in edges:
        hu = [p for p in satellites if p >> u & 1]
        hv = [p for p in satellites if p >> v & 1]
        if hu and hv and hu[0] != hv[0]:
            raise AssertionError("edge between satellites")
    for a in adhesions:
        touched = [p for p in satellites if p & a]
        if len(touched) > 1:
            raise AssertionError("adhesion spans two satellites")


# -- engine -------------------------------------------------------------------


class _Coarse:
    """One candidate partition of a level mask, with cached bookkeeping."""

    __slots__ = ("parts", "nparts", "w_base", "at_proj", "child_items")

    def __init__(self, parts, nparts, w_base, at_proj, child_items):
        self.parts = parts
        self.nparts = nparts
        self.w_base = w_base
        self.at_proj = at_proj
        self.child_items = child_items


class _Level:
    """Coarsening candidates for one knapsack level, indexed for fast eval.

    Candidates group by their adhesion projection, () when the level does
    not host the node's own adhesion.  Levels without children keep only
    the per-(projection, part count) minima in ``best``, since nothing else
    can matter.  ``_Engine._fill_level`` fills both kinds.
    """

    __slots__ = ("check_at", "childless", "by_at", "best")

    def __init__(self, check_at: bool, childless: bool):
        self.check_at = check_at
        self.childless = childless
        self.by_at: dict[MaskPartition, list[_Coarse]] = {}
        self.best: dict[tuple, tuple[int, _Coarse]] = {}

    def add(self, co: _Coarse) -> None:
        # No weight filtering here: evaluation applies the budget clamp.
        self.by_at.setdefault(co.at_proj if self.check_at else (), []).append(co)

    def candidates(self, pa: MaskPartition) -> list[_Coarse]:
        return self.by_at.get(pa if self.check_at else (), [])


class _Skeleton:
    """Levels of one knapsack run.  A sealed skeleton no longer changes; when
    it also touches no child table (``static``), its evaluations are
    memoized across its node's evaluations.  A small bag's one skeleton
    grows with every tree and is never sealed."""

    __slots__ = ("levels", "center", "static", "memo")

    def __init__(self, levels: list[_Level], center: int):
        self.levels = levels
        self.center = center
        self.static = False
        self.memo: dict = {}

    def seal(self) -> None:
        self.static = all(lvl.childless for lvl in self.levels)


@dataclass
class _NodeCtx:
    node: int
    bag_mask: int
    adh_mask: int
    gamma_mask: int
    children: list[int]
    child_adh: dict[int, int]
    bag_edges: list[tuple[int, int, int]]
    gamma_edges: list[tuple[int, int, int]]
    adhesions: list[int]
    small: bool


class _Cands:
    """One node's candidates, the union over the trees taken in so far: its
    skeletons and adhesion family, plus the bag and adhesion projections,
    guesses (a small bag's pieces, an oversized bag's components), a small
    bag's coarsenings and the nice decompositions already taken in, so that
    each is built once per node."""

    __slots__ = ("skels", "family", "seen_proj", "seen_adh", "seen_pieces", "seen_parts", "seen_nd")

    def __init__(self, skels: list[_Skeleton]):
        self.skels = skels
        self.family: set[MaskPartition] = set()
        self.seen_proj: set[tuple] = set()
        self.seen_adh: set[tuple] = set()
        self.seen_pieces: set[MaskPartition] = set()
        self.seen_parts: set[MaskPartition] = set()
        self.seen_nd: set[tuple] = set()


class _Engine:
    """The DP state of one call: node contexts, each node's candidates over
    the family trees taken in so far, the budget-clamped value tables, and
    memoized crossing weights.  Built for one graph, decomposition, k and
    budget s, and dropped when the call returns.

    ``add_tree`` takes one tree into every node's candidates, building them
    once per distinct projection of the tree onto the bag and uniting the
    adhesion family once per distinct projection onto the adhesion.
    ``evaluate`` then recomputes, bottom-up, each node whose candidates
    grew or whose children's values changed.

    One evaluation over the union is exact.  Every table entry is realised
    by a partition of gamma(t) with its adhesion projection, part count and
    weight, since traceback rebuilds that partition and recomputes its
    weight; so no entry lies below the optimum.  Each node's candidates and
    adhesion family contain those of every tree taken in, among them a tree
    that crosses an optimal k-cut at most 2k-2 times, and min-plus
    composition is monotone in the candidates and the child tables; so no
    entry lies above that tree's own DP entry.  Hence the root holds the
    optimum once such a tree is in.
    """

    def __init__(self, g: MultiGraph, td: TreeDecomposition, k: int, s: int):
        self.g = g
        self.td = td
        self.k = k
        self.s = s
        self.ctxs: dict[int, _NodeCtx] = {}
        self.cands: dict[int, _Cands] = {}
        self.tables: dict[int, dict[tuple[MaskPartition, int], tuple[int, object]]] = {}
        self.states = 0
        self._dirty: set[int] = set()
        self._wmemo: dict[MaskPartition, int] = {}
        for t in range(len(td)):
            self._build_ctx(t)

    def _build_ctx(self, t: int) -> None:
        td = self.td
        bag = td.bags[t]
        gamma = td.gamma(t)
        children = td.children(t)
        child_adh = {c: _mask(td.adhesion(c)) for c in children}
        ctx = _NodeCtx(
            node=t,
            bag_mask=_mask(bag),
            adh_mask=_mask(td.adhesion(t)),
            gamma_mask=_mask(gamma),
            children=children,
            child_adh=child_adh,
            bag_edges=[(u, v, w) for u, v, w in self.g.edges if u in bag and v in bag],
            gamma_edges=[(u, v, w) for u, v, w in self.g.edges if u in gamma and v in gamma],
            adhesions=[child_adh[c] for c in children] + [_mask(td.adhesion(t))],
            small=len(bag) <= tau_big(self.k, self.s),
        )
        self.ctxs[t] = ctx
        if ctx.small:
            lvl = _Level(check_at=True, childless=not children)
            self.cands[t] = _Cands([_Skeleton([lvl], 0)])
        else:
            self.cands[t] = _Cands([])

    def crossing_weight(self, parts: MaskPartition, edges: Sequence[tuple[int, int, int]] | None = None) -> int:
        """Crossing weight of a mask partition within the induced subgraph
        on its ground set, summed over ``edges`` (by default the graph's),
        which must hold every edge inside that ground set; memoized across
        trees and guesses."""
        got = self._wmemo.get(parts)
        if got is not None:
            return got
        union = 0
        for p in parts:
            union |= p
        total = 0
        for u, v, w in self.g.edges if edges is None else edges:
            if union >> u & 1 and union >> v & 1:
                for p in parts:
                    if p >> u & 1:
                        if not (p >> v & 1):
                            total += w
                        break
        self._wmemo[parts] = total
        return total

    def _make_coarse(self, ctx: _NodeCtx, parts: MaskPartition, kids: tuple[int, ...], w_base: int) -> _Coarse:
        """A ``_Coarse`` of parts of (a level of) the bag weighing w_base."""
        at_proj = _proj_masks(parts, ctx.adh_mask)
        items = []
        for c in kids:
            a = ctx.child_adh[c]
            ckey = _proj_masks(parts, a)
            w_adh = self.crossing_weight(ckey, ctx.bag_edges)
            items.append((c, ckey, len(ckey), w_adh))
        return _Coarse(parts, len(parts), w_base, at_proj, tuple(items))

    # .. nice decomposition machinery (oversized bags) ..

    def component_adjacency(self, ctx: _NodeCtx, comps: list[int]) -> list[set[int]]:
        n = len(comps)
        adj: list[set[int]] = [set() for _ in range(n)]

        def owner(v: int) -> int:
            for i, c in enumerate(comps):
                if c >> v & 1:
                    return i
            return -1

        for u, v, _ in ctx.gamma_edges:
            iu, iv = owner(u), owner(v)
            if iu >= 0 and iv >= 0 and iu != iv:
                adj[iu].add(iv)
                adj[iv].add(iu)
        for a in ctx.adhesions:
            touched = [i for i, c in enumerate(comps) if c & a]
            for i in touched:
                for j in touched:
                    if i != j:
                        adj[i].add(j)
        return adj

    def big_candidates(self, ctx: _NodeCtx, comps: list[int]) -> list[NiceDecomposition]:
        """Nice decompositions of an oversized bag for one guess's
        components, one per component subset of size at most 2k-1 (a
        covering family for any avoid budget), repeats included and not yet
        validated: ``_add_big_guess`` drops the repeats and validates the
        rest."""
        adjacency = self.component_adjacency(ctx, comps)
        out: list[NiceDecomposition] = []
        for r in range(0, min(2 * self.k - 1, len(comps)) + 1):
            for pick in combinations(range(len(comps)), r):
                nd = self._assemble(ctx, comps, adjacency, set(pick))
                if nd is not None:
                    out.append(nd)
        return out

    def _assemble(self, ctx: _NodeCtx, comps: list[int], adj: list[set[int]], pick: set[int]) -> NiceDecomposition | None:
        q1 = 0
        for i, c in enumerate(comps):
            if i not in pick:
                q1 |= c
        visited: set[int] = set()
        groups: list[list[int]] = []
        for i in sorted(pick):
            if i in visited:
                continue
            stack = [i]
            visited.add(i)
            grp = []
            while stack:
                a = stack.pop()
                grp.append(a)
                for b in adj[a]:
                    if b in pick and b not in visited:
                        visited.add(b)
                        stack.append(b)
            groups.append(sorted(grp))
        center = q1
        satellites: list[list[int]] = []
        for grp in groups:
            if len(grp) > 2 * self.k - 1:
                for i in grp:
                    center |= comps[i]
            else:
                satellites.append(grp)
        qt_parts = [center] if center else []
        pp_parts = [center] if center else []
        for grp in satellites:
            pp_parts.append(sum(comps[i] for i in grp))
            qt_parts.extend(comps[i] for i in grp)
        center_b = center & ctx.bag_mask
        if not center_b:
            return None
        pp = _proj_masks(pp_parts, ctx.bag_mask)
        qt = _proj_masks(qt_parts, ctx.bag_mask)
        return NiceDecomposition(pp, qt, center_b)

    def _skeleton_for(self, ctx: _NodeCtx, nd: NiceDecomposition) -> _Skeleton | None:
        """Levels plus child assignment for one nice decomposition: the
        center, then the center with each satellite.  None when a child's
        adhesion fits no level."""
        satellites = sorted(p for p in nd.pprime if p != nd.center)
        level_masks = [nd.center] + [nd.center | p for p in satellites]
        assign: list[list[int]] = [[] for _ in level_masks]
        for c in ctx.children:
            a = ctx.child_adh[c]
            if a == 0:
                raise AssertionError("empty child adhesion under a connected graph")
            hits = [li for li, p in enumerate(satellites) if a & p]
            if len(hits) > 1:
                return None
            home = 0
            if hits:
                if a & ~(nd.center | satellites[hits[0]]):
                    return None
                home = hits[0] + 1
            elif a & ~nd.center:
                return None
            assign[home].append(c)

        skel = _Skeleton([], nd.center)
        for li, mask in enumerate(level_masks):
            pieces = tuple(sorted(q & mask for q in nd.qtilde if q & mask))
            kids = tuple(assign[li])
            lvl = _Level(check_at=ctx.adh_mask & ~mask == 0, childless=not kids)
            self._fill_level(ctx, lvl, pieces, kids, set())
            skel.levels.append(lvl)
        skel.seal()
        return skel

    # .. taking trees in ..

    def add_tree(self, tree: Sequence[tuple[int, int]]) -> None:
        """Take one family tree into every node's candidates and adhesion
        family; nodes whose candidates grow are evaluated next time."""
        order, parent = _rooting(tree, self.g.n)
        for t, ctx in self.ctxs.items():
            cands = self.cands[t]
            key = _projection(order, parent, ctx.bag_mask)
            if key not in cands.seen_proj:
                cands.seen_proj.add(key)
                if self._add_projection(ctx, cands, *key):
                    self._dirty.add(t)
            akey = _projection(order, parent, ctx.adh_mask) if ctx.adh_mask else (0, ())
            if akey not in cands.seen_adh:
                cands.seen_adh.add(akey)
                fam = _feasible_masks(ctx.adh_mask, *akey, self.k)
                if not fam <= cands.family:
                    cands.family |= fam
                    self._dirty.add(t)

    def _add_projection(self, ctx: _NodeCtx, cands: _Cands, vmask: int, edges: tuple) -> bool:
        """Take in every guess of crossed edges of one bag projection, whose
        components come straight from the projection rooted once; True if
        the candidates grew.  A small bag takes only the maximal guesses
        (its value is monotone under guess enlargement), an oversized bag
        every guess of at most 2k-2 edges."""
        below = _rooted_sides(vmask, edges)
        m = len(edges)
        cap = min(guess_budget(self.k), m)
        add = self._add_small_guess if ctx.small else self._add_big_guess
        grew = False
        for r in (cap,) if ctx.small else range(cap + 1):
            for guess in combinations(range(m), r):
                grew |= add(ctx, cands, _cut_components(vmask, below, guess))
        return grew

    def _add_small_guess(self, ctx: _NodeCtx, cands: _Cands, comps: list[int]) -> bool:
        """A small bag's one level takes the groupings of one guess's
        pieces; pieces already taken in change nothing."""
        pieces = _proj_masks(comps, ctx.bag_mask)
        if pieces in cands.seen_pieces:
            return False
        cands.seen_pieces.add(pieces)
        (lvl,) = cands.skels[0].levels
        return self._fill_level(ctx, lvl, pieces, tuple(ctx.children), cands.seen_parts)

    def _fill_level(
        self, ctx: _NodeCtx, lvl: _Level, pieces: MaskPartition, kids: tuple[int, ...], seen: set[MaskPartition]
    ) -> bool:
        """Take into a level the groupings of its pieces into at most k
        parts, the only ones that can fit a state; True if it grew.  Without
        children the level keeps the per-key minima of ``_grouping_minima``,
        moving one only on a strictly smaller weight, so the first minimiser
        in tree, guess and grouping order stays; with children it keeps
        every grouping not in ``seen``, the groupings earlier calls gave the
        level, as a ``_Coarse`` under ``kids``."""
        grew = False
        if lvl.childless:
            for key, w, parts in self._grouping_minima(ctx, pieces, ctx.adh_mask if lvl.check_at else 0):
                cur = lvl.best.get(key)
                if cur is None or w < cur[0]:
                    lvl.best[key] = (w, _Coarse(parts, key[1], w, key[0], ()))
                    grew = True
            return grew
        labelings, weights, _ = self._grouping_weights(ctx, pieces, ())
        for lab, w in zip(labelings, weights):
            parts = tuple(sorted(_merged(pieces, lab, max(lab) + 1)))
            if parts not in seen:
                seen.add(parts)
                lvl.add(self._make_coarse(ctx, parts, kids, w))
                grew = True
        return grew

    def _add_big_guess(self, ctx: _NodeCtx, cands: _Cands, comps: list[int]) -> bool:
        """An oversized bag takes one skeleton per nice decomposition of the
        guess not taken in before; components already taken in change
        nothing."""
        if tuple(comps) in cands.seen_pieces:
            return False
        cands.seen_pieces.add(tuple(comps))
        grew = False
        for nd in self.big_candidates(ctx, comps):
            key = (nd.pprime, nd.qtilde, nd.center)
            if key in cands.seen_nd:
                continue
            cands.seen_nd.add(key)
            validate_nice_decomposition(nd, ctx.bag_mask, ctx.bag_edges, ctx.adhesions, self.k)
            skel = self._skeleton_for(ctx, nd)
            if skel is not None:
                cands.skels.append(skel)
                grew = True
        return grew

    def _grouping_weights(self, ctx: _NodeCtx, pieces: MaskPartition, touch: tuple[int, ...]) -> tuple:
        """``_scoring``'s labelings and groups for one level's pieces, with
        the crossing weight of each grouping.  One pass over the bag's edges
        gives the weight between every two pieces, skipping edges that leave
        the pieces; a grouping's crossing weight is the sum over the piece
        pairs it separates."""
        c = len(pieces)
        labelings, pairs, groups = _scoring(c, self.k, touch)
        owner = {v: i for i, p in enumerate(pieces) for v in _bits(p)}
        between = [0] * (c * c)
        for u, v, w in ctx.bag_edges:
            a, b = owner.get(u), owner.get(v)
            if a != b and a is not None and b is not None:
                between[a * c + b if a < b else b * c + a] += w
        return labelings, [sum(map(between.__getitem__, ab)) for ab in pairs], groups

    def _grouping_minima(self, ctx: _NodeCtx, pieces: MaskPartition, adh: int) -> tuple:
        """Per (projection onto the adhesion mask ``adh``, part count <= k)
        key, the weight and parts of the first lightest grouping of one
        level's pieces, in label order."""
        touch = tuple(i for i, p in enumerate(pieces) if p & adh)
        labelings, weights, groups = self._grouping_weights(ctx, pieces, touch)
        adh_pieces = [pieces[j] & adh for j in touch]
        found: dict[tuple, tuple[int, int]] = {}
        for (pattern, nparts), idx in groups:
            i = min(idx, key=weights.__getitem__)
            at = tuple(sorted(a for a in _merged(adh_pieces, pattern, nparts) if a))
            got = found.get((at, nparts))
            if got is None or (weights[i], i) < got:
                found[(at, nparts)] = (weights[i], i)
        return tuple(
            (key, w, tuple(sorted(_merged(pieces, labelings[i], key[1]))))
            for key, (w, i) in found.items()
        )

    # .. evaluation ..

    def evaluate(self) -> None:
        """Recompute, bottom-up, the table of every node whose candidates
        grew since the last call or whose children's values changed."""
        changed: set[int] = set()
        for t in self.td.post_order():
            if t in self._dirty or any(c in changed for c in self.ctxs[t].children):
                old = self.tables.get(t)
                self._solve_node(t)
                if old is None or _values(old) != _values(self.tables[t]):
                    changed.add(t)
        self._dirty.clear()

    def _solve_node(self, t: int) -> None:
        table: dict[tuple[MaskPartition, int], tuple[int, object]] = {}
        for pa in sorted(self.cands[t].family):
            for i in range(1, self.k + 1):
                best = self._best(t, pa, i)
                if best is not None:
                    table[(pa, i)] = best
                self.states += 1
        self.tables[t] = table

    def _best(self, t: int, pa: MaskPartition, i: int):
        """The first lightest of the node's skeletons' values for one state."""
        best = None
        for si, skel in enumerate(self.cands[t].skels):
            got = self._eval(skel, pa, i)
            if got is not None and (best is None or got[0] < best[0]):
                best = (got[0], (si, got[1]))
        return best

    def _eval(self, skel: _Skeleton, pa: MaskPartition, i: int):
        if skel.static:
            key = (pa, i)
            if key in skel.memo:
                return skel.memo[key]
            got = self._eval_inner(skel, pa, i)
            skel.memo[key] = got
            return got
        return self._eval_inner(skel, pa, i)

    def _eval_inner(self, skel: _Skeleton, pa: MaskPartition, i: int):
        k, s = self.k, self.s
        rows = []
        for lvl in skel.levels:
            row: dict[int, tuple[int, object]] = {}
            if lvl.childless:
                at = pa if lvl.check_at else ()
                for r in range(1, i + 1):
                    ent = lvl.best.get((at, r))
                    if ent is not None and ent[0] <= s:
                        row[r] = (ent[0], (ent[1], ()))
                if not row:
                    return None
                rows.append(row)
                continue
            for co in lvl.candidates(pa):
                if co.nparts > i or co.w_base > s:
                    continue
                nu: dict[int, tuple[int, tuple]] = {co.nparts: (co.w_base, ())}
                for child, ckey, b, w_adh in co.child_items:
                    ctab = self.tables[child]
                    nu2: dict[int, tuple[int, tuple]] = {}
                    for r0, (v0, tr0) in nu.items():
                        for ic in range(b, k + 1):
                            r1 = r0 + ic - b
                            if r1 > i:
                                break
                            ent = ctab.get((ckey, ic))
                            if ent is None:
                                continue
                            v1 = v0 + ent[0] - w_adh
                            if v1 > s:
                                continue
                            cur = nu2.get(r1)
                            if cur is None or v1 < cur[0]:
                                nu2[r1] = (v1, tr0 + ((child, ckey, ic),))
                    nu = nu2
                    if not nu:
                        break
                for r, (v, tr) in nu.items():
                    cur = row.get(r)
                    if cur is None or v < cur[0]:
                        row[r] = (v, (co, tr))
            if not row:
                return None
            rows.append(row)
        acc = {j: (v, [tr]) for j, (v, tr) in rows[0].items()}
        for extra in rows[1:]:
            nxt: dict[int, tuple[int, list]] = {}
            for j0, (v0, chain0) in acc.items():
                for j1, (v1, tr1) in extra.items():
                    j = j0 + j1 - 1  # the center part is shared
                    if j > i:
                        continue
                    v = v0 + v1
                    if v > s:
                        continue
                    cur = nxt.get(j)
                    if cur is None or v < cur[0]:
                        nxt[j] = (v, chain0 + [tr1])
            acc = nxt
            if not acc:
                return None
        return acc.get(i)

    # .. traceback ..

    def reconstruct(self, t: int, pa: MaskPartition, i: int) -> MaskPartition:
        """Rebuild the witnessing partition of gamma(t); verifies itself."""
        ctx = self.ctxs[t]
        value, (si, chain) = self.tables[t][(pa, i)]
        skel = self.cands[t].skels[si]
        assert len(chain) == len(skel.levels)
        acc_parts: list[int] = []
        for lvl, (co, child_choices) in zip(skel.levels, chain):
            parts = list(co.parts)
            for child, ckey, ic in child_choices:
                sub = self.reconstruct(child, ckey, ic)
                amask = ctx.child_adh[child]
                for cp in sub:
                    tr = cp & amask
                    if tr:
                        for j, q in enumerate(parts):
                            if q & amask == tr:
                                parts[j] = q | cp
                                break
                        else:
                            raise AssertionError("child part has no gluing partner")
                    else:
                        parts.append(cp)
            if skel.center:
                if not acc_parts:
                    acc_parts = parts
                else:
                    host = next(j for j, q in enumerate(acc_parts) if q & skel.center)
                    for q in parts:
                        if q & skel.center:
                            acc_parts[host] |= q
                        else:
                            acc_parts.append(q)
            else:
                acc_parts = parts
        total = 0
        for q in acc_parts:
            assert total & q == 0, "reconstructed parts overlap"
            total |= q
        assert total == ctx.gamma_mask, "reconstructed partition misses vertices"
        assert len(acc_parts) == i
        assert _proj_masks(acc_parts, ctx.adh_mask) == pa
        w = self.crossing_weight(tuple(sorted(acc_parts)))
        assert w == value, f"traceback weight {w} != table value {value}"
        return tuple(sorted(acc_parts))


def _values(table: dict) -> dict:
    return {key: ent[0] for key, ent in table.items()}


# -- public operations --------------------------------------------------------


@dataclass(frozen=True)
class ExactResult:
    feasible: bool
    value: int | None
    partition: Partition | None
    trees_tried: int
    dp_states: int


def _tree_family(g: MultiGraph, k: int, trees: TreeFamily | None) -> TreeFamily:
    if trees is not None:
        return trees
    if g.n <= 10:
        return enumerate_spanning_trees(g, cap=DEFAULT_TREE_CAP)
    count = min(200, max(1, math.ceil(k**3 * math.log(g.m + 2))))
    return pack_trees(g, count)


def _check_exact_inputs(g: MultiGraph, k: int, s: int) -> None:
    if g.mode != MULTI:
        raise InvalidInputError("the exact solver expects an unweighted multigraph")
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    if s < 0:
        raise InvalidInputError("the cut budget must be nonnegative")
    if not is_connected(g):
        raise InvalidInputError("the exact solver expects a connected graph")


def solve_exact(
    g: MultiGraph,
    k: int,
    s: int,
    trees: TreeFamily | None = None,
    mode: str = "decide",
) -> ExactResult:
    """Decide whether g has a k-cut of weight at most s; optionally build one.

    Takes the family's trees into one DP in batches of 1, 2, 4, ... trees,
    re-evaluating after each batch only the nodes it changed, and stops
    after the first batch whose root holds a cut of weight at most s.
    ``trees_tried`` counts the trees taken in by then (the whole family on a
    ``no``), ``dp_states`` every (node, adhesion projection, part count)
    state evaluated on the way.  A ``yes`` in construct mode carries a
    partition whose recomputed weight equals the value.
    """
    _check_exact_inputs(g, k, s)
    if mode not in ("decide", "construct"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    fam = _tree_family(g, k, trees)
    td = build_unbreakable_decomposition(g, s)
    engine = _Engine(g, td, k, s)
    used = 0
    while used < len(fam):
        upto = min(2 * used + 1, len(fam))
        for ti in range(used, upto):
            engine.add_tree(fam.tree_edges(ti))
        used = upto
        engine.evaluate()
        ent = engine.tables[td.root].get(((), k))
        if ent is not None and ent[0] <= s:
            masks = engine.reconstruct(td.root, (), k)
            partition = unmask_partition(masks) if mode == "construct" else None
            if partition is not None:
                assert cut_weight(g, partition) == ent[0]
            return ExactResult(True, ent[0], partition, used, engine.states)
    return ExactResult(False, None, None, len(fam), engine.states)


def exact_values(
    g: MultiGraph,
    kmax: int,
    s_cap: int,
    trees: TreeFamily | None = None,
    construct: bool = False,
    stats_out: dict | None = None,
) -> list[tuple[int | None, Partition | None]]:
    """Minimum cut weights (and witnesses) for every part count 1..kmax.

    One DP evaluation over the whole family's candidates, with the budget
    clamped at ``s_cap``, fills the whole vector; each part count's
    witness is reconstructed (and so checked) once.  Entries stay None
    where no cut of weight <= s_cap exists.  Index 0 is unused.
    """
    _check_exact_inputs(g, max(1, min(kmax, g.n)), s_cap)
    kmax = min(kmax, g.n)
    fam = _tree_family(g, kmax, trees)
    td = build_unbreakable_decomposition(g, s_cap)
    engine = _Engine(g, td, kmax, s_cap)
    for ti in range(len(fam)):
        engine.add_tree(fam.tree_edges(ti))
    engine.evaluate()
    root = engine.tables[td.root]
    best: list[tuple[int | None, Partition | None]] = [(None, None)]
    for i in range(1, kmax + 1):
        ent = root.get(((), i))
        if ent is None:
            best.append((None, None))
            continue
        masks = engine.reconstruct(td.root, (), i)  # self-check
        best.append((ent[0], unmask_partition(masks) if construct else None))
    if stats_out is not None:
        stats_out["trees"] = stats_out.get("trees", 0) + len(fam)
        stats_out["states"] = stats_out.get("states", 0) + engine.states
    return best


def compute_state(
    g: MultiGraph,
    td: TreeDecomposition,
    tree: Sequence[tuple[int, int]],
    t: int,
    key: tuple[Partition, int],
    child_tables: dict[int, dict[tuple[Partition, int], int]],
    s: int,
    k: int,
) -> int | None:
    """Single DP state f_t(key) of the DP fed one tree, given complete child
    tables; None plays the role of infinity (no realizing partition of
    weight at most s, or an adhesion projection outside the tree's
    feasible family)."""
    engine = _prepared_engine(g, td, k, s, child_tables)
    for c in td.children(t):
        if c not in engine.tables:
            raise InvalidInputError(f"child table for node {c} missing")
    engine.add_tree(tree)
    engine._solve_node(t)
    ent = engine.tables[t].get((mask_partition(key[0]), key[1]))
    return None if ent is None else ent[0]


def cut_guess_value(
    g: MultiGraph,
    td: TreeDecomposition,
    tree: Sequence[tuple[int, int]],
    t: int,
    key: tuple[Partition, int],
    cprime: Iterable[int],
    child_tables: dict[int, dict[tuple[Partition, int], int]],
    s: int,
    k: int,
) -> int | None:
    """Value of the DP state when node t takes its candidates from one
    guess of crossed projection edges (indices into the bag projection's
    edge list) alone; an upper bound on the true state value, tight for
    the right guess."""
    engine = _prepared_engine(g, td, k, s, child_tables)
    ctx = engine.ctxs[t]
    vmask, edges = _projection(*_rooting(tree, g.n), ctx.bag_mask)
    comps = _cut_components(vmask, _rooted_sides(vmask, edges), set(cprime))
    add = engine._add_small_guess if ctx.small else engine._add_big_guess
    add(ctx, engine.cands[t], comps)
    best = engine._best(t, mask_partition(key[0]), key[1])
    return None if best is None else best[0]


def _prepared_engine(g, td, k, s, child_tables) -> _Engine:
    engine = _Engine(g, td, k, s)
    for c, tab in child_tables.items():
        engine.tables[c] = {(mask_partition(p), i): (v, None) for (p, i), v in tab.items()}
    return engine
