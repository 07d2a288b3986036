"""Exact minimum k-cut on unweighted multigraphs, fixed-parameter in the
solution size.

The solver walks a compact edge-unbreakable tree decomposition bottom-up.
At each node it guesses which edges of the spanning-tree projection an
optimal solution cuts, derives from that guess a coarse split of the bag
into a center and loosely attached satellite parts, and then runs a
knapsack-style composition over the children hanging off each satellite.
A guess's components come straight from the projection, rooted once per
(tree, bag); a small childless bag scores every grouping of them from the
guess's component-pair weight matrix and keeps only per-key minima.
Every finite table entry corresponds to an actually constructible partition;
traceback reconstruction re-verifies this by recomputing weights.

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


def avoid_budget(k: int, s: int) -> int:
    """Size cap for the edge set a cut guess must avoid."""
    return 2 * (2 * k - 1) * (tau_big(k, s) + 2 * k - 2)


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


def _rooted_sides(pt: ProjectedTree) -> tuple[int, tuple[int, ...]]:
    """The vertex mask of a projected tree and, per edge, the mask of the
    vertices below it when the tree hangs from its smallest vertex."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in pt.vertices}
    for i, e in enumerate(pt.edges):
        adj[e.u].append((e.v, i))
        adj[e.v].append((e.u, i))
    order = [min(adj)] if adj else []
    up = {v: (-1, -1) for v in order}
    for v in order:
        for w, i in adj[v]:
            if w not in up:
                up[w] = (v, i)
                order.append(w)
    sub = {v: 1 << v for v in order}
    below = [0] * len(pt.edges)
    for v in reversed(order):
        p, i = up[v]
        if i >= 0:
            below[i] = sub[v]
            sub[p] |= sub[v]
    return _mask(pt.vertices), tuple(below)


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


def _feasible_masks(pt: ProjectedTree, k: int) -> frozenset[MaskPartition]:
    """Projections onto X of all partitions of the projected tree obtainable
    by cutting at most 2k-2 edges and merging the resulting components."""
    if not pt.x:
        return frozenset({()})
    xmask = _mask(pt.x)
    full, below = _rooted_sides(pt)
    out: set[MaskPartition] = set()
    budget = min(guess_budget(k), len(pt.edges))
    for r in range(budget + 1):
        for cut in combinations(range(len(pt.edges)), r):
            for merged in _groupings(_cut_components(full, below, cut)):
                out.add(_proj_masks(merged, xmask))
    return frozenset(out)


def feasible_family(pt: ProjectedTree, k: int) -> FeasibleFamily:
    masks = sorted(_feasible_masks(pt, k))
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

    Candidates group by their adhesion projection when the level hosts the
    node's own adhesion.  Levels without children keep only the
    per-(projection, part count) minima in ``best``, since nothing else can
    matter; a small bag fills them from its guesses without ``add``.
    """

    __slots__ = ("mask", "check_at", "childless", "by_at", "coarsenings", "best")

    def __init__(self, mask: int, check_at: bool, childless: bool):
        self.mask = mask
        self.check_at = check_at
        self.childless = childless
        self.by_at: dict[MaskPartition, list[_Coarse]] = {}
        self.coarsenings: list[_Coarse] = []
        self.best: dict[tuple, tuple[int, _Coarse]] = {}

    def add(self, co: _Coarse) -> None:
        # No weight filtering here: evaluation applies the budget clamp.
        self.coarsenings.append(co)
        if self.childless:
            key = (co.at_proj if self.check_at else None, co.nparts)
            cur = self.best.get(key)
            if cur is None or co.w_base < cur[0]:
                self.best[key] = (co.w_base, co)
        elif self.check_at:
            self.by_at.setdefault(co.at_proj, []).append(co)

    def candidates(self, pa: MaskPartition) -> list[_Coarse]:
        return self.by_at.get(pa, []) if self.check_at else self.coarsenings


class _Skeleton:
    """Levels of one knapsack run.  ``static`` skeletons touch no child
    tables, so their evaluations are memoized across the trees of one call."""

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
    bag: frozenset[int]
    bag_mask: int
    adh_mask: int
    gamma_mask: int
    children: list[int]
    child_adh: dict[int, int]
    bag_edges: list[tuple[int, int, int]]
    gamma_edges: list[tuple[int, int, int]]
    adhesions: list[int]
    small: bool


class _Engine:
    """The solver state of one call, shared by the trees of its family:
    node contexts, coarsening candidates, crossing weights, nice
    decompositions and their skeletons, and per-guess grouping minima of
    childless small bags.  Built for one graph, decomposition, k and budget
    s, and dropped when the call returns."""

    def __init__(self, g: MultiGraph, td: TreeDecomposition, k: int, s: int):
        self.g = g
        self.td = td
        self.k = k
        self.s = s
        self.ctxs: dict[int, _NodeCtx] = {}
        self._wmemo: dict[MaskPartition, int] = {}
        self._grouping_cache: dict[tuple[int, ...], list[MaskPartition]] = {}
        self._coarse_cache: dict[tuple, dict[MaskPartition, _Coarse]] = {}
        self._cand_cache: dict[tuple, list[NiceDecomposition]] = {}
        self._skel_cache: dict[tuple, _Skeleton | None] = {}
        self._minima_cache: dict[tuple, tuple] = {}
        self._small = tuple(len(b) <= tau_big(k, s) for b in td.bags)
        for t in range(len(td)):
            self._build_ctx(t)

    def groupings_of(self, pieces: tuple[int, ...]) -> list[MaskPartition]:
        got = self._grouping_cache.get(pieces)
        if got is None:
            got = _groupings(pieces)
            self._grouping_cache[pieces] = got
        return got

    def _build_ctx(self, t: int) -> None:
        td = self.td
        bag = td.bags[t]
        gamma = td.gamma(t)
        children = td.children(t)
        child_adh = {c: _mask(td.adhesion(c)) for c in children}
        ctx = _NodeCtx(
            node=t,
            bag=bag,
            bag_mask=_mask(bag),
            adh_mask=_mask(td.adhesion(t)),
            gamma_mask=_mask(gamma),
            children=children,
            child_adh=child_adh,
            bag_edges=[(u, v, w) for u, v, w in self.g.edges if u in bag and v in bag],
            gamma_edges=[(u, v, w) for u, v, w in self.g.edges if u in gamma and v in gamma],
            adhesions=[child_adh[c] for c in children] + [_mask(td.adhesion(t))],
            small=self._small[t],
        )
        self.ctxs[t] = ctx

    def crossing_weight(self, parts: MaskPartition) -> int:
        """Crossing weight of a mask partition within the induced subgraph
        on its ground set; memoized across trees and guesses."""
        got = self._wmemo.get(parts)
        if got is not None:
            return got
        union = 0
        for p in parts:
            union |= p
        total = 0
        for u, v, w in self.g.edges:
            if union >> u & 1 and union >> v & 1:
                for p in parts:
                    if p >> u & 1:
                        if not (p >> v & 1):
                            total += w
                        break
        self._wmemo[parts] = total
        return total

    def coarse_dict(self, node: int, kids: tuple[int, ...]) -> dict[MaskPartition, _Coarse]:
        key = (node, kids)
        got = self._coarse_cache.get(key)
        if got is None:
            got = {}
            self._coarse_cache[key] = got
        return got

    def coarse(self, ctx: _NodeCtx, parts: MaskPartition, kids: tuple[int, ...]) -> _Coarse:
        cdict = self.coarse_dict(ctx.node, kids)
        got = cdict.get(parts)
        if got is not None:
            return got
        return self._make_coarse(ctx, parts, kids, cdict)

    def _make_coarse(self, ctx, parts, kids, cdict) -> _Coarse:
        w_base = self.crossing_weight(parts)
        at_proj = _proj_masks(parts, ctx.adh_mask)
        items = []
        for c in kids:
            a = ctx.child_adh[c]
            ckey = _proj_masks(parts, a)
            w_adh = self.crossing_weight(ckey)
            items.append((c, ckey, len(ckey), w_adh))
        co = _Coarse(parts, len(parts), w_base, at_proj, tuple(items))
        cdict[parts] = co
        return co

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
        """Nice decompositions for an oversized bag.

        All component subsets of size at most 2k-1 form a covering family
        for any avoid budget.  Results depend only on the component
        partition and are memoized on it.
        """
        cache_key = (ctx.node, tuple(comps))
        cached = self._cand_cache.get(cache_key)
        if cached is not None:
            return cached
        k = self.k
        adjacency = self.component_adjacency(ctx, comps)
        out: list[NiceDecomposition] = []
        seen: set[tuple] = set()
        idx = list(range(len(comps)))
        for r in range(0, min(2 * k - 1, len(idx)) + 1):
            for pick in combinations(idx, r):
                nd = self._assemble(ctx, comps, adjacency, set(pick))
                if nd is None:
                    continue
                key = (nd.pprime, nd.qtilde, nd.center)
                if key in seen:
                    continue
                seen.add(key)
                validate_nice_decomposition(nd, ctx.bag_mask, ctx.bag_edges, ctx.adhesions, k)
                out.append(nd)
        self._cand_cache[cache_key] = out
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

    def skeleton_for(self, ctx: _NodeCtx, nd: NiceDecomposition) -> _Skeleton | None:
        """Levels plus child assignment for one nice decomposition."""
        cache_key = (ctx.node, nd.pprime, nd.qtilde, nd.center)
        if cache_key in self._skel_cache:
            return self._skel_cache[cache_key]
        skel = self._skeleton_for(ctx, nd)
        self._skel_cache[cache_key] = skel
        return skel

    def _skeleton_for(self, ctx: _NodeCtx, nd: NiceDecomposition) -> _Skeleton | None:
        satellites = sorted(p for p in nd.pprime if p != nd.center)
        if nd.center:
            level_masks = [nd.center] + [nd.center | p for p in satellites]
        else:
            level_masks = [ctx.bag_mask]
        assign: list[list[int]] = [[] for _ in level_masks]
        for c in ctx.children:
            a = ctx.child_adh[c]
            if a == 0:
                raise AssertionError("empty child adhesion under a connected graph")
            home = 0
            if nd.center:
                hits = [li for li, p in enumerate(satellites) if a & p]
                if len(hits) > 1:
                    return None
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
            lvl = _Level(mask, check_at=ctx.adh_mask & ~mask == 0, childless=not kids)
            for parts in self.groupings_of(pieces):
                lvl.add(self.coarse(ctx, parts, kids))
            skel.levels.append(lvl)
        skel.seal()
        return skel

    # .. per-node skeleton assembly ..

    def _node_skeletons(self, t: int, tree: tuple[tuple[int, int], ...]) -> list[_Skeleton]:
        """Skeletons of node t under one tree.

        The bag's projection of the tree is rooted once; each guess of
        crossed projection edges then yields its components directly.  A
        small bag gets one merged skeleton over the maximal guesses (its
        value is monotone under guess enlargement).  Only groupings of at
        most k parts can fit a state.  Without children the level keeps the
        per-key minima of ``_grouping_minima``, moving one only on a strictly
        smaller weight, so the first minimiser in guess-then-grouping order
        stays; with children it keeps every such grouping as a ``_Coarse``.
        An oversized bag gets one skeleton per distinct nice decomposition
        of every guess.
        """
        ctx = self.ctxs[t]
        proj = project_tree(tree, ctx.bag)
        m = len(proj.edges)
        cap = min(guess_budget(self.k), m)
        full, below = _rooted_sides(proj)
        if ctx.small:
            guesses = (
                _proj_masks(_cut_components(full, below, guess), ctx.bag_mask)
                for guess in combinations(range(m), cap)
            )
            kids = tuple(ctx.children)
            lvl = _Level(ctx.bag_mask, check_at=True, childless=not kids)
            if not kids:
                for pieces in guesses:
                    for key, w, parts in self._grouping_minima(ctx, pieces):
                        cur = lvl.best.get(key)
                        if cur is None or w < cur[0]:
                            lvl.best[key] = (w, _Coarse(parts, key[1], w, key[0], ()))
            else:
                cdict = self.coarse_dict(t, kids)
                seen: set[MaskPartition] = set()
                for pieces in guesses:
                    for parts in self.groupings_of(pieces):
                        if len(parts) > self.k or parts in seen:
                            continue
                        seen.add(parts)
                        co = cdict.get(parts)
                        if co is None:
                            co = self._make_coarse(ctx, parts, kids, cdict)
                        lvl.add(co)
            skel = _Skeleton([lvl], 0)
            skel.seal()
            return [skel]
        skels: list[_Skeleton] = []
        seen_nd: set[tuple] = set()
        for r in range(cap + 1):
            for guess in combinations(range(m), r):
                comps = _cut_components(full, below, guess)
                for nd in self.big_candidates(ctx, comps):
                    key = (nd.pprime, nd.qtilde, nd.center)
                    if key in seen_nd:
                        continue
                    seen_nd.add(key)
                    skel = self.skeleton_for(ctx, nd)
                    if skel is not None:
                        skels.append(skel)
        return skels

    def _grouping_minima(self, ctx: _NodeCtx, pieces: MaskPartition) -> tuple:
        """Per (adhesion projection, part count <= k) key, the weight and
        parts of the first lightest grouping of one guess's pieces, in label
        order; memoized per node, since trees share most guesses' pieces.

        One pass over the bag's edges gives the weight between every two
        pieces; a grouping's crossing weight is the sum over the piece pairs
        it separates."""
        got = self._minima_cache.get((ctx.node, pieces))
        if got is not None:
            return got
        c = len(pieces)
        adh = ctx.adh_mask
        touch = tuple(i for i, p in enumerate(pieces) if p & adh)
        labelings, pairs, groups = _scoring(c, self.k, touch)
        owner = {v: i for i, p in enumerate(pieces) for v in _bits(p)}
        between = [0] * (c * c)
        for u, v, w in ctx.bag_edges:
            a, b = owner[u], owner[v]
            if a != b:
                between[a * c + b if a < b else b * c + a] += w
        weights = [sum(map(between.__getitem__, ab)) for ab in pairs]
        adh_pieces = [pieces[j] & adh for j in touch]
        found: dict[tuple, tuple[int, int]] = {}
        for (pattern, nparts), idx in groups:
            i = min(idx, key=weights.__getitem__)
            at = tuple(sorted(a for a in _merged(adh_pieces, pattern, nparts) if a))
            got = found.get((at, nparts))
            if got is None or (weights[i], i) < got:
                found[(at, nparts)] = (weights[i], i)
        got = self._minima_cache[(ctx.node, pieces)] = tuple(
            (key, w, tuple(sorted(_merged(pieces, labelings[i], key[1]))))
            for key, (w, i) in found.items()
        )
        return got


class TreeCutDP:
    """One bottom-up pass for a fixed spanning tree over the engine's
    decomposition at the engine's cut budget.

    This object holds the tree's per-node skeletons and adhesion families
    and the budget-clamped value tables; coarsenings, skeletons and their
    memos come from the engine and serve the call's other trees too."""

    def __init__(self, engine: _Engine, tree: Sequence[tuple[int, int]]):
        self.e = engine
        self.tree = tuple(tree)
        self.tables: dict[int, dict[tuple[MaskPartition, int], tuple[int, object]]] = {}
        nodes = range(len(engine.td))
        self.skels = {t: engine._node_skeletons(t, self.tree) for t in nodes}
        self._families = {
            t: _feasible_masks(project_tree(self.tree, engine.td.adhesion(t)), engine.k)
            for t in nodes
        }
        self.states = 0

    def adhesion_family(self, t: int) -> frozenset[MaskPartition]:
        return self._families[t]

    # .. evaluation ..

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
        k, s = self.e.k, self.e.s
        rows = []
        for lvl in skel.levels:
            row: dict[int, tuple[int, object]] = {}
            if lvl.childless:
                at = pa if lvl.check_at else None
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

    # .. node driver ..

    def run(self) -> dict[tuple[MaskPartition, int], tuple[int, object]]:
        for t in self.e.td.post_order():
            self.solve_node(t)
        return self.tables[self.e.td.root]

    def solve_node(self, t: int) -> None:
        k = self.e.k
        skels = self.skels[t]
        table: dict[tuple[MaskPartition, int], tuple[int, object]] = {}
        for pa in sorted(self.adhesion_family(t)):
            for i in range(1, k + 1):
                best = None
                for si, skel in enumerate(skels):
                    got = self._eval(skel, pa, i)
                    if got is None:
                        continue
                    v, chain = got
                    if best is None or v < best[0]:
                        best = (v, (si, chain))
                if best is not None:
                    table[(pa, i)] = best
                self.states += 1
        self.tables[t] = table

    # .. traceback ..

    def reconstruct(self, t: int, pa: MaskPartition, i: int) -> MaskPartition:
        """Rebuild the witnessing partition of gamma(t); verifies itself."""
        ctx = self.e.ctxs[t]
        value, (si, chain) = self.tables[t][(pa, i)]
        skel = self.skels[t][si]
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
        w = self.e.crossing_weight(tuple(sorted(acc_parts)))
        assert w == value, f"traceback weight {w} != table value {value}"
        return tuple(sorted(acc_parts))


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

    Runs the decomposition DP once per family tree, stopping at the first
    tree that witnesses a cut of weight at most s.  A ``yes`` in construct
    mode carries a partition whose recomputed weight equals the value.
    """
    _check_exact_inputs(g, k, s)
    if mode not in ("decide", "construct"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    fam = _tree_family(g, k, trees)
    td = build_unbreakable_decomposition(g, s)
    engine = _Engine(g, td, k, s)
    states = 0
    for ti in range(len(fam)):
        dp = TreeCutDP(engine, fam.tree_edges(ti))
        root = dp.run()
        states += dp.states
        ent = root.get(((), k))
        if ent is not None and ent[0] <= s:
            masks = dp.reconstruct(td.root, (), k)
            partition = unmask_partition(masks) if mode == "construct" else None
            if partition is not None:
                assert cut_weight(g, partition) == ent[0]
            return ExactResult(True, ent[0], partition, ti + 1, states)
    return ExactResult(False, None, None, len(fam), states)


def exact_values(
    g: MultiGraph,
    kmax: int,
    s_cap: int,
    trees: TreeFamily | None = None,
    construct: bool = False,
    stats_out: dict | None = None,
) -> list[tuple[int | None, Partition | None]]:
    """Minimum cut weights (and witnesses) for every part count 1..kmax.

    One DP pass per tree with the budget clamped at ``s_cap`` fills the
    whole vector; entries stay None where no cut of weight <= s_cap exists.
    Index 0 is unused.
    """
    _check_exact_inputs(g, max(1, min(kmax, g.n)), s_cap)
    kmax = min(kmax, g.n)
    fam = _tree_family(g, kmax, trees)
    td = build_unbreakable_decomposition(g, s_cap)
    engine = _Engine(g, td, kmax, s_cap)
    best: list[tuple[int | None, Partition | None]] = [(None, None)] * (kmax + 1)
    states = 0
    for ti in range(len(fam)):
        dp = TreeCutDP(engine, fam.tree_edges(ti))
        root = dp.run()
        states += dp.states
        for i in range(1, kmax + 1):
            ent = root.get(((), i))
            if ent is not None and (best[i][0] is None or ent[0] < best[i][0]):
                masks = dp.reconstruct(td.root, (), i)  # self-check
                part = unmask_partition(masks) if construct else None
                best[i] = (ent[0], part)
    if stats_out is not None:
        stats_out["trees"] = stats_out.get("trees", 0) + len(fam)
        stats_out["states"] = stats_out.get("states", 0) + states
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
    """Single DP state f_t(key) given complete child tables; None plays the
    role of infinity (no realizing partition of weight at most s)."""
    dp = _prepared_dp(g, td, tree, k, s, child_tables)
    for c in td.children(t):
        if c not in dp.tables:
            raise InvalidInputError(f"child table for node {c} missing")
    dp.solve_node(t)
    pa, i = mask_partition(key[0]), key[1]
    ent = dp.tables[t].get((pa, i))
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
    """Value of the DP state under one fixed guess of crossed projection
    edges (indices into the bag projection's edge list); an upper bound on
    the true state value, tight for the right guess."""
    dp = _prepared_dp(g, td, tree, k, s, child_tables)
    ctx = dp.e.ctxs[t]
    pa, i = mask_partition(key[0]), key[1]
    best = None
    for nd in nice_decompositions(g, td, tree, t, cprime, s, k, _dp=dp):
        skel = dp.e.skeleton_for(ctx, nd)
        if skel is None:
            continue
        got = dp._eval(skel, pa, i)
        if got is not None and (best is None or got[0] < best):
            best = got[0]
    return best


def nice_decompositions(
    g: MultiGraph,
    td: TreeDecomposition,
    tree: Sequence[tuple[int, int]],
    t: int,
    cprime: Iterable[int],
    s: int,
    k: int,
    _dp: TreeCutDP | None = None,
) -> list[NiceDecomposition]:
    """Candidate nice decompositions for one guess of crossed edges."""
    dp = _dp if _dp is not None else TreeCutDP(_Engine(g, td, k, s), tree)
    ctx = dp.e.ctxs[t]
    full, below = _rooted_sides(project_tree(tree, ctx.bag))
    comps = _cut_components(full, below, set(cprime))
    if ctx.small:
        if len(comps) > 2 * k - 1:
            return []
        qt = _proj_masks(comps, ctx.bag_mask)
        nd = NiceDecomposition((ctx.bag_mask,), qt, 0)
        validate_nice_decomposition(nd, ctx.bag_mask, ctx.bag_edges, ctx.adhesions, k)
        return [nd]
    return dp.e.big_candidates(ctx, comps)


def knapsack_value(
    g: MultiGraph,
    td: TreeDecomposition,
    tree: Sequence[tuple[int, int]],
    t: int,
    key: tuple[Partition, int],
    nd: NiceDecomposition,
    child_tables: dict[int, dict[tuple[Partition, int], int]],
    s: int,
    k: int,
) -> int | None:
    """Knapsack composition value for one nice decomposition of the bag."""
    dp = _prepared_dp(g, td, tree, k, s, child_tables)
    ctx = dp.e.ctxs[t]
    skel = dp.e.skeleton_for(ctx, nd)
    if skel is None:
        return None
    pa, i = mask_partition(key[0]), key[1]
    got = dp._eval(skel, pa, i)
    return None if got is None else got[0]


def _prepared_dp(g, td, tree, k, s, child_tables) -> TreeCutDP:
    dp = TreeCutDP(_Engine(g, td, k, s), tree)
    for c, tab in child_tables.items():
        converted: dict[tuple[MaskPartition, int], tuple[int, object]] = {}
        for (p, i), v in tab.items():
            converted[(mask_partition(p), i)] = (v, None)
        dp.tables[c] = converted
    return dp
