"""Exact minimum k-cut on unweighted multigraphs, fixed-parameter in the
solution size.

The solver walks a compact edge-unbreakable tree decomposition bottom-up.
At each node it guesses which 2k-2 edges (all, when fewer) of a spanning
tree's projection onto the bag an optimal solution cuts, groups the
guess's pieces (its components, straight from the projection rooted once,
restricted to the bag) into at most k parts, and composes the node's
children with each grouping through one knapsack.  Every grouping is
scored from one piece-pair weight matrix, and every node keeps only the
lightest grouping per (adhesion projection, part count, child adhesion
projections).  Bags of every size and nodes with or without children take
this one path (``_Engine`` explains why it is exact).

One DP serves the whole tree family: each node's candidates are the union
over the family's trees, built once per distinct projection of a tree onto
the bag, and each node is evaluated once over that union, at the
(adhesion projection, part count) states its candidates carry.
``solve_exact`` adds the trees in batches and re-evaluates only the nodes a
batch changed, so it can stop at the first batch that yields a cut within
budget.  Every finite table entry corresponds to an actually constructible
partition; traceback reconstruction re-verifies this by recomputing weights.

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
    bfs,
    cut_weight,
    is_connected,
)
from .treepack import TreeFamily, enumerate_spanning_trees, pack_trees

DEFAULT_TREE_CAP = 5000


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
    return tuple(sorted([p & mask for p in parts if p & mask]))


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
    ``touch`` pieces, part count), which fixes the projections onto every
    mask that only the touch pieces meet."""
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


# -- spanning tree projection ------------------------------------------------


def _rooting(tree: Iterable[tuple[int, int]], n: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from vertex 0 and parent links (-1 at the root)
    of a spanning tree on vertices 0..n-1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    return bfs(adj, 0)


def _projection(order: Sequence[int], parent: Sequence[int], xmask: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex mask and sorted (u, v) edges of a tree's projection onto a
    nonempty hub mask, in linear time, from the breadth-first order and
    parent links that ``_rooting`` gives once per tree and every bag
    shares.  The projection deletes non-hub leaves and smooths non-hub
    degree-2 vertices until none is left, so at most twice as many vertices
    as hubs remain.  That leaves the minimal subtree spanning the hubs with
    its non-hub degree-2 vertices dissolved: the hubs plus every vertex
    where three branches toward hubs meet.  Each such vertex joins
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


# -- engine -------------------------------------------------------------------


class _Coarse:
    """One candidate partition of a bag, with cached bookkeeping."""

    __slots__ = ("parts", "nparts", "w_base", "child_items")

    def __init__(self, parts, nparts, w_base, child_items):
        self.parts = parts
        self.nparts = nparts
        self.w_base = w_base
        self.child_items = child_items


@dataclass
class _NodeCtx:
    bag_mask: int
    adh_mask: int
    iface_mask: int  # the adhesion and every child adhesion
    gamma_mask: int
    children: list[int]
    child_masks: tuple[int, ...]  # the children's adhesions, in order
    bag_edges: list[tuple[int, int, int]]


class _Cands:
    """One node's candidates, the union over the trees taken in so far.

    ``by_at`` maps each adhesion projection to one ``_Coarse`` per (part
    count, child adhesion projections): the first lightest grouping with
    that key in tree, guess and label order; nothing else can matter
    (``_Engine`` says why).  A strictly lighter grouping replaces its key's
    candidate and moves it to the end, so each dict lists its candidates in
    the order they were found.  The bag projections and the guesses' pieces
    already taken in make each of them built once per node."""

    __slots__ = ("by_at", "seen_proj", "seen_pieces")

    def __init__(self):
        self.by_at: dict[MaskPartition, dict[tuple, _Coarse]] = {}
        self.seen_proj: set[tuple] = set()
        self.seen_pieces: set[MaskPartition] = set()


class _Engine:
    """The DP state of one call: node contexts, each node's candidates over
    the family trees taken in so far, the budget-clamped value tables, and
    memoized crossing weights.  Built for one graph, decomposition, k and
    budget s, and dropped when the call returns.

    ``add_tree`` takes one tree into every node's candidates, building them
    once per distinct projection of the tree onto the bag.  ``evaluate``
    then recomputes, bottom-up, each node whose candidates improved or
    whose children's values changed.

    One evaluation over the union is exact.  Every table entry is realised
    by a partition of gamma(t) with its adhesion projection, part count and
    weight, since traceback rebuilds that partition and recomputes its
    weight; so no entry lies below the optimum.  Each node's candidates
    contain those of every tree taken in, among them a tree that crosses an
    optimal k-cut at most 2k-2 times, and min-plus composition is monotone
    in the candidates and the child tables; so no entry lies above that
    tree's own DP entry.  Hence the root holds the optimum once such a tree
    is in.  This holds at every bag size: such a tree has at most 2k-2
    projected edges whose ends the cut separates, so some maximal guess
    holds them all, and grouping its pieces yields the cut's restriction to
    the bag.

    Keeping one grouping per (adhesion projection, part count, child
    adhesion projections) loses nothing.  Two groupings with one key meet
    the same child states at the same adhesion weights, so the knapsack
    adds the same amounts to both, and its budget pruning is monotone in
    the grouping's own weight: the lighter is never worse.

    A node's states are the (adhesion projection, part count) pairs whose
    projection a candidate carries.  Each lies in the tree's feasible family
    of adhesion partitions, over which the paper ranges them: cutting one
    tree edge per bag projection edge a candidate cuts leaves its pieces on
    the bag, so a cut of the adhesion projection at no more edges leaves
    them on the adhesion.  The family's other states hold no entry.
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
        kids = td.children_map()
        self._order = bfs(kids, td.root)[0]
        for t in range(len(td)):
            bag = td.bags[t]
            children = kids[t]
            adh_mask = _mask(td.adhesion(t))
            self.ctxs[t] = _NodeCtx(
                bag_mask=_mask(bag),
                adh_mask=adh_mask,
                iface_mask=adh_mask | _mask(v for c in children for v in td.adhesion(c)),
                gamma_mask=_mask(td.gamma(t)),
                children=children,
                child_masks=tuple(_mask(td.adhesion(c)) for c in children),
                bag_edges=[(u, v, w) for u, v, w in g.edges if u in bag and v in bag],
            )
            self.cands[t] = _Cands()

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

    def _make_coarse(self, ctx: _NodeCtx, parts: MaskPartition, w_base: int, child_projs: tuple) -> _Coarse:
        """A ``_Coarse`` of parts of the bag weighing w_base, whose
        projections onto the child adhesions are ``child_projs``."""
        items = ()
        if child_projs:
            items = tuple([
                (c, ckey, len(ckey), self.crossing_weight(ckey, ctx.bag_edges))
                for c, ckey in zip(ctx.children, child_projs)
            ])
        return _Coarse(parts, len(parts), w_base, items)

    # .. taking trees in ..

    def add_tree(self, tree: Sequence[tuple[int, int]]) -> None:
        """Take one family tree into every node's candidates; nodes whose
        candidates improve are evaluated next time."""
        order, parent = _rooting(tree, self.g.n)
        for t, ctx in self.ctxs.items():
            cands = self.cands[t]
            key = _projection(order, parent, ctx.bag_mask)
            if key not in cands.seen_proj:
                cands.seen_proj.add(key)
                if self._add_projection(ctx, cands, *key):
                    self._dirty.add(t)

    def _add_projection(self, ctx: _NodeCtx, cands: _Cands, vmask: int, edges: tuple) -> bool:
        """Take in every maximal guess of crossed edges of one bag
        projection, min(2k-2, edges) of them, whose components come straight
        from the projection rooted once; True if the candidates improved.  A
        node's value is monotone under guess enlargement, since finer pieces
        have every grouping coarser ones have."""
        below = _rooted_sides(vmask, edges)
        m = len(edges)
        grew = False
        for guess in combinations(range(m), min(guess_budget(self.k), m)):
            grew |= self._add_guess(ctx, cands, _cut_components(vmask, below, guess))
        return grew

    def _add_guess(self, ctx: _NodeCtx, cands: _Cands, comps: list[int]) -> bool:
        """Take in the groupings of one guess's pieces, its components on the
        bag, into at most k parts, the only ones that can fit a state; True
        if the candidates improved.  Pieces already taken in change nothing.
        Each key's first lightest grouping from ``_grouping_minima``
        replaces the key's candidate only on a strictly smaller weight, so
        the first lightest in tree, guess and label order stays."""
        pieces = _proj_masks(comps, ctx.bag_mask)
        if pieces in cands.seen_pieces:
            return False
        cands.seen_pieces.add(pieces)
        grew = False
        for at, key, w, parts in self._grouping_minima(ctx, pieces):
            group = cands.by_at.get(at)
            if group is None:
                group = cands.by_at[at] = {}
            cur = group.get(key)
            if cur is None or w < cur.w_base:
                if cur is not None:
                    del group[key]
                group[key] = self._make_coarse(ctx, parts, w, key[1])
                grew = True
        return grew

    def _grouping_minima(self, ctx: _NodeCtx, pieces: MaskPartition) -> list:
        """Per (adhesion projection, part count <= k, child adhesion
        projections) key, the first lightest grouping of a bag's pieces in
        label order, as (adhesion projection, (part count, child adhesion
        projections), weight, parts), listed in label order.  The labels of
        the pieces that meet an adhesion fix the key.  One pass over the
        bag's edges gives the weight between every two pieces; a grouping's
        crossing weight is the sum over the piece pairs it separates."""
        c = len(pieces)
        iface = ctx.iface_mask
        touch = tuple([i for i, p in enumerate(pieces) if p & iface])
        labelings, pairs, groups = _scoring(c, self.k, touch)
        owner = {v: i for i, p in enumerate(pieces) for v in _bits(p)}
        between = [0] * (c * c)
        for u, v, w in ctx.bag_edges:
            a, b = owner[u], owner[v]
            if a != b:
                between[a * c + b if a < b else b * c + a] += w
        weights = [sum(map(between.__getitem__, ab)) for ab in pairs]
        touched = [pieces[j] for j in touch]
        adh, child_masks = ctx.adh_mask, ctx.child_masks
        found: dict[tuple, tuple[int, int]] = {}
        for (pattern, nparts), idx in groups:
            i = min(idx, key=weights.__getitem__)
            merged = _merged(touched, pattern, nparts)
            cprojs = tuple([_proj_masks(merged, m) for m in child_masks]) if child_masks else ()
            key = (_proj_masks(merged, adh), nparts, cprojs)
            got = found.get(key)
            if got is None or (weights[i], i) < got:
                found[key] = (weights[i], i)
        return [
            (key[0], key[1:], w, tuple(sorted(_merged(pieces, labelings[i], key[1]))))
            for i, w, key in sorted([(i, w, key) for key, (w, i) in found.items()])
        ]

    # .. evaluation ..

    def evaluate(self) -> None:
        """Recompute, bottom-up, the table of every node whose candidates
        improved since the last call or whose children's values changed.
        Nodes go in reversed breadth-first order from the root, which puts
        every child before its parent; a node's table depends only on its
        own candidates and its children's tables, so any such order solves
        the same nodes to the same tables."""
        changed: set[int] = set()
        for t in reversed(self._order):
            if t in self._dirty or any(c in changed for c in self.ctxs[t].children):
                old = self.tables.get(t)
                self._solve_node(t)
                if old is None or _values(old) != _values(self.tables[t]):
                    changed.add(t)
        self._dirty.clear()

    def _solve_node(self, t: int) -> None:
        """The node's table: per (adhesion projection, part count) state,
        the value within the budget, with its trace, of the first lightest
        candidate carrying that projection once a knapsack over the children
        adds the (child, adhesion projection, part count) entries it picks.
        One knapsack per candidate fills every part count; a childless
        node's candidates are their own values."""
        k, s = self.k, self.s
        table: dict[tuple[MaskPartition, int], tuple[int, object]] = {}
        by_at = self.cands[t].by_at
        for pa, group in by_at.items():
            for co in group.values():
                if co.w_base > s:
                    continue
                nu: dict[int, tuple[int, tuple]] = {co.nparts: (co.w_base, ())}
                for child, ckey, b, w_adh in co.child_items:
                    ctab = self.tables[child]
                    nu2: dict[int, tuple[int, tuple]] = {}
                    for r0, (v0, tr0) in nu.items():
                        for ic in range(b, k + 1):
                            r1 = r0 + ic - b
                            if r1 > k:
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
                for i, (v, trace) in nu.items():
                    cur = table.get((pa, i))
                    if cur is None or v < cur[0]:
                        table[(pa, i)] = (v, (co, trace))
        self.states += len(by_at) * k
        self.tables[t] = table

    # .. traceback ..

    def reconstruct(self, t: int, pa: MaskPartition, i: int) -> MaskPartition:
        """Rebuild the witnessing partition of gamma(t); verifies itself."""
        ctx = self.ctxs[t]
        value, (co, child_choices) = self.tables[t][(pa, i)]
        parts = list(co.parts)
        # The knapsack picks one entry per child, in ``children`` order.
        for amask, (child, ckey, ic) in zip(ctx.child_masks, child_choices):
            sub = self.reconstruct(child, ckey, ic)
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
        total = 0
        for q in parts:
            assert total & q == 0, "reconstructed parts overlap"
            total |= q
        assert total == ctx.gamma_mask, "reconstructed partition misses vertices"
        assert len(parts) == i
        assert _proj_masks(parts, ctx.adh_mask) == pa
        w = self.crossing_weight(tuple(sorted(parts)))
        assert w == value, f"traceback weight {w} != table value {value}"
        return tuple(sorted(parts))


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
    fam = _tree_family(g, k) if trees is None else trees
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
    *,
    stats_out: dict | None = None,
) -> list[tuple[int | None, Partition | None]]:
    """Minimum cut weights and witnesses for every part count 1..kmax.

    One DP evaluation over the whole family's candidates, with the budget
    clamped at ``s_cap``, fills the whole vector; each part count's
    witness is reconstructed (and so checked) once.  Entries are
    (None, None) where no cut of weight <= s_cap exists.  Index 0 is
    unused.  ``stats_out``, when given, accumulates the trees taken in and
    the DP states evaluated under ``"trees"`` and ``"states"``.
    """
    kmax = min(kmax, g.n)
    _check_exact_inputs(g, kmax, s_cap)
    fam = _tree_family(g, kmax)
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
        best.append((ent[0], unmask_partition(engine.reconstruct(td.root, (), i))))
    if stats_out is not None:
        stats_out["trees"] = stats_out.get("trees", 0) + len(fam)
        stats_out["states"] = stats_out.get("states", 0) + engine.states
    return best
