"""Exact minimum k-cut on unweighted multigraphs, fixed-parameter in the
solution size.

The solver walks a compact edge-unbreakable tree decomposition bottom-up.
At each node it guesses which 2k-2 edges (all, when fewer) of a spanning
tree's projection onto the bag an optimal solution cuts, groups the
guess's pieces (its components, straight from the lower sides the
projection gives its edges, restricted to the bag) into at most k parts,
and composes the node's children with each grouping through one knapsack.
Every grouping is scored from one piece-pair weight matrix, and every node
keeps only the lightest grouping per (adhesion projection, part count,
child adhesion projections), as one (weight, parts) entry of its ``_Node``
record.  Bags of every size and nodes with or without children take this
one path (``_Engine`` explains why it is exact).

One DP serves the whole tree family: each node's candidates are the union
over the family's trees, built once per distinct projection of a tree onto
the bag, and each node is evaluated once over that union, at the
(adhesion projection, part count) states its candidates carry.
``solve_exact`` adds the trees in batches and re-evaluates only the nodes a
batch changed, so it can stop at the first batch that yields a cut within
budget.  Every finite table entry corresponds to an actually constructible
partition; traceback reconstruction re-verifies this by recomputing weights.

Each call to ``solve_exact`` or ``exact_values`` gets its tree family
(``treepack`` picks the default one), decomposition and ``_Engine`` from
``_setup`` and drops them when it returns; the only module-level state is
the pure memo table of ``_scoring``.

Internally partitions are tuples of integer bitmasks sorted ascending; the
empty-ground partition is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .decomposition import TreeDecomposition, build_unbreakable_decomposition
from .graph import (
    MULTI,
    InvalidInputError,
    MultiGraph,
    Partition,
    _bits,
    _mask,
    adjacency,
    bfs,
    cut_weight,
    is_connected,
    set_partitions,
)
from .treepack import TreeFamily, _tree_family


def guess_budget(k: int) -> int:
    """Maximum number of projected tree edges an optimal cut can cross."""
    return 2 * k - 2


# -- bitmask partition helpers ----------------------------------------------

MaskPartition = tuple[int, ...]


def _proj_masks(parts: Sequence[int], mask: int) -> MaskPartition:
    return tuple(sorted([p & mask for p in parts if p & mask]))


def unmask_partition(parts: MaskPartition) -> Partition:
    if not parts:
        return Partition.empty()
    return Partition.from_parts([_bits(p) for p in parts])


@lru_cache(maxsize=None)
def _scoring(c: int, k: int, touch: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """Groupings of c pieces into at most k parts, as ``set_partitions(c,
    k)`` lists them: their label vectors, the flat indices ``a * c + b`` (a
    < b) of the piece pairs each separates, and their positions grouped by
    (labels of the ``touch`` pieces, part count), which fixes the
    projections onto every mask that only the touch pieces meet."""
    labelings = tuple(set_partitions(c, k))
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
    return bfs(adjacency(n, tree), 0)


def _projection(
    order: Sequence[int], parent: Sequence[int], xmask: int
) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Vertex mask, sorted (u, v) edges and each edge's lower side (the
    mask of the kept vertices below it) of a tree's projection onto a
    nonempty hub mask, in linear time, from the breadth-first order and
    parent links that ``_rooting`` gives once per tree and every bag
    shares.  The projection deletes non-hub leaves and smooths non-hub
    degree-2 vertices until none is left, so at most twice as many vertices
    as hubs remain.  That leaves the minimal subtree spanning the hubs with
    its non-hub degree-2 vertices dissolved: the hubs plus every vertex
    where three branches toward hubs meet.  Each such vertex joins the
    nearest one above it; when the hubs' lowest common ancestor is
    dissolved, its two branches' top vertices join each other instead, and
    one top's branch is that edge's lower side."""
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
    side = [0] * len(order)  # kept vertices below each vertex, itself included
    found = []
    tops = []
    for v in reversed(order):
        if keep[v]:
            side[v] |= 1 << v
            if cnt[v] < nx:  # not the top of the projection
                u = parent[v]
                while cnt[u] < nx and not keep[u]:
                    u = parent[u]
                if keep[u]:
                    found.append(((u, v) if u < v else (v, u), side[v]))
                else:
                    tops.append(v)
        if parent[v] >= 0:
            side[parent[v]] |= side[v]
    vmask = side[order[0]]
    if tops:
        a, b = tops
        found.append(((a, b) if a < b else (b, a), side[a]))
    found.sort()
    return vmask, tuple([e for e, _ in found]), tuple([below for _, below in found])


def _cut_components(full: int, below: Sequence[int], cut: Iterable[int]) -> MaskPartition:
    """Sorted nonempty masks of the components of a rooted tree less the
    ``cut`` edges, cut to ``full``, from the edges' lower sides ``below``
    cut to ``full`` too.  Each vertex joins the nearest cut edge above it:
    taking the nested-or-disjoint sides smallest first, each keeps what no
    smaller one took, and the root keeps the rest.  Cutting keeps the sides
    nested or disjoint, and two nested sides cut to the same size are
    equal, so this order yields the same nonempty pieces."""
    comps = []
    taken = 0
    for side in sorted((below[i] for i in cut), key=int.bit_count):
        if side & ~taken:
            comps.append(side & ~taken)
            taken |= side
    if full & ~taken:
        comps.append(full & ~taken)
    comps.sort()
    return tuple(comps)


# -- engine -------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _Node:
    """One decomposition node: its bag, adhesion, interface (the adhesion
    and every child adhesion) and gamma masks, its children and their
    adhesion masks in order, and the graph's edges inside its bag; then its
    candidates over the family trees taken in so far, and its value table
    (None until first evaluated).

    ``by_at`` maps each adhesion projection to one ``(weight, parts)`` entry
    per (part count, child adhesion projections): the first lightest
    grouping with that key in tree, guess and label order; nothing else can
    matter (``_Engine`` says why).  A strictly lighter grouping replaces its
    key's entry and moves it to the end, so each dict lists its entries in
    the order they were found.  The bag projections and the guesses' pieces
    already taken in (``seen_proj``, ``seen_pieces``) make each of them
    built once per node."""

    bag: int
    adh: int
    iface: int
    gamma: int
    children: list[int]
    child_masks: tuple[int, ...]
    edges: list[tuple[int, int, int]]
    by_at: dict[MaskPartition, dict[tuple, tuple[int, MaskPartition]]] = field(default_factory=dict)
    seen_proj: set[tuple] = field(default_factory=set)
    seen_pieces: set[MaskPartition] = field(default_factory=set)
    table: dict[tuple[MaskPartition, int], tuple[int, object]] | None = None


class _Engine:
    """The DP state of one call: one ``_Node`` per decomposition node, each
    with its candidates over the family trees taken in so far and its
    budget-clamped value table, and memoized crossing weights.  Built for
    one graph, decomposition, k and budget s, and dropped when the call
    returns.

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
        self.states = 0
        self._dirty: set[int] = set()
        self._wmemo: dict[MaskPartition, int] = {}
        kids = td.children_map()
        self._order = bfs(kids, td.root)[0]
        gammas = td.gammas()
        self.nodes: list[_Node] = []
        for t in range(len(td)):
            bag = td.bags[t]
            adh = _mask(td.adhesion(t))
            self.nodes.append(_Node(
                bag=_mask(bag),
                adh=adh,
                iface=adh | _mask(v for c in kids[t] for v in td.adhesion(c)),
                gamma=_mask(gammas[t]),
                children=kids[t],
                child_masks=tuple(_mask(td.adhesion(c)) for c in kids[t]),
                edges=[(u, v, w) for u, v, w in g.edges if u in bag and v in bag],
            ))

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

    # .. taking trees in ..

    def add_tree(self, tree: Sequence[tuple[int, int]]) -> None:
        """Take one family tree into every node's candidates; nodes whose
        candidates improve are evaluated next time."""
        order, parent = _rooting(tree, self.g.n)
        for t, node in enumerate(self.nodes):
            vmask, edges, below = _projection(order, parent, node.bag)
            if (vmask, edges) not in node.seen_proj:
                node.seen_proj.add((vmask, edges))
                if self._add_projection(node, below):
                    self._dirty.add(t)

    def _add_projection(self, node: _Node, below: tuple) -> bool:
        """Take in every maximal guess of crossed edges of one bag
        projection, min(2k-2, edges) of them, whose pieces on the bag come
        straight from the edges' lower sides ``below``, each cut to the bag
        once here; True if the candidates improved.  A node's value is
        monotone under guess enlargement, since finer pieces have every
        grouping coarser ones have."""
        bag = node.bag
        sides = [side & bag for side in below]
        m = len(sides)
        grew = False
        for guess in combinations(range(m), min(guess_budget(self.k), m)):
            grew |= self._add_guess(node, _cut_components(bag, sides, guess))
        return grew

    def _add_guess(self, node: _Node, pieces: MaskPartition) -> bool:
        """Take in the groupings of one guess's pieces, its sorted nonempty
        components on the bag, into at most k parts, the only ones that can
        fit a state; True if the candidates improved.  Pieces already taken
        in change nothing.

        The labels of the pieces that meet the interface fix a grouping's
        (adhesion projection, (part count, child adhesion projections))
        key.  One pass over the bag's edges gives the weight between every
        two pieces; a grouping's crossing weight is the sum over the piece
        pairs it separates.  Each key's first lightest grouping in label
        order then replaces the key's entry, in label order, only on a
        strictly smaller weight, so the first lightest in tree, guess and
        label order stays; its parts are built only then."""
        if pieces in node.seen_pieces:
            return False
        node.seen_pieces.add(pieces)
        c = len(pieces)
        touch = tuple([i for i, p in enumerate(pieces) if p & node.iface])
        labelings, pairs, groups = _scoring(c, self.k, touch)
        owner = {v: i for i, p in enumerate(pieces) for v in _bits(p)}
        between = [0] * (c * c)
        for u, v, w in node.edges:
            a, b = owner[u], owner[v]
            if a != b:
                between[a * c + b if a < b else b * c + a] += w
        weights = [sum(map(between.__getitem__, ab)) for ab in pairs]
        touched = [pieces[j] for j in touch]
        adh, child_masks = node.adh, node.child_masks
        best: dict[tuple, tuple[int, int]] = {}
        for (pattern, nparts), idx in groups:
            i = min(idx, key=weights.__getitem__)
            merged = _merged(touched, pattern, nparts)
            cprojs = tuple([_proj_masks(merged, m) for m in child_masks]) if child_masks else ()
            key = (_proj_masks(merged, adh), (nparts, cprojs))
            got = best.get(key)
            if got is None or (weights[i], i) < got:
                best[key] = (weights[i], i)
        grew = False
        for (at, sub), (w, i) in sorted(best.items(), key=lambda item: item[1][1]):
            group = node.by_at.get(at)
            if group is None:
                group = node.by_at[at] = {}
            cur = group.get(sub)
            if cur is None or w < cur[0]:
                if cur is not None:
                    del group[sub]
                group[sub] = (w, tuple(sorted(_merged(pieces, labelings[i], sub[0]))))
                grew = True
        return grew

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
            node = self.nodes[t]
            if t in self._dirty or any(c in changed for c in node.children):
                old = node.table
                self._solve_node(node)
                if old is None or _values(old) != _values(node.table):
                    changed.add(t)
        self._dirty.clear()

    def _solve_node(self, node: _Node) -> None:
        """The node's table: per (adhesion projection, part count) state,
        the value within the budget, with its trace, of the first lightest
        candidate carrying that projection once a knapsack over the children
        adds the (child, adhesion projection, part count) entries it picks.
        One knapsack per candidate fills every part count; a childless
        node's candidates are their own values.  The trace holds the
        candidate's parts and the picked entries."""
        k, s = self.k, self.s
        table: dict[tuple[MaskPartition, int], tuple[int, object]] = {}
        for pa, group in node.by_at.items():
            for (nparts, cprojs), (w, parts) in group.items():
                if w > s:
                    continue
                nu: dict[int, tuple[int, tuple]] = {nparts: (w, ())}
                for child, ckey in zip(node.children, cprojs):
                    ctab = self.nodes[child].table
                    b = len(ckey)
                    w_adh = self.crossing_weight(ckey, node.edges)
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
                        table[(pa, i)] = (v, (parts, trace))
        self.states += len(node.by_at) * k
        node.table = table

    # .. traceback ..

    def reconstruct(self, t: int, pa: MaskPartition, i: int) -> MaskPartition:
        """Rebuild the witnessing partition of gamma(t); verifies itself."""
        node = self.nodes[t]
        value, (parts, child_choices) = node.table[(pa, i)]
        parts = list(parts)
        # The knapsack picks one entry per child, in ``children`` order.
        for amask, (child, ckey, ic) in zip(node.child_masks, child_choices):
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
        assert total == node.gamma, "reconstructed partition misses vertices"
        assert len(parts) == i
        assert _proj_masks(parts, node.adh) == pa
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


def _check_exact_inputs(g: MultiGraph, k: int, s: int) -> None:
    if g.mode != MULTI:
        raise InvalidInputError("the exact solver expects an unweighted multigraph")
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    if s < 0:
        raise InvalidInputError("the cut budget must be nonnegative")
    if not is_connected(g):
        raise InvalidInputError("the exact solver expects a connected graph")


def _setup(g: MultiGraph, k: int, s: int, trees: TreeFamily | None = None) -> tuple[TreeFamily, _Engine]:
    """The tree family (g's default when ``trees`` is None) and a fresh
    engine over g's decomposition at budget s, for inputs already checked."""
    if trees is None:
        trees = _tree_family(g, k)
    elif trees.graph != g:
        raise InvalidInputError("the tree family belongs to another graph")
    return trees, _Engine(g, build_unbreakable_decomposition(g, s), k, s)


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
    ``trees``, when given, must be a family of g's own spanning trees.
    ``trees_tried`` counts the trees taken in by then (the whole family on a
    ``no``), ``dp_states`` every (node, adhesion projection, part count)
    state evaluated on the way.  A ``yes`` in construct mode carries a
    partition whose recomputed weight equals the value.
    """
    _check_exact_inputs(g, k, s)
    if mode not in ("decide", "construct"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    fam, engine = _setup(g, k, s, trees)
    root = engine.td.root
    used = 0
    while used < len(fam):
        upto = min(2 * used + 1, len(fam))
        for ti in range(used, upto):
            engine.add_tree(fam.tree_edges(ti))
        used = upto
        engine.evaluate()
        ent = engine.nodes[root].table.get(((), k))
        if ent is not None and ent[0] <= s:
            masks = engine.reconstruct(root, (), k)
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
    fam, engine = _setup(g, kmax, s_cap)
    for ti in range(len(fam)):
        engine.add_tree(fam.tree_edges(ti))
    engine.evaluate()
    root = engine.td.root
    table = engine.nodes[root].table
    best: list[tuple[int | None, Partition | None]] = [(None, None)]
    for i in range(1, kmax + 1):
        ent = table.get(((), i))
        if ent is None:
            best.append((None, None))
            continue
        best.append((ent[0], unmask_partition(engine.reconstruct(root, (), i))))
    if stats_out is not None:
        stats_out["trees"] = stats_out.get("trees", 0) + len(fam)
        stats_out["states"] = stats_out.get("states", 0) + engine.states
    return best
