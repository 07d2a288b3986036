"""Slow reference implementations that the tests compare the solver against.

None of this runs on a solver path.  ``project_tree`` and ``feasible_family``
build a tree's projection and feasible family the way the paper states them
(the engine projects in linear time from a tree rooted once and never builds
a family); ``is_bag_unbreakable`` checks edge-unbreakability by brute force;
``crossings`` counts the tree edges a partition cuts.  The feasible family
finds a cut tree's components by its own union-find and groups them by its
own enumeration, so it shares no generator with the DP.

``reference_find_breakability_witness`` is the witness search on frozenset
members: every member of the family kept and every disjoint pair decided,
where the search keeps one member per class mask.

``reference_global_min_2cut`` runs a fresh matrix max-flow per sink, and
``reference_approx2_kcut`` and ``reference_strip`` run the greedy
2-approximation and the stripping stage as one round loop each, every round
cutting every part again with that reference cut.

``class_quotient_kcut`` checks the exact solver past the enumeration
oracle's 14 vertices with no code the DP uses: it contracts the classes of
λ(u, v) > s (``classes_above``, by matrix max-flows) and enumerates the
quotient.

``reference_read_graph`` is the edge-list parser as it was before it parsed
each distinct record line once, and ``reference_canonical_edges`` the record
validation ``MultiGraph`` ran before it kept canonical record tuples: every
record copied, parallel multi records merged through a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from kcut.cuts import merge_to_k_parts, oracle_exact_kcut, to_integer_multigraph
from kcut.dp import (
    MaskPartition,
    _proj_masks,
    guess_budget,
    unmask_partition,
)
from kcut.graph import (
    MULTI,
    WEIGHTED,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Num,
    Partition,
    _bits,
    _mask,
    bfs,
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
    """All merges of disjoint masks into coarser partitions: each piece in
    turn joins one of the groups so far or starts its own."""
    merges: list[list[int]] = [[]]
    for p in pieces:
        merges = [
            m[:i] + [m[i] | p] + m[i + 1 :] for m in merges for i in range(len(m))
        ] + [m + [p] for m in merges]
    return [tuple(sorted(m)) for m in merges]


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
    out: set[MaskPartition] = set()
    budget = min(guess_budget(k), len(edges))
    for r in range(budget + 1):
        for cut in combinations(range(len(edges)), r):
            for merged in _groupings(_forest_components(vmask, edges, cut)):
                out.add(_proj_masks(merged, xmask))
    return frozenset(out)


def _forest_components(vmask: int, edges: Sequence[tuple[int, int]], cut: Sequence[int]) -> list[int]:
    """Sorted component masks of the tree on ``vmask`` less the edges
    indexed by ``cut``, by union-find."""
    parent = list(range(vmask.bit_length()))
    for i, (u, v) in enumerate(edges):
        if i not in cut:
            uf_union(parent, u, v)
    comps: dict[int, int] = {}
    for v in _bits(vmask):
        r = uf_find(parent, v)
        comps[r] = comps.get(r, 0) | 1 << v
    return sorted(comps.values())


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


def reference_find_breakability_witness(base, terminals: Iterable[int]) -> EdgeCut | None:
    """The witness search on frozensets: the same family, from the same
    breadth-first tree, sorted by (size, sorted vertices), with every
    member kept and every disjoint pair of members that meets no common
    class decided in that order, each flow between the members' own
    vertices.  Uses only the graph, s, network and class bits of ``base``
    (a ``WitnessSearchBase``)."""
    g, s = base.g, base.s
    q = frozenset(terminals)
    if len(q) < 2 * (s + 1) or len(set(base.bit)) == 1:
        return None
    order, parent = bfs([sorted(set(ns)) for ns in g.neighbors()], 0)
    kids: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        if parent[v] >= 0:
            kids[parent[v]].append(v)
    subtree: list[frozenset[int]] = [frozenset()] * g.n
    for v in reversed(order):
        subtree[v] = frozenset([v]).union(*(subtree[c] for c in kids[v]))
    below = [len(sub & q) for sub in subtree]

    family: set[frozenset[int]] = {subtree[v] for v in range(g.n) if below[v] >= s + 1}
    for v in range(g.n):
        path = [v]
        good = [w for w in kids[v] if below[w]]
        if len(q.intersection(path)) >= s + 1:
            family.add(frozenset(path))
        u = v
        while u != 0:
            child, u = u, parent[u]
            path.append(u)
            good += [w for w in kids[u] if w != child and below[w]]
            good.sort()
            if len(q.intersection(path)) >= s + 1:
                family.add(frozenset(path))
            if len(good) < (s + 1) ** 2:
                continue
            bundles: list[set[int]] = [set() for _ in range(s + 1)]
            for i, w in enumerate(good):
                bundles[i % (s + 1)].add(w)
            for bundle in bundles:
                family.add(frozenset(path).union(*(subtree[w] for w in bundle)))

    members = sorted(family, key=lambda c: (len(c), sorted(c)))
    classes = [{base.bit[v] for v in c} for c in members]
    for i, c1 in enumerate(members):
        for j in range(i + 1, len(members)):
            if classes[i] & classes[j]:
                continue
            side = base.net.small_cut_side(c1, members[j], s)
            if side is not None:
                return EdgeCut.of(g, side)
    return None


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


# -- edge-list parsing and record validation ---------------------------------


def reference_canonical_edges(n: int, edges, mode: str) -> tuple[tuple[int, int, Num], ...]:
    """The canonical records of ``MultiGraph(n, edges, mode)``, or its error."""
    if n < 0:
        raise InvalidInputError("vertex count must be nonnegative")
    if mode not in (WEIGHTED, MULTI):
        raise InvalidInputError(f"unknown mode {mode!r}")
    canon = []
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) endpoints out of range")
        if u == v:
            raise InvalidInputError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if isinstance(w, str):
            w = Fraction(w)
        elif not isinstance(w, (int, Fraction)):
            raise InvalidInputError(f"weight {w!r} is not an exact number")
        if mode == MULTI:
            if not isinstance(w, int) or w < 1:
                raise InvalidInputError(f"multiplicity {w!r} must be a positive integer")
        elif w < 0:
            raise InvalidInputError(f"weight {w!r} must be nonnegative")
        canon.append((u, v, w))
    if mode == MULTI:
        merged: dict[tuple[int, int], int] = {}
        for u, v, w in canon:
            merged[(u, v)] = merged.get((u, v), 0) + w
        canon = [(u, v, w) for (u, v), w in sorted(merged.items())]
    return tuple(canon)


def reference_read_graph(text: str) -> MultiGraph:
    """Parse the edge-list format, one ``Fraction`` or ``int`` per record."""
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
    return MultiGraph(n, reference_canonical_edges(n, edges, mode), mode)
