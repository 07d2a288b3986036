"""Rooted compact tree decompositions whose bags resist small edge cuts.

The builder starts from one bag holding everything and repeatedly splits any
oversized bag for which a balanced low-order edge cut exists.  Each split
goes through a lean witness: a pair of terminal sets inside the bag that a
small vertex separation disconnects.  Splitting along that separation
strictly decreases a potential, so the loop terminates; a final
compactification pass makes every subtree hang off exactly the neighborhood
of its private vertices.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cuts import ResidualNetwork, _classes_above, min_vertex_separator
from .graph import (
    MULTI,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    bfs,
    connected_components,
    is_connected,
)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..N-1; ``parent[i]`` is the parent node id, -1 at the root.

    ``children_map`` lists every node's children; walks over the tree take
    it once and go through ``graph.bfs``, whose order puts every parent
    before its children."""

    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]

    def __post_init__(self):
        if len(self.bags) != len(self.parent):
            raise InvalidInputError("bag and parent arrays differ in length")
        if sum(1 for p in self.parent if p == -1) != 1:
            raise InvalidInputError("decomposition must have exactly one root")

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def __len__(self) -> int:
        return len(self.bags)

    def children_map(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.bags]
        for c, p in enumerate(self.parent):
            if p != -1:
                out[p].append(c)
        return out

    def adhesion(self, t: int) -> frozenset[int]:
        p = self.parent[t]
        return frozenset() if p == -1 else self.bags[t] & self.bags[p]

    def gamma(self, t: int) -> frozenset[int]:
        return frozenset().union(*(self.bags[u] for u in bfs(self.children_map(), t)[0]))

    def alpha(self, t: int) -> frozenset[int]:
        return self.gamma(t) - self.adhesion(t)

    def max_adhesion(self) -> int:
        return max((len(self.adhesion(t)) for t in range(len(self)) if self.parent[t] != -1), default=0)


def potential(td: TreeDecomposition, s: int) -> int:
    """Sum over bags of the overshoot beyond 2s+1 vertices."""
    return sum(max(0, len(b) - 2 * s - 1) for b in td.bags)


def validate_decomposition(td: TreeDecomposition, g: MultiGraph) -> None:
    """Check coverage, edge containment and subtree connectivity (T1-T3)."""
    covered = set()
    for b in td.bags:
        covered |= b
    if covered != set(range(g.n)):
        raise InvalidInputError("bags do not cover the vertex set")
    for u, v, _ in g.edges:
        if not any(u in b and v in b for b in td.bags):
            raise InvalidInputError(f"edge ({u},{v}) is in no bag")
    for v in range(g.n):
        holders = [t for t, b in enumerate(td.bags) if v in b]
        top = [t for t in holders if td.parent[t] == -1 or v not in td.bags[td.parent[t]]]
        if len(top) != 1:
            raise InvalidInputError(f"nodes containing vertex {v} are not a subtree")


def is_compact(td: TreeDecomposition, g: MultiGraph) -> bool:
    """Every non-root subtree with nonempty adhesion has connected private
    vertices whose neighborhood is exactly that adhesion."""
    adj = g.neighbors()
    return all(_compact_at(td, t, adj) for t in range(len(td)) if td.parent[t] != -1 and td.adhesion(t))


def _compact_at(td: TreeDecomposition, t: int, adj) -> bool:
    """Whether alpha(t) is nonempty and connected and N(alpha(t)) is t's
    adhesion.  An empty alpha(t) marks a redundant subtree, which the
    splitter in ``compactify`` drops."""
    alpha = td.alpha(t)
    if not alpha or len(_components(alpha, adj)) > 1:
        return False
    return {w for u in alpha for w in adj[u] if w not in alpha} == td.adhesion(t)


@dataclass(frozen=True)
class LeanWitness:
    """Terminal sets inside one bag that a smaller vertex set separates."""

    node: int
    z1: frozenset[int]
    z2: frozenset[int]
    x1: frozenset[int]
    x2: frozenset[int]
    separator: frozenset[int]
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.z1) != len(self.z2):
            raise InvalidInputError("terminal sets must have equal size")
        if not (self.z1 <= self.x1 and self.z2 <= self.x2):
            raise InvalidInputError("terminals must lie on their own side")
        if self.separator != self.x1 & self.x2:
            raise InvalidInputError("separator must be the side intersection")
        if len(self.separator) >= len(self.z1):
            raise InvalidInputError("witness separation must be smaller than the terminal sets")
        if len(self.paths) != len(self.separator):
            raise InvalidInputError("need exactly one path per separator vertex")
        seen: set[int] = set()
        for x, path in zip(sorted(self.separator), self.paths):
            if x not in path:
                raise InvalidInputError("each path must pass its separator vertex")
            if seen & set(path):
                raise InvalidInputError("witness paths must be vertex-disjoint")
            seen |= set(path)


class WitnessSearchBase:
    """What every witness search on one connected graph at one s shares,
    and the only way into the search: build one per graph and s, then pass
    it to ``find_breakability_witness`` with each terminal set.

    ``bit[v]`` is ``1 << r`` for the least vertex r of v's class under
    λ(u, v) > s: no cut of order <= s separates two vertices of one class,
    every two classes are separated by one, and there is one class exactly
    when no cut of order <= s exists at all.  The rest is the network the
    decisions run on and a breadth-first spanning tree from vertex 0, with
    the vertex set below each tree vertex.
    """

    def __init__(self, g: MultiGraph, s: int):
        if not is_connected(g):
            raise InvalidInputError("witness search expects a connected graph")
        self.g, self.s = g, s
        self.net = ResidualNetwork.of(g)
        label = _classes_above(g, s, self.net)
        self.bit = [1 << r for r in label]
        self.one_class = len(set(label)) == 1
        order, parent = bfs([sorted(set(ns)) for ns in g.neighbors()], 0)
        kids: list[list[int]] = [[] for _ in range(g.n)]
        for v in range(g.n):
            if parent[v] >= 0:
                kids[parent[v]].append(v)
        subtree: list[frozenset[int]] = [frozenset()] * g.n
        for v in reversed(order):
            subtree[v] = frozenset([v]).union(*(subtree[c] for c in kids[v]))
        self.parent, self.kids, self.subtree = parent, kids, subtree

    def mask(self, vertices: Iterable[int]) -> int:
        """The classes that meet ``vertices``, as a bitmask."""
        m = 0
        for v in vertices:
            m |= self.bit[v]
        return m


def find_breakability_witness(base: WitnessSearchBase, terminals: Iterable[int]) -> EdgeCut | None:
    """Search for an edge cut of order <= s balanced with respect to terminals.

    Returns a cut with at least s+1 terminals on both sides when the search
    family hits one; returns None only when no cut of order <= s has
    (s+1)^5 or more terminals on both sides, so absence certifies
    ((s+1)^5, s)-edge-unbreakability of the terminal set.

    The graph and s are those of ``base``, which holds everything that
    does not depend on the terminals; the builder makes one per component
    and passes it to every search.  Each disjoint pair of family members is
    decided in a fixed order by a bounded flow, and the first small cut is
    returned.  The base's classes settle decisions without a flow: a pair
    whose members meet one class has no cut of order <= s between them, so
    only pairs with disjoint class masks reach the network, and a graph of
    one class has no witness at all.  A settled decision would have
    returned None, so the search returns the same cut either way.
    """
    g, s = base.g, base.s
    q = frozenset(terminals)
    if len(q) < 2 * (s + 1) or base.one_class:
        return None

    parent, kids, subtree = base.parent, base.kids, base.subtree
    below = [len(sub & q) for sub in subtree]  # terminals per subtree

    family: set[frozenset[int]] = set()
    for v in range(g.n):
        if below[v] >= s + 1:
            family.add(subtree[v])

    # Ancestor-descendant paths, walking each vertex up to the root.  Each
    # step adds one vertex to the path, so the path's terminal count and its
    # off-path children with terminals below them (``good``) grow by the new
    # top's share: its own membership and its children but the one just left.
    # ``kids`` lists are ascending, so ``good`` stays sorted.
    for v in range(g.n):
        path = [v]
        hits = int(v in q)
        if hits >= s + 1:  # only possible at s = 0
            family.add(frozenset(path))
        good = [w for w in kids[v] if below[w]]
        u = v
        while u != 0:
            child, u = u, parent[u]
            path.append(u)
            hits += u in q
            for w in kids[u]:
                if w != child and below[w]:
                    insort(good, w)
            if hits >= s + 1:
                family.add(frozenset(path))
            if len(good) < (s + 1) ** 2:
                continue
            bundles: list[set[int]] = [set() for _ in range(s + 1)]
            for i, w in enumerate(good):
                bundles[i % (s + 1)].add(w)
            for bundle in bundles:
                assert len(bundle) >= s + 1
                h = set(path)
                for w in bundle:
                    h |= subtree[w]
                family.add(frozenset(h))

    members = sorted(family, key=lambda c: (len(c), sorted(c)))
    masks = [base.mask(c) for c in members]
    for i, c1 in enumerate(members):
        m1 = masks[i]
        for j in range(i + 1, len(members)):
            if m1 & masks[j]:
                continue  # a shared class, or a shared vertex
            side = base.net.small_cut_side(c1, members[j], s)
            if side is not None:
                cut = EdgeCut.of(g, side)
                assert cut.order <= s
                assert len(cut.side_a & q) >= s + 1 and len(cut.side_b & q) >= s + 1
                return cut
    return None


def witness_to_lean(td: TreeDecomposition, t: int, cut: EdgeCut, s: int, g: MultiGraph) -> LeanWitness:
    """Turn a balanced edge cut of a bag into a single-bag lean witness.

    Picks the s+1 smallest bag vertices on each cut side as terminals; the
    endpoints of the cut edges separate them, so the minimum vertex
    separation has order at most s.
    """
    bag = td.bags[t]
    if len(bag) <= 2 * s + 1:
        raise InvalidInputError("refinement only applies to oversized bags")
    za = sorted(bag & cut.side_a)[: s + 1]
    zb = sorted(bag & cut.side_b)[: s + 1]
    if len(za) < s + 1 or len(zb) < s + 1:
        raise InvalidInputError("cut sides hold too few bag vertices")
    sep = min_vertex_separator(g, za, zb)
    assert len(sep.separator) <= s, "edge-cut endpoints bound the separation order"
    return LeanWitness(
        node=t,
        z1=frozenset(za),
        z2=frozenset(zb),
        x1=sep.x1,
        x2=sep.x2,
        separator=sep.separator,
        paths=sep.paths,
    )


def refine(td: TreeDecomposition, w: LeanWitness, s: int, g: MultiGraph) -> TreeDecomposition:
    """Split the decomposition in two copies along the witness separation.

    Copy i keeps bag intersections with side i; separator vertices missing
    from the witness bag are routed along the path toward their closest
    holder.  The copies join at the witness node, whose adhesion becomes the
    separator.  The potential strictly decreases; adhesions stay <= s.
    """
    if td.max_adhesion() > s:
        raise InvalidInputError("refinement requires adhesions of size at most s")
    q = w.node
    if len(td.bags[q]) <= 2 * s + 1:
        raise InvalidInputError("witness bag is not oversized")
    if len(w.z1) > s + 1:
        raise InvalidInputError("witness terminal sets are too large")
    n_nodes = len(td)
    sides = (w.x1, w.x2)
    new_bags = [set(td.bags[t] & sides[i]) for i in (0, 1) for t in range(n_nodes)]

    # Route each separator vertex missing from the witness bag toward its
    # nearest holder, inserting it into bags along the way (endpoint excluded).
    tree_edges = [(c, p) for c, p in enumerate(td.parent) if p != -1]
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for c, p in tree_edges:
        adj[c].append(p)
        adj[p].append(c)
    order, prev = bfs(adj, q)
    for x in sorted(w.separator - td.bags[q]):
        goal = next((u for u in order if x in td.bags[u]), -1)
        assert goal != -1, "separator vertex appears in no bag"
        node = prev[goal]
        while node != -1:
            new_bags[node].add(x)
            new_bags[n_nodes + node].add(x)
            node = prev[node]

    edges = tree_edges + [(n_nodes + c, n_nodes + p) for c, p in tree_edges] + [(q, n_nodes + q)]
    refined = _from_edges([frozenset(b) for b in new_bags], edges, root=q)
    refined = cleanup(refined)
    if potential(refined, s) >= potential(td, s):
        raise AssertionError("refinement must strictly decrease the potential")
    if refined.max_adhesion() > s:
        raise AssertionError("refinement must keep adhesions small")
    return refined


def _from_edges(bags: Sequence[frozenset[int]], edges: Iterable[tuple[int, int]], root: int) -> TreeDecomposition:
    adj: list[list[int]] = [[] for _ in bags]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = bfs([sorted(nbrs) for nbrs in adj], root)[1]
    assert all(p != -2 for p in parent), "decomposition tree is disconnected"
    return TreeDecomposition(tuple(bags), tuple(parent))


def cleanup(td: TreeDecomposition) -> TreeDecomposition:
    """Contract any tree edge whose child-or-parent bag swallows the other.

    Keeps the larger bag, never grows adhesions or the potential, and leaves
    at most one node per forgotten vertex.
    """
    bags = list(td.bags)
    alive = [True] * len(bags)
    parent = list(td.parent)

    def pa(t: int) -> int:
        p = parent[t]
        while p != -1 and not alive[p]:
            p = parent[p]
        return p

    changed = True
    while changed:
        changed = False
        for t in range(len(bags)):
            if not alive[t]:
                continue
            p = pa(t)
            if p == -1:
                continue
            if bags[t] <= bags[p]:
                # Drop t; descendants re-hang onto p through forwarding.
                alive[t] = False
                parent[t] = p
                changed = True
            elif bags[p] <= bags[t]:
                # t swallows its parent and takes its place.
                gp = pa(p)
                alive[p] = False
                parent[p] = t
                parent[t] = gp
                changed = True
    keep = [t for t in range(len(bags)) if alive[t]]
    index = {t: i for i, t in enumerate(keep)}
    new_parent = []
    for t in keep:
        p = pa(t)
        new_parent.append(-1 if p == -1 else index[p])
    return TreeDecomposition(tuple(bags[t] for t in keep), tuple(new_parent))


def compactify(td: TreeDecomposition, g: MultiGraph) -> TreeDecomposition:
    """Make the decomposition compact without growing bags or adhesions.

    Violating subtrees are replaced by per-component restrictions: the
    subtree hanging below node c splits into one copy per connected
    component C of its private vertices, restricted to C plus its
    neighborhood.  Each copy is compact at its root by construction; the
    checker at the end is authoritative.
    """
    adj = g.neighbors()
    for _ in range(20 * (len(td.bags) + g.n + 10)):
        td = cleanup(td)
        target = _first_compactness_violation(td, adj)
        if target is None:
            assert is_compact(td, g)
            return td
        td = _split_subtree(td, target, adj)
    raise AssertionError("compactification failed to converge")


def _first_compactness_violation(td: TreeDecomposition, adj) -> int | None:
    order = bfs(td.children_map(), td.root)[0]
    return next((t for t in order if td.parent[t] != -1 and not _compact_at(td, t, adj)), None)


def _components(vertices: frozenset[int], adj) -> list[set[int]]:
    left = set(vertices)
    out = []
    while left:
        start = min(left)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in left and w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
        left -= seen
    return sorted(out, key=min)


def _split_subtree(td: TreeDecomposition, c: int, adj) -> TreeDecomposition:
    """Replace subtree(c) with one restricted copy per component of alpha(c)."""
    p = td.parent[c]
    assert p != -1
    sub_nodes = bfs(td.children_map(), c)[0]
    alpha = td.alpha(c)

    keep_nodes = [t for t in range(len(td)) if t not in set(sub_nodes)]
    bags: list[frozenset[int]] = [td.bags[t] for t in keep_nodes]
    index = {t: i for i, t in enumerate(keep_nodes)}
    parent: list[int] = [
        -1 if td.parent[t] == -1 else index[td.parent[t]] for t in keep_nodes
    ]
    for comp in _components(alpha, adj):
        hull = set(comp) | {w for u in comp for w in adj[u] if u in comp and w not in comp}
        base = len(bags)
        for j, t in enumerate(sub_nodes):
            bags.append(td.bags[t] & hull)
            if t == c:
                parent.append(index[p])
            else:
                parent.append(base + sub_nodes.index(td.parent[t]))
    return TreeDecomposition(tuple(bags), tuple(parent))


def build_unbreakable_decomposition(g: MultiGraph, s: int) -> TreeDecomposition:
    """Compute a rooted compact decomposition with adhesions of size at most
    s whose every bag is ((s+1)^5, s)-edge-unbreakable.

    Expects an unweighted multigraph.  Disconnected graphs are decomposed
    per component and the component roots glued under the first root."""
    if s < 0:
        raise InvalidInputError("unbreakability parameter must be nonnegative")
    if g.n == 0:
        raise InvalidInputError("cannot decompose the empty graph")
    if g.mode != MULTI:
        raise InvalidInputError("the unbreakable decomposition expects an unweighted multigraph")
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for part in connected_components(g).parts:
        sub, labels = g.induced_subgraph(part)
        td = _build_connected(sub, s)
        base = len(bags)
        bags.extend(frozenset(labels[v] for v in bag) for bag in td.bags)
        edges.extend((base + c, base + p) for c, p in enumerate(td.parent) if p != -1)
        roots.append(base + td.root)
    edges.extend((r, roots[0]) for r in roots[1:])
    return _from_edges(bags, edges, root=roots[0])


def _build_connected(g: MultiGraph, s: int) -> TreeDecomposition:
    td = TreeDecomposition((frozenset(range(g.n)),), (-1,))
    # Bags only shrink below V, so at most 2s+1 vertices leave none to search.
    base = WitnessSearchBase(g, s) if g.n > 2 * s + 1 else None
    while True:
        big = sorted(
            (t for t in range(len(td)) if len(td.bags[t]) > 2 * s + 1),
            key=lambda t: (-len(td.bags[t]), t),
        )
        refined = False
        for t in big:
            cut = find_breakability_witness(base, td.bags[t])
            if cut is None:
                continue
            td = refine(td, witness_to_lean(td, t, cut, s, g), s, g)
            refined = True
            break
        if not refined:
            break
    td = _root_at_min_vertex(td)
    td = compactify(td, g)
    validate_decomposition(td, g)
    assert td.max_adhesion() <= s
    return td


def _root_at_min_vertex(td: TreeDecomposition) -> TreeDecomposition:
    target = min(
        range(len(td)),
        key=lambda t: (min(td.bags[t]) if td.bags[t] else 1 << 30, t),
    )
    edges = [(c, p) for c, p in enumerate(td.parent) if p != -1]
    return _from_edges(list(td.bags), edges, root=target)


# -- textual dump -----------------------------------------------------------


def dump_decomposition(td: TreeDecomposition) -> str:
    lines = []
    for t in range(len(td)):
        bag = " ".join(str(v) for v in sorted(td.bags[t]))
        lines.append(f"{t} {td.parent[t]} {bag}".rstrip())
    return "\n".join(lines) + "\n"

