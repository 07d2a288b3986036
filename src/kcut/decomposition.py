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

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cuts import ResidualNetwork, min_vertex_separator
from .graph import (
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    is_connected,
)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..N-1; ``parent[i]`` is the parent node id, -1 at the root."""

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

    def children(self, t: int) -> list[int]:
        return [c for c, p in enumerate(self.parent) if p == t]

    def children_map(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.bags]
        for c, p in enumerate(self.parent):
            if p != -1:
                out[p].append(c)
        return out

    def adhesion(self, t: int) -> frozenset[int]:
        p = self.parent[t]
        return frozenset() if p == -1 else self.bags[t] & self.bags[p]

    def post_order(self) -> list[int]:
        kids = self.children_map()
        order: list[int] = []
        stack = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            else:
                stack.append((node, True))
                for c in reversed(kids[node]):
                    stack.append((c, False))
        return order

    def gamma(self, t: int) -> frozenset[int]:
        kids = self.children_map()
        acc = set(self.bags[t])
        stack = list(kids[t])
        while stack:
            c = stack.pop()
            acc |= self.bags[c]
            stack.extend(kids[c])
        return frozenset(acc)

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
    for t in range(len(td)):
        a = td.adhesion(t)
        if td.parent[t] == -1 or not a:
            continue
        alpha = td.alpha(t)
        if not alpha:
            return False  # redundant subtree; cleanup should have removed it
        seen = {min(alpha)}
        stack = [min(alpha)]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in alpha and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != alpha:
            return False
        nbrs = {w for u in alpha for w in adj[u] if w not in alpha}
        if nbrs != a:
            return False
    return True


def is_bag_unbreakable(g: MultiGraph, bag: Iterable[int], q: int, s: int) -> bool:
    """Brute force ((q, s))-edge-unbreakability check, exponential in g.m."""
    from itertools import combinations

    bag = frozenset(bag)
    mincut = sum(w for _, _, w in g.edges) + 1
    for r in range(0, s + 1):
        for cut_edges in combinations(range(g.m), r):
            weight = sum(g.edges[i][2] for i in cut_edges)
            if weight > s:
                continue
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, (u, v, _) in enumerate(g.edges):
                if i not in cut_edges:
                    parent[find(u)] = find(v)
            comps: dict[int, set[int]] = {}
            for v in range(g.n):
                comps.setdefault(find(v), set()).add(v)
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


def find_breakability_witness(g: MultiGraph, terminals: Iterable[int], s: int) -> EdgeCut | None:
    """Search for an edge cut of order <= s balanced with respect to terminals.

    Returns a cut with at least s+1 terminals on both sides when the search
    family hits one; returns None only when no cut of order <= s has
    (s+1)^5 or more terminals on both sides, so absence certifies
    ((s+1)^5, s)-edge-unbreakability of the terminal set.
    """
    if not is_connected(g):
        raise InvalidInputError("witness search expects a connected graph")
    q = frozenset(terminals)
    if len(q) < 2 * (s + 1):
        return None
    net = ResidualNetwork(g)
    if not net.has_cut_at_most(s):
        return None  # no nontrivial cut of order <= s exists at all

    root = 0
    adj = [sorted(set(ns)) for ns in g.neighbors()]
    parent = [-2] * g.n
    parent[root] = -1
    order = [root]
    for u in order:
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
    kids: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        if parent[v] >= 0:
            kids[parent[v]].append(v)

    subtree: list[set[int]] = [set() for _ in range(g.n)]
    for v in reversed(order):
        acc = {v}
        for c in kids[v]:
            acc |= subtree[c]
        subtree[v] = acc

    family: set[frozenset[int]] = set()
    for v in range(g.n):
        if len(subtree[v] & q) >= s + 1:
            family.add(frozenset(subtree[v]))

    # Ancestor-descendant paths, walking each vertex up to the root.
    paths: list[list[int]] = []
    for v in range(g.n):
        if len({v} & q) >= s + 1:  # only possible at s = 0
            family.add(frozenset([v]))
        path = [v]
        u = v
        while u != root:
            u = parent[u]
            path.append(u)
            if len(set(path) & q) >= s + 1:
                family.add(frozenset(path))
            paths.append(list(path))
    for path in paths:
        on_path = set(path)
        good = [
            w
            for p in path
            for w in kids[p]
            if w not in on_path and subtree[w] & q
        ]
        if len(good) < (s + 1) ** 2:
            continue
        good.sort()
        bundles: list[set[int]] = [set() for _ in range(s + 1)]
        for i, w in enumerate(good):
            bundles[i % (s + 1)].add(w)
        for bundle in bundles:
            assert len(bundle) >= s + 1
            h = set(on_path)
            for w in bundle:
                h |= subtree[w]
            family.add(frozenset(h))

    members = sorted(family, key=lambda c: (len(c), sorted(c)))
    for i, c1 in enumerate(members):
        for c2 in members[i + 1 :]:
            if c1 & c2:
                continue
            side = net.small_cut_side(c1, c2, s)
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
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for c in range(n_nodes):
        p = td.parent[c]
        if p != -1:
            adj[c].append(p)
            adj[p].append(c)
    for x in sorted(w.separator - td.bags[q]):
        prev = {q: -1}
        queue = [q]
        goal = -1
        for u in queue:
            if x in td.bags[u]:
                goal = u
                break
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        assert goal != -1, "separator vertex appears in no bag"
        node = prev[goal]
        while node != -1:
            new_bags[node].add(x)
            new_bags[n_nodes + node].add(x)
            node = prev[node]

    edges = []
    for c in range(n_nodes):
        p = td.parent[c]
        if p != -1:
            edges.append((c, p))
            edges.append((n_nodes + c, n_nodes + p))
    edges.append((q, n_nodes + q))
    refined = _from_edges([frozenset(b) for b in new_bags], edges, root=q)
    refined = cleanup(refined)
    if potential(refined, s) >= potential(td, s):
        raise AssertionError("refinement must strictly decrease the potential")
    if refined.max_adhesion() > s:
        raise AssertionError("refinement must keep adhesions small")
    return refined


def _from_edges(bags: Sequence[frozenset[int]], edges: Iterable[tuple[int, int]], root: int) -> TreeDecomposition:
    adj: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-2] * len(bags)
    parent[root] = -1
    order = [root]
    for u in order:
        for v in sorted(adj[u]):
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
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
        target = _first_compactness_violation(td, g, adj)
        if target is None:
            assert is_compact(td, g)
            return td
        td = _split_subtree(td, target, adj)
    raise AssertionError("compactification failed to converge")


def _first_compactness_violation(td: TreeDecomposition, g: MultiGraph, adj) -> int | None:
    order = [td.root]
    kids = td.children_map()
    for u in order:
        order.extend(kids[u])
    for t in order:
        if td.parent[t] == -1:
            continue
        alpha = td.alpha(t)
        if not alpha:
            return t  # redundant subtree, handled by the splitter
        a = td.adhesion(t)
        comp = _components(alpha, adj)
        nbrs = {w for u in alpha for w in adj[u] if w not in alpha}
        if len(comp) > 1 or nbrs != a:
            return t
    return None


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
    sub_nodes = [c]
    kids = td.children_map()
    for u in sub_nodes:
        sub_nodes.extend(kids[u])
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


def build_unbreakable_decomposition(
    g: MultiGraph, s: int, with_log: bool = False
) -> TreeDecomposition | tuple[TreeDecomposition, list[int]]:
    """Compute a rooted compact decomposition with adhesions of size at most
    s whose every bag is ((s+1)^5, s)-edge-unbreakable.

    Disconnected graphs are decomposed per component and the component roots
    glued under the first root.  ``with_log`` additionally returns the
    sequence of potential values, one entry per refinement."""
    if s < 0:
        raise InvalidInputError("unbreakability parameter must be nonnegative")
    if g.n == 0:
        raise InvalidInputError("cannot decompose the empty graph")
    log: list[int] = []
    comp_tds: list[tuple[TreeDecomposition, list[int]]] = []
    from .graph import connected_components

    for part in connected_components(g).parts:
        sub, labels = g.induced_subgraph(part)
        td = _build_connected(sub, s, log)
        comp_tds.append((td, labels))

    bags: list[frozenset[int]] = []
    parent: list[int] = []
    first_root = None
    for td, labels in comp_tds:
        base = len(bags)
        for t in range(len(td)):
            bags.append(frozenset(labels[v] for v in td.bags[t]))
            if td.parent[t] == -1:
                if first_root is None:
                    parent.append(-1)
                    first_root = base + t
                else:
                    parent.append(first_root)
            else:
                parent.append(base + td.parent[t])
    out = TreeDecomposition(tuple(bags), tuple(parent))
    return (out, log) if with_log else out


def _build_connected(g: MultiGraph, s: int, log: list[int]) -> TreeDecomposition:
    td = TreeDecomposition((frozenset(range(g.n)),), (-1,))
    while True:
        td = cleanup(td)
        big = sorted(
            (t for t in range(len(td)) if len(td.bags[t]) > 2 * s + 1),
            key=lambda t: (-len(td.bags[t]), t),
        )
        refined = False
        for t in big:
            cut = find_breakability_witness(g, td.bags[t], s)
            if cut is None:
                continue
            lean = witness_to_lean(td, t, cut, s, g)
            before = potential(td, s)
            td = refine(td, lean, s, g)
            log.append(before)
            log.append(potential(td, s))
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


def parse_decomposition(text: str) -> TreeDecomposition:
    bags: dict[int, frozenset[int]] = {}
    parent: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise InvalidInputError(f"line {lineno}: expected 'id parent bag...'")
        t, p = int(fields[0]), int(fields[1])
        bags[t] = frozenset(int(x) for x in fields[2:])
        parent[t] = p
    ids = sorted(bags)
    if ids != list(range(len(ids))):
        raise InvalidInputError("node ids must be 0..N-1")
    return TreeDecomposition(tuple(bags[i] for i in ids), tuple(parent[i] for i in ids))
