"""Seeded instance families whose optimum is certified by construction.

Generators take a ``shape`` generator, which draws the structure (cluster
membership, where cross edges and chords attach), and a ``rng``, which draws
weights and multiplicities; :meth:`Instance.relabeled` then permutes the
vertex ids with ``rng``.  Each returns an :class:`Instance`: the edge
records, the edge-list text handed to ``kcut.read_graph``, and the optimum
together with the facts the per-operation checks need.  Each generator
asserts the inequality its certificate rests on, for every instance it
emits.  ``selftest.py`` confirms the certified optima on small members of
each family by exhaustive enumeration.

Optima are for k = 3 parts, except where a generator takes k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

K = 3


@dataclass(frozen=True)
class Instance:
    n: int
    records: tuple[tuple[int, int, int | Fraction], ...]
    mode: str  # "weighted" or "multi", the kcut edge-list modes
    opt: int | Fraction | None = None
    facts: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"p {self.n} {len(self.records)} {self.mode}"]
        lines += [f"{u} {v} {w}" for u, v, w in self.records]
        return "\n".join(lines) + "\n"

    def relabeled(self, rng, block: int | None = None) -> "Instance":
        """The same graph under a random permutation of the vertex ids, or,
        with ``block``, under a random rotation of the ids by a multiple of
        ``block``: a ring of blocks then keeps its edge order up to the wrap."""
        perm = list(range(self.n))
        if block is None:
            rng.shuffle(perm)
        else:
            shift = block * rng.randrange(self.n // block)
            perm = [(v + shift) % self.n for v in perm]
        records = [(*_norm(perm[u], perm[v]), w) for u, v, w in self.records]
        rng.shuffle(records)
        facts = dict(self.facts)
        if "clusters" in facts:
            facts["clusters"] = [frozenset(perm[v] for v in cl) for cl in facts["clusters"]]
        return Instance(self.n, tuple(records), self.mode, self.opt, facts)


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _split(rng, n: int, parts: int) -> list[list[int]]:
    """Shuffle 0..n-1 into ``parts`` clusters of near-equal size."""
    verts = list(range(n))
    rng.shuffle(verts)
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    out, at = [], 0
    for q in sizes:
        out.append(verts[at : at + q])
        at += q
    return out


def planted_weighted(shape, rng, n: int, heavy: int, parallel: int = 1) -> Instance:
    """Three clusters, each a weighted cycle, joined by two cross edges per
    cluster pair; every pair carries the same cross weight P, so C = 3P.

    Certificate: a cycle's edge connectivity is the sum of its two lightest
    edges.  Light cycle edges weigh in (C/2, C], so every cluster's
    connectivity exceeds C.  A 3-partition that splits no cluster is the
    cluster partition (weight C); one that splits a cluster pays more than C.
    So the optimum is exactly C.

    ``heavy`` cycle edges weigh more than 2C >= the greedy estimate w_a, so
    rounding contracts them and the solver sees n - heavy vertices.  With
    ``parallel`` > 1 every light and cross edge is carried as that many
    parallel records of equal weight, which raises the rounded minimum cut
    until the scheme samples (see ``sampled_rate_bound``).
    """
    clusters = _split(shape, n, K)
    pair_weight = Fraction(rng.randint(8, 12), 2)
    edges: list[tuple[int, int, Fraction, bool]] = []  # (u, v, w, is_heavy)
    for a in range(K):
        for b in range(a + 1, K):
            first = Fraction(rng.randint(2, int(2 * pair_weight) - 2), 2)
            for w in (first, pair_weight - first):
                edges.append((*_norm(shape.choice(clusters[a]), shape.choice(clusters[b])), w, False))
    c = 3 * pair_weight
    per_cluster = [heavy // K + (1 if i < heavy % K else 0) for i in range(K)]
    for cl, h in zip(clusters, per_cluster):
        q = len(cl)
        assert q >= 3 and h <= q - 2, "each cluster keeps two light cycle edges"
        light = []
        for i in range(q):
            if i < h:
                w = 2 * c + Fraction(rng.randint(1, 8), 8) * c
            else:
                w = c / 2 + Fraction(rng.randint(1, 8), 16) * c
                light.append(w)
            edges.append((*_norm(cl[i], cl[(i + 1) % q]), w, i < h))
        lightest = sorted(light)[:2]
        assert sum(lightest) > c, "cluster connectivity must exceed the cross weight"
    records = []
    for u, v, w, is_heavy in edges:
        copies = 1 if is_heavy else parallel
        records += [(u, v, w / copies)] * copies
    return Instance(
        n,
        tuple(records),
        "weighted",
        c,
        {"clusters": [frozenset(cl) for cl in clusters], "pair_weight": pair_weight, "heavy": heavy},
    )


def sampled_rate_bound(inst: Instance, epsilon: Fraction) -> float:
    """Upper bound on the scheme's keep-rate for a planted instance.

    The greedy estimate is exactly C here (it isolates a cluster for 2P, then
    splits the other two for P), so rounding uses delta = (eps/10)(C/2)/m.
    Nothing is stripped, and the minimum nontrivial 2-cut of the rounded graph
    is at least 2P/delta units, so the rate is at most
    100 ln(n') / ((eps/10)^2 * 2P/delta) with n' the contracted vertex count.
    """
    eps_inner = Fraction(epsilon) / 10
    c = 3 * inst.facts["pair_weight"]
    delta = eps_inner * (c / 2) / len(inst.records)
    min_cut_units = 2 * inst.facts["pair_weight"] / delta
    n_eff = inst.n - inst.facts["heavy"]
    return 100 * math.log(n_eff) / float(eps_inner**2 * min_cut_units)


def clique_ring(shape, cliques: int, size: int, k: int = K) -> Instance:
    """A ring of cliques K_size joined by single edges between random members.

    Certificate: with b = 1 edge between neighbouring cliques, cutting k ring
    edges gives k parts of weight k*b.  A k-partition that splits no clique
    cuts the ring of cliques into at least k arcs, paying at least k*b; one
    that splits a clique pays at least its connectivity size - 1 >= k*b.  So
    the optimum is k*b.
    """
    b = 1
    assert k >= 2 and size - 1 >= k * b and cliques >= k
    records = []
    for c in range(cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                records.append((base + i, base + j, 1))
        nxt = ((c + 1) % cliques) * size
        records.append((*_norm(base + shape.randrange(size), nxt + shape.randrange(size)), b))
    return Instance(cliques * size, tuple(records), "multi", k * b)


def clustered_multigraph(
    shape, rng, sizes: tuple[int, int, int], bundles: tuple[int, int, int], reach: int = 2
) -> Instance:
    """Three circulant clusters joined in a ring by heavy cross bundles.

    Cluster i is the circulant C_q(1..reach) (every vertex joined to the next
    ``reach`` around a cycle) with multiplicities in [M, 2M].  For
    q >= 2 reach + 1 its edge connectivity is 2 reach times its lightest
    multiplicity, and M is chosen so that 2 reach M exceeds the total cross
    weight.  ``bundles`` holds the cross weights of the cluster
    pairs (0,1), (1,2), (0,2), each spread over four random records.

    Certificate: every cut that splits a cluster costs more than all bundles
    together, so the optimum 3-cut is the cluster partition, of weight equal
    to the total cross weight; the minimum nontrivial 2-cut isolates the
    cluster with the cheapest pair of incident bundles.
    """
    total_cross = sum(bundles)
    mult = total_cross // (2 * reach) + 1
    clusters, at = [], 0
    for q in sizes:
        clusters.append(list(range(at, at + q)))
        at += q
    records = []
    for cl in clusters:
        q = len(cl)
        assert q >= 2 * reach + 1, "the circulant needs q >= 2 reach + 1"
        for i in range(q):
            for off in range(1, reach + 1):
                records.append((*_norm(cl[i], cl[(i + off) % q]), rng.randint(mult, 2 * mult)))
    for (a, b), weight in zip(((0, 1), (1, 2), (0, 2)), bundles):
        cuts = sorted(rng.sample(range(1, weight), 3))
        for lo, hi in zip([0] + cuts, cuts + [weight]):
            records.append((*_norm(shape.choice(clusters[a]), shape.choice(clusters[b])), hi - lo))
    assert 2 * reach * mult > total_cross, "cluster connectivity must exceed the cross weight"
    incident = [bundles[0] + bundles[2], bundles[0] + bundles[1], bundles[1] + bundles[2]]
    return Instance(
        sum(sizes),
        tuple(records),
        "multi",
        total_cross,
        {"clusters": [frozenset(cl) for cl in clusters], "bundles": bundles, "incident": incident},
    )


def strip_prediction(inst: Instance, epsilon: Fraction) -> tuple[int, int]:
    """What greedy stripping must do on a clustered multigraph.

    The greedy estimate equals the optimum (it isolates the cheapest cluster,
    then cuts the bundle between the other two), so the threshold is
    eps * opt / 2.  Returns (removed weight, minimum nontrivial 2-cut left),
    assuming at most one strip round, which the workloads ensure.
    """
    threshold = Fraction(epsilon) * inst.opt / (K - 1)
    cheapest = min(inst.facts["incident"])
    if cheapest > threshold:
        return 0, cheapest
    rest = inst.opt - cheapest  # the bundle between the two other clusters
    assert rest > threshold, "a second strip round would split the graph into k parts"
    return cheapest, rest


def balanced_bundles(rng, base: int) -> tuple[int, int, int]:
    """Bundles within 25% of each other: no pair of them is cheap enough to
    strip for any epsilon <= 1 (2 * base > 3.75 * base / 2)."""
    return tuple(rng.randint(base, base + base // 4) for _ in range(3))  # type: ignore[return-value]


def skewed_bundles(rng, base: int, epsilon: Fraction) -> tuple[int, int, int]:
    """Two light bundles around cluster 1 and a heavy one between clusters 0
    and 2, heavy enough that isolating cluster 1 is stripped in one round
    and nothing after it: heavy = g * light with g = 2 at eps = 1 and
    g = 4 at eps = 1/2."""
    light = (rng.randint(base // 2, base), rng.randint(base // 2, base))
    gain = 2 if epsilon == 1 else 4
    return (light[0], light[1], gain * sum(light))


def recursive_tree_with_chords(shape, n: int, chords: int) -> Instance:
    """A random recursive tree (vertex v hangs off a uniform earlier vertex)
    plus ``chords`` distinct extra edges; connected and simple."""
    edges = {(shape.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        edges.add(_norm(*shape.sample(range(n), 2)))
    return Instance(n, tuple((u, v, 1) for u, v in sorted(edges)), "multi")
