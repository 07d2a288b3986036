"""The four workloads: which operations a round holds, how each is called,
and how its output is checked.

A round is a fixed list of operations.  Round r draws its graphs' structure
from ``random.Random(f"{workload}:shape:{r}")``, the same for every seed, and
their weights and vertex labels from ``random.Random(f"{workload}:{seed}:{r}")``.
So no two operations of a run solve the same graph, every run attempts whole
rounds of the same operation kinds, and runs with different seeds meet the
same shapes in the same order: the spread between runs is then mostly the
machine's, not the luck of the draw.  Every check is computed by the
benchmark itself from the instance records and the certified optimum; none
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from instances import (
    K,
    Instance,
    balanced_bundles,
    clique_ring,
    clustered_multigraph,
    planted_weighted,
    recursive_tree_with_chords,
    sampled_rate_bound,
    skewed_bundles,
    strip_prediction,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class Op:
    kind: str
    inst: Instance
    call: Callable  # (kcut, graph) -> result; the timed part
    check: Callable  # result -> error message or None


# -- helpers the checks share ------------------------------------------------


def _cut_weight(records, parts) -> int | Fraction:
    label = {v: i for i, part in enumerate(parts) for v in part}
    return sum((w for u, v, w in records if label[u] != label[v]), 0)


def _partition_error(inst: Instance, parts, k: int) -> str | None:
    parts = [set(p) for p in parts]
    if len(parts) != k or any(not p for p in parts):
        return f"partition has {len(parts)} parts, expected {k} nonempty ones"
    seen = set()
    for p in parts:
        if p & seen:
            return "partition parts overlap"
        seen |= p
    if seen != set(range(inst.n)):
        return "partition does not cover the vertex set"
    return None


def _multiset(records) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for u, v, w in records:
        out[(u, v)] = out.get((u, v), 0) + w
    return out


def _sub_multigraph_error(small, big, what: str) -> str | None:
    for pair, w in small.items():
        if w > big.get(pair, 0):
            return f"{what} has multiplicity {w} on {pair}, above {big.get(pair, 0)}"
    return None


# -- scheme-planted ----------------------------------------------------------


def _scheme_op(inst: Instance, epsilon: Fraction, seed: int, sampled: bool) -> Op:
    def call(kcut, g):
        return kcut.solve(g, k=K, epsilon=epsilon, seed=seed)

    def check(res):
        parts = res.partition.parts
        err = _partition_error(inst, parts, K)
        if err:
            return err
        value = _cut_weight(inst.records, parts)
        if value != res.value:
            return f"reported value {res.value} but the partition weighs {value}"
        if not inst.opt <= value <= (1 + epsilon) * inst.opt:
            return f"value {value} outside [opt, (1+eps) opt] with opt {inst.opt}"
        if sampled and not (res.stats.sample_rate is not None and res.stats.sample_rate < 1):
            return f"sampled instance reports sample rate {res.stats.sample_rate}"
        return None

    return Op("sampled" if sampled else "planted", inst, call, check)


def scheme_planted(shape: random.Random, rng: random.Random, rnd: int) -> list[Op]:
    """Three planted graphs that the solver sees with 11 vertices after the
    heavy edges are contracted, at eps = 1/2, and one carried as 150
    parallel records per light pair, at eps = 1, which the scheme samples."""
    ops = [
        _scheme_op(planted_weighted(shape, rng, n, heavy=n - 11).relabeled(rng), HALF, rnd, sampled=False)
        for n in (12, 13, 14)
    ]
    sampled = planted_weighted(shape, rng, 13, heavy=2, parallel=150).relabeled(rng)
    assert sampled_rate_bound(sampled, ONE) < 1, "the instance must be sampled"
    ops.append(_scheme_op(sampled, ONE, rnd, sampled=True))
    return ops


# -- exact-cliques -----------------------------------------------------------


def _exact_op(inst: Instance, s: int) -> Op:
    def call(kcut, g):
        return kcut.solve_exact(g, k=K, s=s, mode="construct")

    def check(res):
        if res.feasible != (s >= inst.opt):
            return f"feasible={res.feasible} at s={s} with opt {inst.opt}"
        if res.feasible:
            parts = res.partition.parts
            err = _partition_error(inst, parts, K)
            if err:
                return err
            value = _cut_weight(inst.records, parts)
            if value > s or value != res.value:
                return f"witness weighs {value}, reported {res.value}, budget {s}"
        return None

    return Op("yes" if s >= inst.opt else "no", inst, call, check)


CLIQUE_RINGS = ((8, 5), (10, 5), (12, 5), (8, 6))


def exact_cliques(shape: random.Random, rng: random.Random, rnd: int) -> list[Op]:
    """Rings of 8-12 cliques of 5-6 vertices, one ring shape per round in
    turn, decided once at s = opt - 1 (no: every family tree runs) and once,
    on another draw, at s = opt (yes: early exit and witness
    reconstruction).  The seed rotates the ring: tree packing breaks ties by
    edge order, so a full shuffle of the labels would change the tree family
    and with it the work from seed to seed."""
    cliques, size = CLIQUE_RINGS[rnd % len(CLIQUE_RINGS)]
    return [_exact_op(clique_ring(shape, cliques, size).relabeled(rng, block=size), s) for s in (K - 1, K)]


# -- sparsify-heavy ----------------------------------------------------------


def _sparsify_op(inst: Instance, epsilon: Fraction, seed: int) -> Op:
    removed, lam = strip_prediction(inst, epsilon)

    def call(kcut, g):
        strip = kcut.strip_cheap_2cuts(g, K, epsilon)
        return strip, kcut.sample_edges(strip.graph, K, epsilon, seed=seed)

    def check(res):
        strip, sample = res
        given = _multiset(inst.records)
        stripped = _multiset(strip.graph.edges)
        err = _sub_multigraph_error(stripped, given, "stripped graph")
        if err:
            return err
        if strip.removed_weight != sum(given.values()) - sum(stripped.values()):
            return f"removed_weight {strip.removed_weight} is not the weight difference"
        if strip.removed_weight != removed or strip.hit_k_components:
            return f"stripping removed {strip.removed_weight}, certified {removed}"
        if not inst.opt <= strip.approx_weight <= 2 * inst.opt:
            return f"approx_weight {strip.approx_weight} outside [opt, 2 opt], opt {inst.opt}"
        err = _sub_multigraph_error(_multiset(sample.graph.edges), stripped, "sample")
        if err:
            return err
        rate = min(ONE, Fraction(100 * math.log(inst.n)) / (epsilon * epsilon * lam))
        if sample.rate != rate or sample.graph.n != inst.n:
            return f"sample rate {sample.rate}, expected {rate} from the certified cut {lam}"
        return None

    return Op("strip" if removed else "keep", inst, call, check)


def sparsify_heavy(shape: random.Random, rng: random.Random, rnd: int) -> list[Op]:
    """Clustered multigraphs, n = 60-105: balanced bundles (nothing is
    stripped) and skewed ones (one cluster is stripped off), at eps = 1/2
    and eps = 1."""
    shapes = (
        ((20, 20, 20), HALF, False),
        ((25, 25, 25), ONE, True),
        ((30, 30, 30), ONE, False),
        ((35, 35, 35), HALF, True),
    )
    ops = []
    for sizes, eps, skewed in shapes:
        bundles = skewed_bundles(rng, 1000, eps) if skewed else balanced_bundles(rng, 2000)
        inst = clustered_multigraph(shape, rng, sizes, bundles).relabeled(rng)
        ops.append(_sparsify_op(inst, eps, rnd))
    return ops


# -- decompose-sparse --------------------------------------------------------


def _decompose_op(inst: Instance, s: int) -> Op:
    def call(kcut, g):
        return kcut.build_unbreakable_decomposition(g, s)

    def check(td):
        bags, parent = td.bags, td.parent
        if sum(1 for p in parent if p == -1) != 1:
            return "decomposition has no single root"
        if set().union(*bags) != set(range(inst.n)):
            return "bags do not cover the vertex set"
        for u, v, _ in inst.records:
            if not any(u in b and v in b for b in bags):
                return f"edge ({u},{v}) lies in no bag"
        for v in range(inst.n):
            tops = [t for t, b in enumerate(bags) if v in b and (parent[t] == -1 or v not in bags[parent[t]])]
            if len(tops) != 1:
                return f"the bags holding vertex {v} are not a connected subtree"
        for t, p in enumerate(parent):
            if p != -1 and len(bags[t] & bags[p]) > s:
                return f"adhesion of node {t} exceeds s={s}"
        return None

    return Op(f"s{s}", inst, call, check)


def decompose_sparse(shape: random.Random, rng: random.Random, rnd: int) -> list[Op]:
    """Random recursive trees plus chords: n = 20-22 at s = 1, n = 30-34 at
    s = 2.  The witness search stops at the first witness, and which comes
    first depends on the labels, so one decomposition's time varies about
    twofold from seed to seed; these sizes (0.1-0.6 s each) let a run hold
    about a hundred of them."""
    shapes = ((20, 3, 1), (22, 3, 1), (30, 4, 2), (34, 5, 2))
    return [_decompose_op(recursive_tree_with_chords(shape, n, c).relabeled(rng), s) for n, c, s in shapes]


WORKLOADS: dict[str, Callable[[random.Random, random.Random, int], list[Op]]] = {
    "scheme-planted": scheme_planted,
    "exact-cliques": exact_cliques,
    "sparsify-heavy": sparsify_heavy,
    "decompose-sparse": decompose_sparse,
}
