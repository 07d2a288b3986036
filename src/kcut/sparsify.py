"""Two-stage sparsification: strip cheap nontrivial 2-cuts greedily, then
subsample edges at a rate tied to the remaining minimum 2-cut.

After both stages the optimum k-cut of the sample is, with high probability,
a (1 +- epsilon) scaled image of the original optimum, and its absolute size
is only logarithmic, which is what makes the exact solver affordable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cuts import _approx2_kcut, _min_cut_value, _min_nontrivial_2cut
from .graph import (
    MULTI,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Num,
    cc,
    connected_components,
)


@dataclass(frozen=True)
class StripResult:
    """Outcome of the greedy 2-cut stripping stage.

    ``removed_weight`` counts removed multiplicity; it never exceeds twice
    ``epsilon`` times the optimum because each of the at most ``k - 1``
    rounds removes at most ``epsilon * w_a / (k - 1)`` edges and the greedy
    estimate ``w_a`` is at most twice the optimum.
    """

    graph: MultiGraph
    removed_weight: int
    hit_k_components: bool
    iterations: int
    approx_weight: int
    threshold: Fraction


@dataclass(frozen=True)
class SampleResult:
    """A Bernoulli edge sample together with its exact rate bookkeeping."""

    graph: MultiGraph
    rate: Fraction
    inverse_rate: Fraction
    min_cut_order: int

    def __post_init__(self):
        assert self.inverse_rate * self.rate == 1


def strip_cheap_2cuts(g: MultiGraph, k: int, epsilon: Num) -> StripResult:
    """Remove all edges of cheap nontrivial 2-cuts until none remain.

    Loops while the graph has fewer than k components and its minimum
    nontrivial 2-cut costs at most ``epsilon * w_a / (k - 1)``; each round
    removes the crossing edges of one such cut.  Deterministic.
    """
    if g.mode != MULTI:
        raise InvalidInputError("stripping expects an unweighted multigraph")
    if k < 2:
        raise InvalidInputError("stripping needs k >= 2")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise InvalidInputError("epsilon must lie in (0, 1]")
    if cc(g) >= k:
        raise InvalidInputError("graph already has at least k components")

    # Minimum cuts of component subgraphs, shared by the estimate and every
    # round: the first round meets the whole graph again, later rounds the
    # components the estimate already cut.
    memo: dict[MultiGraph, EdgeCut] = {}
    _, w_a = _approx2_kcut(g, k, memo)
    threshold = epsilon * Fraction(w_a) / (k - 1)
    current = g
    removed = 0
    iterations = 0
    while cc(current) < k:
        cut = _min_nontrivial_2cut(current, memo)
        if cut is None or cut.order > threshold:
            break
        crossing = set()
        for i, (u, v, _) in enumerate(current.edges):
            if (u in cut.side_a) != (v in cut.side_a):
                crossing.add(i)
        removed += sum(w for i, (_, _, w) in enumerate(current.edges) if i in crossing)
        current = MultiGraph(
            current.n,
            tuple(e for i, e in enumerate(current.edges) if i not in crossing),
            MULTI,
        )
        iterations += 1
        assert iterations <= k - 1, "each removal adds a component"
    return StripResult(
        graph=current,
        removed_weight=removed,
        hit_k_components=cc(current) >= k,
        iterations=iterations,
        approx_weight=int(w_a),
        threshold=threshold,
    )


def sampling_rate(g1: MultiGraph, epsilon: Num) -> tuple[Fraction, int]:
    """The keep-probability ``min(1, 100 ln n / (eps^2 * mincut))``.

    ``mincut`` is the order of the nontrivial minimum 2-cut of ``g1``: the
    least Stoer–Wagner value over the components that have edges.  Only the
    order is needed, so no cut side is computed.  An edgeless graph gives
    rate 1 and order 0.  Logarithms are natural; the float value is
    converted exactly to a Fraction so that all later scaling stays
    deterministic and exact.
    """
    epsilon = Fraction(epsilon)
    orders = [
        _min_cut_value(g1.induced_subgraph(part)[0])
        for part in connected_components(g1).parts
        if len(part) > 1
    ]
    if not orders:
        return Fraction(1), 0
    order = min(orders)
    raw = Fraction(100 * math.log(g1.n)) / (epsilon * epsilon * order)
    return min(Fraction(1), raw), order


def sample_edges(g1: MultiGraph, k: int, epsilon: Num, seed: int = 0) -> SampleResult:
    """Keep every unit of multiplicity independently with probability p.

    Requires ``1/n < epsilon <= 1``; smaller epsilon must be routed to an
    exact solver by the caller.  When the computed rate reaches 1 the sample
    is the input graph itself.  Bit-for-bit reproducible for a fixed seed:
    units are visited in canonical edge order on one seeded stream.
    """
    if g1.mode != MULTI:
        raise InvalidInputError("sampling expects an unweighted multigraph")
    epsilon = Fraction(epsilon)
    if not Fraction(1, max(g1.n, 1)) < epsilon <= 1:
        raise InvalidInputError("epsilon must lie in (1/n, 1]")
    if cc(g1) >= k:
        raise InvalidInputError("graph already has at least k components")

    p, order = sampling_rate(g1, epsilon)
    if p >= 1:
        return SampleResult(g1, Fraction(1), Fraction(1), order)
    rng = random.Random(seed)
    thresh = float(p)
    kept_edges = []
    for u, v, mult in sorted(g1.edges):
        kept = sum(1 for _ in range(mult) if rng.random() < thresh)
        if kept:
            kept_edges.append((u, v, kept))
    return SampleResult(MultiGraph(g1.n, tuple(kept_edges), MULTI), p, 1 / p, order)
