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

from .cuts import _greedy_splits, _min_cut_value
from .graph import MULTI, InvalidInputError, MultiGraph, Num, cc, connected_components


@dataclass(frozen=True)
class StripResult:
    """Outcome of the greedy 2-cut stripping stage.

    ``iterations`` is the number of the greedy 2-approximation's splits that
    were stripped, and ``removed_weight`` the sum of their orders.  It never
    exceeds twice ``epsilon`` times the optimum because each of the at most
    ``k - 1`` stripped splits costs at most ``epsilon * w_a / (k - 1)`` and
    the greedy estimate ``w_a``, the sum of all its splits' orders, is at
    most twice the optimum.
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

    Runs the greedy splitting 2-approximation once; ``w_a`` is the sum of
    its splits' orders.  Strips the longest prefix of its splits whose
    orders are at most ``epsilon * w_a / (k - 1)`` by dropping every edge
    between that prefix's parts.  Removing the minimum nontrivial 2-cut
    while it is that cheap and fewer than k components exist does the same:
    after j removals the components are the greedy's parts after j splits,
    and the next minimum nontrivial 2-cut is split j+1.  Deterministic.
    """
    if g.mode != MULTI:
        raise InvalidInputError("stripping expects an unweighted multigraph")
    if k < 2:
        raise InvalidInputError("stripping needs k >= 2")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= 1:
        raise InvalidInputError("epsilon must lie in (0, 1]")
    _, splits = _greedy_splits(g, k)
    if not splits:
        raise InvalidInputError("graph already has at least k components")

    w_a = sum(order for order, _ in splits)
    threshold = epsilon * Fraction(w_a) / (k - 1)
    # A vertex's label is the last stripped split whose side holds it.  Each
    # side lies inside one part of the splits before it, so two vertices of
    # one component share a label exactly when they share a part after the
    # prefix; no edge joins two components.
    label = [0] * g.n
    iterations = 0
    for order, side in splits:
        if order > threshold:
            break
        iterations += 1
        for v in side:
            label[v] = iterations
    stripped = MultiGraph(g.n, tuple(e for e in g.edges if label[e[0]] == label[e[1]]), MULTI)
    removed = sum(order for order, _ in splits[:iterations])
    assert removed == g.total_weight() - stripped.total_weight()
    return StripResult(
        graph=stripped,
        removed_weight=removed,
        hit_k_components=iterations == len(splits),
        iterations=iterations,
        approx_weight=w_a,
        threshold=threshold,
    )


def sampling_rate(g1: MultiGraph, epsilon: Num) -> tuple[Fraction, int]:
    """The keep-probability ``min(1, 100 ln n / (eps^2 * mincut))``.

    ``mincut`` is the order of the nontrivial minimum 2-cut of ``g1``: the
    least minimum cut over the components that have edges, each found by
    Nagamochi–Ibaraki contraction.  Only the order is needed, so no cut side
    and no flow is computed.  An edgeless graph gives rate 1 and order 0.
    Logarithms are natural; the float value is converted exactly to a
    Fraction so that all later scaling stays deterministic and exact.
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


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate drawn through ``rng.random``.

    A port of CPython 3.12's ``random.Random.binomialvariate`` (3.13's is the
    same code) that consumes the same draws and returns the same values, so
    it can give way to ``rng.binomialvariate`` once Python 3.12 is the
    minimum.  Below n*p = 10 it counts geometric gaps between successes
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X); above, it
    uses BTRS, transformed rejection with squeeze (Hörmann, "The generation
    of binomial random variates", J. Stat. Comput. Simul. 46, 1993).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if p <= 0.0 or p >= 1.0:
        if p == 0.0:
            return 0
        if p == 1.0:
            return n
        raise ValueError("p must be in the range 0.0 <= p <= 1.0")

    rand = rng.random
    if n == 1:
        return int(rand() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(rand()) / c) + 1
            if y > n:
                return x
            x += 1

    setup_complete = False
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    while True:
        u = rand()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rand()
        if us >= 0.07 and v <= vr:
            return k  # squeeze: accepted without evaluating the pmf
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)  # the mode
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def sample_edges(g1: MultiGraph, k: int, epsilon: Num, seed: int = 0) -> SampleResult:
    """Keep every unit of multiplicity independently with probability p.

    How many of an edge's ``mult`` units stay is one Binomial(mult, p) draw,
    which has the law of ``mult`` independent Bernoulli(p) trials.
    Requires ``1/n < epsilon <= 1``; smaller epsilon must be routed to an
    exact solver by the caller.  When the computed rate reaches 1 the sample
    is the input graph itself.  Bit-for-bit reproducible for a fixed seed:
    one binomial draw per edge in canonical edge order on one seeded stream.
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
        kept = _binomial(rng, mult, thresh)
        if kept:
            kept_edges.append((u, v, kept))
    return SampleResult(MultiGraph(g1.n, tuple(kept_edges), MULTI), p, 1 / p, order)
