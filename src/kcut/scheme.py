"""End-to-end (1+epsilon) minimum k-cut approximation.

Pipeline: estimate the optimum with the greedy 2-approximation, round the
weighted instance to a multigraph, strip cheap 2-cuts, subsample edges, run
the exact tree-packing solver per sampled component, and recombine the
components with a small knapsack.  The returned value is always the true
recomputed weight of the returned partition; the internal scaled estimate is
only reported in the stats.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cuts import ORACLE_ENUM_LIMIT, approx2_kcut, merge_to_k_parts, oracle_exact_kcut, to_integer_multigraph
from .dp import exact_values
from .graph import (
    WEIGHTED,
    InvalidInputError,
    MultiGraph,
    Num,
    Partition,
    connected_components,
    cut_weight,
    round_to_multigraph,
)
from .sparsify import sample_edges, strip_cheap_2cuts


class SchemeStageError(RuntimeError):
    """A pipeline stage rejected its input; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except InvalidInputError as exc:
        raise SchemeStageError(f"{name} stage failed: {exc}") from exc


@dataclass(frozen=True)
class SchemeStats:
    branch: str
    epsilon: Fraction
    epsilon_inner: Fraction | None = None
    stripped_weight: int | None = None
    sample_rate: Fraction | None = None
    inverse_rate: Fraction | None = None
    s_star: int | None = None
    sweep_cap: int | None = None
    estimate: Fraction | None = None
    components: int | None = None
    trees_used: int = 0
    dp_states: int = 0


@dataclass(frozen=True)
class SchemeResult:
    partition: Partition
    value: Num
    stats: SchemeStats

    def __post_init__(self):
        assert not self.partition.is_empty()


def sweep_cap(n: int, k: int, eps_inner: Fraction) -> int:
    """Upper bound on the sampled optimum, driving the exact sweep."""
    raw = (1 + eps_inner) * Fraction(100 * math.log(max(n, 2))) * (k - 1) / eps_inner**3
    return math.ceil(raw) + 1


def combine_components(tables: Sequence[dict[int, Num]], k: int) -> tuple[tuple[int, ...], Num] | None:
    """Distribute k parts over components minimizing the total cut value.

    ``tables[c][j]`` is the best value of a j-cut of component c.  Every
    component takes at least one part.  Returns (parts per component, total)
    or None when no distribution exists.
    """
    if k < len(tables):
        return None
    best: dict[int, tuple[Num, tuple[int, ...]]] = {0: (0, ())}
    for tab in tables:
        nxt: dict[int, tuple[Num, tuple[int, ...]]] = {}
        for used, (val, picks) in best.items():
            for j, v in tab.items():
                if used + j > k:
                    continue
                cand = val + v
                cur = nxt.get(used + j)
                if cur is None or cand < cur[0]:
                    nxt[used + j] = (cand, picks + (j,))
        best = nxt
        if not best:
            return None
    got = best.get(k)
    return None if got is None else (got[1], got[0])


def _as_weighted(g: MultiGraph) -> MultiGraph:
    if g.mode == WEIGHTED:
        return g
    return MultiGraph.weighted(g.n, [(u, v, Fraction(w)) for u, v, w in g.edges])


def solve(g: MultiGraph, k: int, epsilon: Num, seed: int = 0) -> SchemeResult:
    """(1 + epsilon)-approximate minimum k-cut with witness partition.

    Deterministic for a fixed seed.  The partition always has exactly k
    parts and the reported value is its true weight in the input graph.
    An epsilon above 10 runs the stages at epsilon = 10, whose bound
    already meets it.
    """
    if not 1 <= k <= g.n:
        raise InvalidInputError("k must lie between 1 and the vertex count")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    gw = _as_weighted(g)
    n = g.n

    with _stage("estimate"):
        approx, w_a = approx2_kcut(gw, k)
    if w_a == 0:
        # The positive-weight edges leave at least k components; the
        # greedy's parts are those components merged down to k.
        return SchemeResult(approx, w_a, SchemeStats(branch="components", epsilon=epsilon))

    if epsilon < Fraction(1, n):
        return _solve_exactly(gw, k, epsilon)

    eps_inner = min(epsilon, Fraction(10)) / 10
    lower = Fraction(w_a) / 2
    with _stage("rounding"):
        rounded = round_to_multigraph(gw, eps_inner, lower)
    gstar = rounded.graph
    assert gstar.n >= k, "heavy contraction never merges an optimal separation"

    with _stage("stripping"):
        strip = strip_cheap_2cuts(gstar, k, eps_inner)
    g1 = strip.graph
    shared = dict(epsilon=epsilon, epsilon_inner=eps_inner, stripped_weight=strip.removed_weight)
    if strip.hit_k_components:
        parts = merge_to_k_parts(connected_components(g1).parts, k)
        partition = rounded.lift_partition(Partition.from_parts(parts))
        estimate = Fraction(strip.removed_weight) * rounded.scale
        stats = SchemeStats(branch="strip", **shared, estimate=estimate)
        return SchemeResult(partition, cut_weight(gw, partition), stats)

    # Rounding may have contracted heavy edges, so the sampling stage's
    # precondition is checked against the graph it actually receives.
    if eps_inner > Fraction(1, g1.n):
        with _stage("sampling"):
            sample = sample_edges(g1, k, eps_inner, seed=seed)
        g2, rate, inv_rate = sample.graph, sample.rate, sample.inverse_rate
    else:
        # Inner epsilon below the sampling stage's precondition; the capped
        # rate would be 1 in all but pathological cases, so skip sampling.
        g2, rate, inv_rate = g1, Fraction(1), Fraction(1)
    cap = sweep_cap(n, k, eps_inner)
    shared.update(sample_rate=rate, inverse_rate=inv_rate, sweep_cap=cap)

    comps2 = connected_components(g2)
    dp_stats: dict = {}
    with _stage("exact"):
        swept = _exact_sweep(g2, comps2, k, cap, dp_stats)
    if swept is None:
        # Sampling failure: the sample has more than k components, or no
        # distribution of k parts fits the sweep cap.
        return SchemeResult(approx, w_a, SchemeStats(branch="fallback", **shared))
    sampled, total = swept
    partition = rounded.lift_partition(sampled)
    assert len(partition) == k
    value = cut_weight(gw, partition)
    estimate = (Fraction(total) * inv_rate + strip.removed_weight) * rounded.scale
    stats = SchemeStats(
        branch="main",
        **shared,
        s_star=int(total),
        estimate=estimate,
        components=len(comps2),
        trees_used=dp_stats.get("trees", 0),
        dp_states=dp_stats.get("states", 0),
    )
    return SchemeResult(partition, value, stats)


def _exact_sweep(
    h: MultiGraph, comps: Partition, k: int, cap: int, stats_out: dict | None = None
) -> tuple[Partition, int] | None:
    """Exact minimum cuts of every component of h for 1..k parts, at
    budget ``cap``, then the cheapest distribution of k parts
    over the components.  Returns that partition in h's labels with its
    total, or None if none fits the cap."""
    tables: list[dict[int, int]] = []
    witnesses: list[tuple[list[int], list]] = []
    for part in comps.parts:
        sub, labels = h.induced_subgraph(part)
        vec = exact_values(sub, min(k, sub.n), cap, stats_out=stats_out)
        tables.append({j: v for j, (v, _) in enumerate(vec) if v is not None})
        witnesses.append((labels, vec))
    combo = combine_components(tables, k)
    if combo is None:
        return None
    picks, total = combo
    parts = [
        frozenset(labels[v] for v in part)
        for (labels, vec), j in zip(witnesses, picks)
        for part in vec[j][1].parts
    ]
    return Partition.from_parts(parts), total


def _solve_exactly(gw: MultiGraph, k: int, epsilon: Fraction) -> SchemeResult:
    """Exact path for epsilon below 1/n."""
    if gw.n <= ORACLE_ENUM_LIMIT:
        partition, value = oracle_exact_kcut(gw, k)
        return SchemeResult(partition, value, SchemeStats(branch="exact-oracle", epsilon=epsilon))
    h, scale = to_integer_multigraph(gw)
    # cc < k here, but the graph may still be disconnected; solve per
    # component and recombine through the knapsack.
    swept = _exact_sweep(h, connected_components(h), k, h.total_weight())
    assert swept is not None, "an uncapped exact sweep always succeeds"
    partition, total = swept
    value = cut_weight(gw, partition)
    assert Fraction(value) == Fraction(total) * scale
    return SchemeResult(partition, value, SchemeStats(branch="exact-dp", epsilon=epsilon))
