import itertools
from fractions import Fraction

import pytest

from kcut.graph import (
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Partition,
    connected_components,
    cut_weight,
    read_graph,
    round_to_multigraph,
    write_graph,
)


def triangle():
    return MultiGraph.multi(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    return MultiGraph.multi(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def all_partitions(ground):
    """Brute-force enumeration of all set partitions of `ground`."""
    ground = list(ground)
    if not ground:
        yield Partition.empty()
        return
    first, rest = ground[0], ground[1:]
    for sub in all_partitions_lists(rest):
        for i in range(len(sub)):
            yield Partition.from_parts(sub[:i] + [sub[i] + [first]] + sub[i + 1 :])
        yield Partition.from_parts(sub + [[first]])


def all_partitions_lists(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions_lists(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [first]] + sub[i + 1 :]
        yield sub + [[first]]


class TestMultiGraph:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            MultiGraph.multi(2, [(0, 0)])
        with pytest.raises(InvalidInputError):
            MultiGraph.multi(2, [(0, 2)])
        with pytest.raises(InvalidInputError):
            MultiGraph.multi(2, [(0, 1, 0)])
        with pytest.raises(InvalidInputError):
            MultiGraph.weighted(2, [(0, 1, Fraction(-1))])

    def test_parallel_records_merge(self):
        g = MultiGraph.multi(2, [(0, 1, 2), (0, 1, 1)])
        assert g.m == 1
        assert g.edges == ((0, 1, 3),)
        # Weighted records stay separate.
        h = MultiGraph.weighted(2, [(0, 1, 2), (0, 1, 1)])
        assert h.m == 2

    def test_endpoints_canonicalized(self):
        g = MultiGraph.multi(3, [(2, 0)])
        assert g.edges == ((0, 2, 1),)


class TestCutWeight:
    def test_triangle_split(self):
        p = Partition.from_parts([[0], [1, 2]])
        assert cut_weight(triangle(), p) == 2

    def test_single_part_crosses_nothing(self):
        p = Partition.from_parts([[0, 1, 2]])
        assert cut_weight(triangle(), p) == 0

    def test_k4_balanced(self):
        # Of the 6 edges of K4 exactly the 4 between {0,1} and {2,3} cross.
        expected = sum(
            1 for a, b in itertools.combinations(range(4), 2) if (a in (0, 1)) != (b in (0, 1))
        )
        p = Partition.from_parts([[0, 1], [2, 3]])
        assert cut_weight(k4(), p) == expected == 4

    def test_induced_convention(self):
        # Edges leaving the ground set are ignored.
        p = Partition.from_parts([[0], [1]])
        assert cut_weight(triangle(), p) == 1

    def test_halved_sum_identity(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 7)
            edges = []
            for _ in range(rng.randint(1, 12)):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, rng.randint(1, 3)))
            g = MultiGraph.multi(n, edges)
            for p in itertools.islice(all_partitions(range(n)), 40):
                total = sum(EdgeCut.of(g, part).order for part in p.parts)
                assert cut_weight(g, p) * 2 == total


class TestConnectedComponents:
    def test_edgeless(self):
        p = connected_components(MultiGraph.multi(3, []))
        assert len(p) == 3

    def test_path(self):
        p = connected_components(MultiGraph.multi(4, [(0, 1), (1, 2), (2, 3)]))
        assert len(p) == 1

    def test_two_triangles(self):
        g = MultiGraph.multi(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = connected_components(g)
        assert sorted(len(q) for q in p.parts) == [3, 3]


class TestRounding:
    def test_exact_multiples(self):
        g = MultiGraph.weighted(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1))])
        res = round_to_multigraph(g, Fraction(1), Fraction(1))
        # delta = 1 * 1 / 2; both weights are exact multiples of it.
        assert res.scale == Fraction(1, 2)
        assert sorted(w for _, _, w in res.graph.edges) == [1, 2]

    def test_single_edge_formula(self):
        g = MultiGraph.weighted(2, [(0, 1, Fraction(1))])
        res = round_to_multigraph(g, Fraction(1, 2), Fraction(1))
        assert res.scale == Fraction(1, 2)
        assert res.graph.edges == ((0, 1, 2),)

    def test_heavy_edge_contracted(self):
        g = MultiGraph.weighted(3, [(0, 1, Fraction(5)), (1, 2, Fraction(1))])
        res = round_to_multigraph(g, Fraction(1, 2), Fraction(1))
        assert res.graph.n == 2
        assert res.vertex_map[0] == res.vertex_map[1]
        lifted = res.lift_partition(Partition.from_parts([v] for v in range(res.graph.n)))
        assert frozenset([0, 1]) in lifted.parts

    def test_partition_error_bound_exhaustive(self):
        import random

        rng = random.Random(3)
        for trial in range(20):
            n = rng.randint(3, 6)
            k = rng.randint(2, 3)
            edges = []
            for _ in range(rng.randint(n - 1, 10)):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, Fraction(rng.randint(1, 40), rng.randint(1, 7))))
            g = MultiGraph.weighted(n, edges)
            from kcut.cuts import oracle_exact_kcut

            _, opt = oracle_exact_kcut(g, k)
            if opt == 0:
                continue
            eps = Fraction(1, 2)
            lb = Fraction(opt) / 2 if opt else Fraction(1)
            res = round_to_multigraph(g, eps, lb)
            budget = eps * lb
            for p in all_partitions(range(g.n)):
                if len(p) != k:
                    continue
                contracted_parts = [
                    frozenset(res.vertex_map[v] for v in part) for part in p.parts
                ]
                if len({f for q in contracted_parts for f in q}) != res.graph.n:
                    continue
                if any(a & b for a, b in itertools.combinations(contracted_parts, 2)):
                    continue  # partition merged by a contraction
                q = Partition.from_parts(contracted_parts)
                w_true = cut_weight(g, p)
                w_round = cut_weight(res.graph, q) * res.scale
                assert w_true <= w_round <= w_true + budget

    def test_invalid_inputs(self):
        g = MultiGraph.weighted(2, [(0, 1, Fraction(1))])
        with pytest.raises(InvalidInputError):
            round_to_multigraph(g, Fraction(0), 1)
        with pytest.raises(InvalidInputError):
            round_to_multigraph(g, Fraction(1, 2), 0)


class TestEdgeListFormat:
    def test_round_trip_multi(self):
        g = MultiGraph.multi(4, [(0, 1, 2), (1, 2, 1), (0, 3, 5)])
        assert read_graph(write_graph(g)) == g

    def test_round_trip_weighted(self):
        g = MultiGraph.weighted(3, [(0, 1, Fraction(22, 7)), (1, 2, Fraction(3))])
        assert read_graph(write_graph(g)) == g
        assert write_graph(read_graph(write_graph(g))) == write_graph(g)

    def test_comments_and_errors(self):
        text = "# generated\np 3 1 multi\n0 1 4\n"
        g = read_graph(text)
        assert g.edges == ((0, 1, 4),)
        with pytest.raises(InvalidInputError, match="line 2"):
            read_graph("p 3 1 multi\n0 1\n")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_graph("q 3 1 multi\n")
