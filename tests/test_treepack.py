import random

import pytest

from kcut.cuts import oracle_exact_kcut
from kcut.graph import InvalidInputError, MultiGraph, Partition
from kcut.treepack import _spanning_tree_count, enumerate_spanning_trees, pack_trees

from conftest import connected_multigraph
from reference import crossings


def cycle(n):
    return MultiGraph.multi(n, [(i, (i + 1) % n) for i in range(n)])


def random_connected(rng, n_max=8, extra=5):
    n = rng.randint(3, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.multi(n, [(min(u, v), max(u, v)) for u, v in edges])


def is_spanning_tree(g, tree):
    if len(tree) != g.n - 1:
        return False
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in tree:
        u, v, _ = g.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TestPackTrees:
    def test_tree_input(self):
        g = MultiGraph.multi(4, [(0, 1), (1, 2), (2, 3)])
        fam = pack_trees(g, 5)
        assert len(fam) == 1
        assert fam.trees[0] == (0, 1, 2)

    def test_c4_two_edge_disjoint(self):
        fam = pack_trees(cycle(4), 2)
        assert len(fam) == 2
        assert not (set(fam.trees[0]) & set(fam.trees[1])) or fam.trees[0] != fam.trees[1]

    def test_all_members_spanning(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_connected(rng)
            fam = pack_trees(g, 6)
            for t in fam.trees:
                assert is_spanning_tree(g, t)

    def test_disconnected_rejected(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidInputError):
            pack_trees(g, 2)

    @pytest.mark.parametrize("weights", [(0, 0), (1, 2)])
    def test_weighted_rejected(self, weights):
        g = MultiGraph.weighted(3, [(0, 1, weights[0]), (1, 2, weights[1])])
        with pytest.raises(InvalidInputError, match="unweighted multigraph"):
            pack_trees(g, 2)


class TestEnumeration:
    def test_cycle_count(self):
        # A cycle on n vertices has exactly n spanning trees.
        fam = enumerate_spanning_trees(cycle(5))
        assert len(fam) == 5

    def test_k4_count(self):
        g = MultiGraph.multi(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert len(enumerate_spanning_trees(g)) == 16  # Cayley: 4^2

    def test_parallel_copies_share_one_class(self):
        g = MultiGraph.multi(2, [(0, 1, 1), (0, 1, 1)])
        assert g.edges == ((0, 1, 2),)
        assert len(enumerate_spanning_trees(g)) == 1

    def test_cap(self):
        g = MultiGraph.multi(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
        fam = enumerate_spanning_trees(g, cap=100)
        assert len(fam) == 100

    def test_all_valid_and_distinct(self):
        rng = random.Random(4)
        for _ in range(15):
            g = random_connected(rng, n_max=7)
            fam = enumerate_spanning_trees(g)
            assert len(set(fam.trees)) == len(fam)
            for t in fam.trees:
                assert is_spanning_tree(g, t)

    def test_long_path(self):
        # One include/exclude decision per edge class: deeper than Python's
        # default recursion limit.
        g = MultiGraph.multi(1500, [(i, i + 1) for i in range(1499)])
        assert enumerate_spanning_trees(g).trees == (tuple(range(1499)),)

    def test_increasing_order_and_count(self):
        for seed in range(30):
            g = connected_multigraph(seed, n_lo=2, n_hi=8, extra_hi=10)
            for cap in (5, 5000):
                fam = enumerate_spanning_trees(g, cap=cap)
                assert all(a < b for a, b in zip(fam.trees, fam.trees[1:])), (seed, cap)
                assert len(fam) == min(cap, _spanning_tree_count(g)), (seed, cap)


class TestCrossings:
    def test_single_part(self):
        assert crossings([(0, 1), (1, 2)], Partition.from_parts([[0, 1, 2]])) == 0

    def test_path_prefix_suffix(self):
        p = Partition.from_parts([[0, 1], [2, 3]])
        assert crossings([(0, 1), (1, 2), (2, 3)], p) == 1

    def test_star_isolated_leaves(self):
        star = [(0, i) for i in range(1, 5)]
        for j in range(1, 5):
            parts = [[v] for v in range(1, j + 1)] + [[0] + list(range(j + 1, 5))]
            assert crossings(star, Partition.from_parts(parts)) == j


class TestTTreeGuarantee:
    def test_exhaustive_family_contains_low_crossing_tree(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_connected(rng, n_max=7, extra=6)
            k = rng.choice([2, 3])
            if k > g.n:
                continue
            opt_part, _ = oracle_exact_kcut(g, k)
            fam = enumerate_spanning_trees(g)
            best = min(crossings(fam.tree_edges(i), opt_part) for i in range(len(fam)))
            assert best <= 2 * k - 2


def fraction_keyed_pack(g, count):
    """The trees of the packer as first written, with Fraction-valued usage
    costs; the loads stay inside."""
    from fractions import Fraction

    from kcut.graph import uf_union

    loads = [0] * g.m
    seen, trees = set(), []
    for _ in range(count):
        order = sorted(range(g.m), key=lambda e: (Fraction(loads[e], g.edges[e][2]), e))
        parent = list(range(g.n))
        tree = [e for e in order if uf_union(parent, g.edges[e][0], g.edges[e][1])]
        key = tuple(sorted(tree))
        for e in tree:
            loads[e] += 1
        if key not in seen:
            seen.add(key)
            trees.append(key)
    return tuple(trees)


class TestIntegerCosts:
    def test_matches_fraction_keyed_packing(self):
        # Integer costs scaled by the lcm of the multiplicities order edges
        # exactly as the Fraction costs do, ties included.
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(3, 30)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(range(n), 2)
                edges.append((min(u, v), max(u, v)))
            g = MultiGraph.multi(n, [(u, v, rng.randint(1, 6)) for u, v in edges])
            fam = pack_trees(g, 40)
            assert fam.trees == fraction_keyed_pack(g, 40)
