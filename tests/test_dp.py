import itertools
import random

import pytest

from kcut.cuts import oracle_exact_kcut
from kcut.decomposition import TreeDecomposition, build_unbreakable_decomposition
from kcut.dp import (
    NiceDecomposition,
    Partition,
    TreeCutDP,
    _Engine,
    compute_state,
    cut_guess_value,
    exact_values,
    feasible_family,
    knapsack_value,
    nice_decompositions,
    project_tree,
    solve_exact,
)
from kcut.graph import InvalidInputError, MultiGraph, cut_weight
from kcut.treepack import enumerate_spanning_trees, pack_trees

from conftest import connected_multigraph


def path_graph(n):
    return MultiGraph.multi(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return MultiGraph.multi(n, [(i, (i + 1) % n) for i in range(n)])


def random_connected(rng, n_max=8, extra=5, mult_max=2):
    n = rng.randint(3, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.multi(
        n, [(min(u, v), max(u, v), rng.randint(1, mult_max)) for u, v in edges]
    )


def random_tree(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


def canon(p: Partition):
    return tuple(sorted(tuple(sorted(q)) for q in p.parts))


class TestConstants:
    def test_budget_formulas(self):
        from kcut.dp import avoid_budget, guess_budget, tau_big

        assert guess_budget(3) == 4
        assert tau_big(2, 1) == 4 * 32
        assert avoid_budget(2, 1) == 2 * 3 * (128 + 2)


class TestProjectTree:
    def test_path_smoothing(self):
        pt = project_tree([(0, 1), (1, 2), (2, 3)], [0, 3])
        assert pt.vertices == {0, 3}
        assert len(pt.edges) == 1
        assert pt.edges[0].path == (0, 1, 2, 3)

    def test_identity_on_full_set(self):
        tree = [(0, 1), (1, 2), (1, 3)]
        pt = project_tree(tree, [0, 1, 2, 3])
        assert pt.vertices == {0, 1, 2, 3}
        assert len(pt.edges) == 3

    def test_spider_center_kept(self):
        spider = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
        pt = project_tree(spider, [4, 5, 6])
        assert pt.vertices == {0, 4, 5, 6}
        assert len(pt.edges) == 3

    def test_invariants_random(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 50)
            tree = random_tree(rng, n)
            x = rng.sample(range(n), rng.randint(1, n))
            pt = project_tree(tree, x)
            assert set(x) <= pt.vertices
            assert len(pt.vertices) <= 2 * len(x)
            deg = {v: 0 for v in pt.vertices}
            for e in pt.edges:
                deg[e.u] += 1
                deg[e.v] += 1
            for v in pt.vertices:
                if deg[v] <= 2:
                    assert v in pt.x


class TestFeasibleFamily:
    def test_empty_hub(self):
        fam = feasible_family(project_tree([(0, 1)], []), 2)
        assert len(fam.partitions) == 1
        assert fam.partitions[0] == Partition.empty()

    def test_single_edge_k2(self):
        fam = feasible_family(project_tree([(0, 1)], [0, 1]), 2)
        got = {canon(p) for p in fam.partitions}
        assert got == {((0,), (1,)), ((0, 1),)}

    def test_projection_equals_full_tree(self):
        # The family computed on the projection must equal the family
        # computed on the unprojected tree.
        rng = random.Random(8)
        for _ in range(12):
            n = rng.randint(3, 10)
            tree = random_tree(rng, n)
            k = rng.choice([2, 3])
            x = rng.sample(range(n), rng.randint(1, min(4, n)))
            via_proj = {canon(p) for p in feasible_family(project_tree(tree, x), k).partitions}
            via_full = {canon(p) for p in feasible_family(_identity_projection(tree, x), k).partitions}
            assert via_proj == via_full


def _identity_projection(tree, x):
    """The tree as its own projection, hubs x; bypasses smoothing."""
    from kcut.dp import ProjEdge, ProjectedTree

    verts = {v for e in tree for v in e}
    return ProjectedTree(
        frozenset(x), frozenset(verts), tuple(ProjEdge(u, v, (u, v)) for u, v in tree)
    )


class TestSolveExact:
    def test_p4(self):
        res = solve_exact(path_graph(4), 2, 1, mode="construct")
        assert res.feasible and res.value == 1
        assert cut_weight(path_graph(4), res.partition) == 1

    def test_c4_threshold(self):
        assert not solve_exact(cycle(4), 2, 1).feasible
        res = solve_exact(cycle(4), 2, 2)
        assert res.feasible and res.value == 2

    def test_s_zero_connected_no(self):
        assert not solve_exact(cycle(5), 2, 0).feasible
        assert not solve_exact(cycle(5), 3, 0).feasible

    def test_k1(self):
        res = solve_exact(cycle(5), 1, 0, mode="construct")
        assert res.feasible and res.value == 0
        assert len(res.partition) == 1

    def test_k_equals_n(self):
        g = path_graph(4)
        res = solve_exact(g, 4, 3, mode="construct")
        assert res.feasible and res.value == 3

    def test_single_vertex(self):
        g = MultiGraph.multi(1, [])
        res = solve_exact(g, 1, 0, mode="construct")
        assert res.feasible and res.value == 0

    def test_parallel_multiplicity_budget(self):
        g = MultiGraph.multi(2, [(0, 1, 5)])
        assert solve_exact(g, 2, 5).feasible
        assert not solve_exact(g, 2, 4).feasible

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            solve_exact(path_graph(3), 4, 1)
        with pytest.raises(InvalidInputError):
            solve_exact(MultiGraph.multi(4, [(0, 1), (2, 3)]), 2, 1)

    def test_oracle_sweep_random(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_connected(rng, n_max=7, extra=4)
            k = rng.choice([2, 3])
            _, opt = oracle_exact_kcut(g, k)
            fam = enumerate_spanning_trees(g)
            for s in range(0, opt + 3):
                res = solve_exact(g, k, s, trees=fam, mode="construct")
                assert res.feasible == (opt <= s)
                if res.feasible:
                    assert res.value == cut_weight(g, res.partition) <= s


class TestExactValues:
    def test_vector_matches_oracle(self):
        rng = random.Random(21)
        for _ in range(10):
            g = random_connected(rng, n_max=7, extra=4)
            kmax = min(3, g.n)
            vals = exact_values(g, kmax, 12, construct=True)
            for i in range(1, kmax + 1):
                _, opt = oracle_exact_kcut(g, i)
                if opt <= 12:
                    assert vals[i][0] == opt
                    assert cut_weight(g, vals[i][1]) == opt


class TestComputeState:
    def _leaf_setup(self, g, s, k):
        td = build_unbreakable_decomposition(g, s)
        assert len(td) == 1
        tree = enumerate_spanning_trees(g).tree_edges(0)
        return td, tree

    def test_leaf_single_part(self):
        g = path_graph(3)
        td, tree = self._leaf_setup(g, 2, 2)
        val = compute_state(g, td, tree, 0, (Partition.empty(), 1), {}, 2, 2)
        assert val == 0

    def test_leaf_single_edge_two_parts(self):
        g = MultiGraph.multi(2, [(0, 1)])
        td, tree = self._leaf_setup(g, 1, 2)
        val = compute_state(g, td, tree, 0, (Partition.empty(), 2), {}, 1, 2)
        assert val == 1

    def test_root_matches_oracle_random(self):
        rng = random.Random(14)
        for _ in range(10):
            g = random_connected(rng, n_max=6, extra=3)
            k = 2
            _, opt = oracle_exact_kcut(g, k)
            vals = exact_values(g, k, opt + 1)
            assert vals[k][0] == opt

    def test_two_level_composition(self):
        # P6 split into two bags sharing vertex 3; the knapsack must account
        # for parts passed through the adhesion without double counting.
        g = path_graph(6)
        td = TreeDecomposition(
            (frozenset([0, 1, 2, 3]), frozenset([3, 4, 5])), (-1, 0)
        )
        tree = tuple((i, i + 1) for i in range(5))
        k, s = 3, 4
        child_tab = {}
        for pa_parts in ([[3]],):
            for i in range(1, k + 1):
                v = compute_state(g, td, tree, 1, (Partition.from_parts(pa_parts), i), {}, s, k)
                if v is not None:
                    child_tab[(Partition.from_parts(pa_parts), i)] = v
        # Child graph is the path 3-4-5: splitting into i parts costs i-1.
        assert child_tab[(Partition.from_parts([[3]]), 1)] == 0
        assert child_tab[(Partition.from_parts([[3]]), 2)] == 1
        assert child_tab[(Partition.from_parts([[3]]), 3)] == 2
        root_val = compute_state(
            g, td, tree, 0, (Partition.empty(), 3), {1: child_tab}, s, k
        )
        _, opt = oracle_exact_kcut(g, 3)
        assert root_val == opt == 2


class TestCutGuess:
    def test_soundness_all_guesses(self):
        rng = random.Random(31)
        for _ in range(8):
            g = random_connected(rng, n_max=6, extra=3, mult_max=1)
            k, s = 2, 6
            td = build_unbreakable_decomposition(g, s)
            if len(td) != 1:
                continue
            tree = enumerate_spanning_trees(g).tree_edges(0)
            pt = project_tree(tree, td.bags[0])
            m = len(pt.edges)
            _, opt = oracle_exact_kcut(g, k)
            for r in range(0, min(2 * k - 2, m) + 1):
                for cprime in itertools.combinations(range(m), r):
                    v = cut_guess_value(
                        g, td, tree, 0, (Partition.empty(), k), cprime, {}, s, k
                    )
                    if v is not None:
                        assert v >= opt

    def test_exactness_for_right_guess(self):
        # On a path, cutting the right tree edge is the optimal 2-cut, so
        # the guess containing exactly that edge is exact.
        g = path_graph(5)
        td = build_unbreakable_decomposition(g, 4)
        tree = tuple((i, i + 1) for i in range(4))
        vals = []
        for cprime in itertools.combinations(range(4), 2):
            v = cut_guess_value(g, td, tree, 0, (Partition.empty(), 2), cprime, {}, 4, 2)
            if v is not None:
                vals.append(v)
        assert min(vals) == 1


class TestNiceDecompositions:
    def test_small_bag_single_candidate(self):
        g = cycle(4)
        td = build_unbreakable_decomposition(g, 2)
        tree = enumerate_spanning_trees(g).tree_edges(0)
        nds = nice_decompositions(g, td, tree, 0, (), 2, 2)
        assert len(nds) == 1
        assert nds[0].center == 0
        assert len(nds[0].pprime) == 1

    def test_small_bag_too_many_parts_rejected(self):
        g = path_graph(6)
        td = build_unbreakable_decomposition(g, 5)
        assert len(td) == 1
        tree = tuple((i, i + 1) for i in range(5))
        # Cutting 4 of 5 path edges leaves 5 components > 2k-1 for k=2.
        nds = nice_decompositions(g, td, tree, 0, (0, 1, 2, 3), 5, 2)
        assert nds == []

    def test_big_branch_properties(self):
        # s=0 puts any bag beyond 2k vertices in the oversized branch.
        g = path_graph(7)
        td = build_unbreakable_decomposition(g, 0)
        assert len(td) == 1
        tree = tuple((i, i + 1) for i in range(6))
        nds = nice_decompositions(g, td, tree, 0, (2,), 0, 2)
        assert nds  # validation happens inside construction
        for nd in nds:
            assert nd.center != 0


class TestKnapsackValue:
    def test_leaf_direct_weights(self):
        g = cycle(4)
        td = build_unbreakable_decomposition(g, 4)
        tree = enumerate_spanning_trees(g).tree_edges(0)
        nds = nice_decompositions(g, td, tree, 0, (), 4, 2)
        v = knapsack_value(g, td, tree, 0, (Partition.empty(), 1), nds[0], {}, 4, 2)
        assert v == 0
        v2 = knapsack_value(g, td, tree, 0, (Partition.empty(), 2), nds[0], {}, 4, 2)
        # With no tree edge cut the bag cannot split into 2 parts.
        assert v2 is None

    def test_part_count_unreachable_is_none(self):
        g = MultiGraph.multi(2, [(0, 1)])
        td = build_unbreakable_decomposition(g, 3)
        tree = ((0, 1),)
        nds = nice_decompositions(g, td, tree, 0, (0,), 3, 2)
        assert nds
        vals = [
            knapsack_value(g, td, tree, 0, (Partition.empty(), 2), nd, {}, 3, 2)
            for nd in nds
        ]
        assert any(v == 1 for v in vals if v is not None)


def doubled_cycles(n):
    """Two cycles of n/2 doubled edges joined by two unit edges: min 2-cut 2."""
    h = n // 2
    edges = [(i, (i + 1) % h, 2) for i in range(h)]
    edges += [(h + i, h + (i + 1) % h, 2) for i in range(h)]
    edges += [(0, h, 1), (h // 2, h + h // 2, 1)]
    return MultiGraph.multi(n, edges)


def grid(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return MultiGraph.multi(rows * cols, edges)


class TestLargeBags:
    """Single bags of 20-40 vertices, whose optima are known without
    enumeration: the guess enumeration must stay polynomial here."""

    def test_doubled_cycles(self):
        g = doubled_cycles(20)
        assert not solve_exact(g, 2, 1).feasible
        res = solve_exact(g, 2, 2, mode="construct")
        assert res.feasible and res.value == 2
        assert cut_weight(g, res.partition) == 2

    def test_grid_5x8(self):
        g = grid(5, 8)
        res = solve_exact(g, 2, 2, mode="construct")
        assert res.feasible and res.value == 2
        assert cut_weight(g, res.partition) == 2
        assert not solve_exact(g, 2, 1).feasible


class TestSingleBagDifferential:
    def test_root_values_match_feasible_family(self):
        # With the whole vertex set as one bag, the DP's root value for i
        # parts is the lightest i-part partition the tree's feasible family
        # holds.
        for seed in range(30):
            g = connected_multigraph(seed, n_lo=3, n_hi=9)
            k = 2 + seed % 2
            if k > g.n:
                continue
            s = sum(w for _, _, w in g.edges)
            td = TreeDecomposition((frozenset(range(g.n)),), (-1,))
            engine = _Engine(g, td, k, s)
            fam = pack_trees(g, 3)
            for ti in range(len(fam)):
                tree = fam.tree_edges(ti)
                root = TreeCutDP(engine, tree).run()
                family = feasible_family(project_tree(tree, range(g.n)), k).partitions
                for i in range(1, k + 1):
                    want = min(
                        (cut_weight(g, p) for p in family if len(p) == i), default=None
                    )
                    got = root.get(((), i))
                    assert (None if got is None else got[0]) == want, (seed, ti, i)
