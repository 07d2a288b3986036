import itertools
import math
import random

import pytest

import kcut.dp as dp_module
from kcut.cuts import global_min_2cut, oracle_exact_kcut
from kcut.decomposition import TreeDecomposition, build_unbreakable_decomposition
from kcut.dp import (
    Partition,
    _cut_components,
    _Engine,
    _mask,
    _projection,
    _rooted_sides,
    _rooting,
    _values,
    exact_values,
    solve_exact,
)
from kcut.graph import InvalidInputError, MultiGraph, cut_weight
from kcut.treepack import enumerate_spanning_trees, pack_trees

from conftest import connected_multigraph
from reference import (
    ProjEdge,
    ProjectedTree,
    _edge_pairs,
    _groupings,
    class_quotient_kcut,
    classes_above,
    feasible_family,
    matrix_max_flow,
    project_tree,
)


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


def mask_partition(p: Partition):
    if p.is_empty():
        return ()
    return tuple(sorted(_mask(part) for part in p.parts))


def _prepared_engine(g, td, k, s, child_tables):
    """An engine whose children's tables are given as {(partition, i): value}."""
    engine = _Engine(g, td, k, s)
    for c, tab in child_tables.items():
        engine.tables[c] = {(mask_partition(p), i): (v, None) for (p, i), v in tab.items()}
    return engine


def _state_value(engine, t, key):
    engine._solve_node(t)
    ent = engine.tables[t].get((mask_partition(key[0]), key[1]))
    return None if ent is None else ent[0]


def compute_state(g, td, tree, t, key, child_tables, s, k):
    """Single DP state f_t(key) of the DP fed one tree, given complete child
    tables; None plays the role of infinity (no realizing partition of
    weight at most s, or an adhesion projection no candidate carries)."""
    engine = _prepared_engine(g, td, k, s, child_tables)
    assert all(c in engine.tables for c in td.children_map()[t]), "child table missing"
    engine.add_tree(tree)
    return _state_value(engine, t, key)


def cut_guess_value(g, td, tree, t, key, cprime, child_tables, s, k):
    """Value of the DP state when node t takes its candidates from one
    guess of crossed projection edges (indices into the bag projection's
    edge list) alone; an upper bound on the true state value, tight for
    the right guess."""
    engine = _prepared_engine(g, td, k, s, child_tables)
    ctx = engine.ctxs[t]
    vmask, edges = _projection(*_rooting(tree, g.n), ctx.bag_mask)
    comps = _cut_components(vmask, _rooted_sides(vmask, edges), set(cprime))
    engine._add_guess(ctx, engine.cands[t], comps)
    return _state_value(engine, t, key)


class TestConstants:
    def test_budget_formulas(self):
        from kcut.dp import guess_budget

        assert guess_budget(3) == 4


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


class TestProjectionKey:
    def test_matches_project_tree(self):
        # The linear-time projection from a tree rooted once has the
        # vertices and edges, in order, that pruning and smoothing leave.
        rng = random.Random(17)
        for _ in range(400):
            n = rng.randint(1, 40)
            tree = [(rng.randrange(v), v) for v in range(1, n)]
            rng.shuffle(tree)
            tree = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree]
            x = rng.sample(range(n), rng.randint(1, n))
            pt = project_tree(tree, x)
            got = _projection(*_rooting(tree, n), _mask(x))
            assert got == (_mask(pt.vertices), _edge_pairs(pt)), (tree, x)


def _identity_projection(tree, x):
    """The tree as its own projection, hubs x; bypasses smoothing."""
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


def dense_blocks(seed):
    """8-10 vertices in k = 2-3 random blocks, each pair present with
    probability 0.8, multiplicity 5-12 inside a block and 1-2 across."""
    rng = random.Random(seed)
    n = rng.randint(8, 10)
    k = rng.choice([2, 3])
    block = [rng.randrange(k) for _ in range(n)]
    edges = [
        (u, v, rng.randint(5, 12) if block[u] == block[v] else rng.randint(1, 2))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.8
    ]
    return MultiGraph.multi(n, edges), k


class TestDefaultFamily:
    """Without a given family, graphs of at most 10 vertices enumerate
    their spanning trees only when all of them fit under the cap; a
    truncated enumeration can miss every tree the DP needs."""

    def test_tree_count_matches_enumeration(self):
        for seed in range(40):
            g = connected_multigraph(seed, n_lo=2, n_hi=8, extra_hi=10)
            assert dp_module._spanning_tree_count(g) == len(enumerate_spanning_trees(g, cap=10**6)), seed
        assert dp_module._spanning_tree_count(MultiGraph.multi(1, [])) == 1
        k8 = MultiGraph.multi(8, [(i, j, 3) for i in range(8) for j in range(i + 1, 8)])
        assert dp_module._spanning_tree_count(k8) == 8**6

    def test_k10_two_blocks(self):
        # The first 5000 enumerated trees all cross {A, B} at least 4 times.
        a = {0, 5, 6, 7, 8, 9}
        g = MultiGraph.multi(
            10, [(u, v, 10 if (u in a) == (v in a) else 1) for u in range(10) for v in range(u + 1, 10)]
        )
        res = solve_exact(g, 2, 24, mode="construct")
        assert res.feasible and res.value == 24 == cut_weight(g, res.partition)

    def test_dense_blocks_match_oracle(self):
        for seed in range(20):
            g, k = dense_blocks(seed)
            _, opt = oracle_exact_kcut(g, k)
            for s in (opt - 1, opt):
                assert solve_exact(g, k, s).feasible == (opt <= s), (seed, s)


class TestExactValues:
    def test_vector_matches_oracle(self):
        rng = random.Random(21)
        for _ in range(10):
            g = random_connected(rng, n_max=7, extra=4)
            kmax = min(3, g.n)
            vals = exact_values(g, kmax, 12)
            for i in range(1, kmax + 1):
                _, opt = oracle_exact_kcut(g, i)
                if opt <= 12:
                    assert vals[i][0] == opt
                    assert cut_weight(g, vals[i][1]) == opt

    def test_kmax_below_one_rejected(self):
        for kmax in (0, -1):
            with pytest.raises(InvalidInputError):
                exact_values(path_graph(3), kmax, 5)


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


class TestKnapsackValue:
    """A single bag's value when its candidates come from one guess."""

    def test_leaf_direct_weights(self):
        g = cycle(4)
        td = build_unbreakable_decomposition(g, 4)
        tree = enumerate_spanning_trees(g).tree_edges(0)
        v = cut_guess_value(g, td, tree, 0, (Partition.empty(), 1), (), {}, 4, 2)
        assert v == 0
        v2 = cut_guess_value(g, td, tree, 0, (Partition.empty(), 2), (), {}, 4, 2)
        # With no tree edge cut the bag cannot split into 2 parts.
        assert v2 is None

    def test_part_count_unreachable_is_none(self):
        g = MultiGraph.multi(2, [(0, 1)])
        td = build_unbreakable_decomposition(g, 3)
        tree = ((0, 1),)
        assert cut_guess_value(g, td, tree, 0, (Partition.empty(), 2), (), {}, 3, 2) is None
        assert cut_guess_value(g, td, tree, 0, (Partition.empty(), 2), (0,), {}, 3, 2) == 1


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
        # With the whole vertex set as one bag, the root value for i parts
        # of the DP fed one tree is the lightest i-part partition that
        # tree's feasible family holds.
        for seed in range(30):
            g = connected_multigraph(seed, n_lo=3, n_hi=9)
            k = 2 + seed % 2
            if k > g.n:
                continue
            s = sum(w for _, _, w in g.edges)
            td = TreeDecomposition((frozenset(range(g.n)),), (-1,))
            fam = pack_trees(g, 3)
            for ti in range(len(fam)):
                tree = fam.tree_edges(ti)
                engine = _Engine(g, td, k, s)
                engine.add_tree(tree)
                engine.evaluate()
                root = engine.tables[0]
                family = feasible_family(project_tree(tree, range(g.n)), k).partitions
                for i in range(1, k + 1):
                    want = min(
                        (cut_weight(g, p) for p in family if len(p) == i), default=None
                    )
                    got = root.get(((), i))
                    assert (None if got is None else got[0]) == want, (seed, ti, i)


def blob_chain(count, size, links):
    """Cliques K_size of doubled edges in a row, consecutive ones joined by
    ``links`` unit edges between distinct vertices."""
    edges = []
    for b in range(count):
        base = b * size
        edges += [(base + i, base + j, 2) for i in range(size) for j in range(i + 1, size)]
        if b + 1 < count:
            edges += [(base + i, base + size + (i + 1) % size, 1) for i in range(links)]
    return MultiGraph.multi(count * size, edges)


class TestUnionEngine:
    """The engine evaluates each node once over the union of the family's
    per-node candidates; ``solve_exact`` re-evaluates after each batch."""

    def _cases(self):
        # Chains of cliques joined by three or four edges decompose into
        # bags with adhesions of that size; the 16 x K3 chain has a batch
        # that changes a child's values but not its parent's candidates, and
        # the 8 x K5 chain's 4-vertex adhesions have feasible families that
        # differ between trees.
        for count, size, links, k in [(16, 3, 3, 2), (8, 5, 4, 2)]:
            g = blob_chain(count, size, links)
            yield g, k, links, build_unbreakable_decomposition(g, links), pack_trees(g, 8)
        for seed in range(4):
            g = connected_multigraph(700 + seed, n_lo=8, n_hi=14, extra_hi=10)
            k = 2 + seed % 2
            s = 1 + seed % 3
            yield g, k, s, build_unbreakable_decomposition(g, s), pack_trees(g, 8)

    def test_batches_match_one_pass(self):
        multi_node = 0
        for g, k, s, td, fam in self._cases():
            multi_node += len(td) > 1
            stepwise, once = _Engine(g, td, k, s), _Engine(g, td, k, s)
            for ti in range(len(fam)):
                stepwise.add_tree(fam.tree_edges(ti))
                stepwise.evaluate()
                once.add_tree(fam.tree_edges(ti))
            once.evaluate()
            for t in range(len(td)):
                assert _values(stepwise.tables[t]) == _values(once.tables[t]), t
            for (pa, i) in stepwise.tables[td.root]:
                stepwise.reconstruct(td.root, pa, i)  # rebuilds and re-weighs
        assert multi_node >= 2

    def test_union_of_families_and_no_worse_than_each_tree(self):
        # The states range over the adhesion projections the candidates
        # carry; each lies in the feasible family of some tree taken in.
        for g, k, s, td, fam in self._cases():
            union = _Engine(g, td, k, s)
            for ti in range(len(fam)):
                union.add_tree(fam.tree_edges(ti))
            union.evaluate()
            for t in range(len(td)):
                family = set()
                for ti in range(len(fam)):
                    pt = project_tree(fam.tree_edges(ti), td.adhesion(t))
                    family |= {mask_partition(p) for p in feasible_family(pt, k).partitions}
                carried = set(union.cands[t].by_at)
                assert carried and carried <= family, t
            root = _values(union.tables[td.root])
            for ti in range(len(fam)):
                single = _Engine(g, td, k, s)
                single.add_tree(fam.tree_edges(ti))
                single.evaluate()
                for key, v in _values(single.tables[td.root]).items():
                    assert root[key] <= v


    def test_one_lightest_candidate_per_key(self):
        # Every grouping into at most k parts of every guess's pieces taken
        # in, weighed by a direct count over the bag's edges: each node keeps
        # exactly one candidate per (adhesion projection, part count, child
        # adhesion projections) key, and it weighs that key's minimum.
        def proj(parts, m):
            return tuple(sorted(p & m for p in parts if p & m))

        with_children = 0
        for g, k, s, td, fam in self._cases():
            engine = _Engine(g, td, k, s)
            for ti in range(len(fam)):
                engine.add_tree(fam.tree_edges(ti))
            for t in range(len(td)):
                adh = _mask(td.adhesion(t))
                cmasks = [_mask(td.adhesion(c)) for c in td.children_map()[t]]
                with_children += bool(cmasks)
                bag = _mask(td.bags[t])
                inside = [(u, v, w) for u, v, w in g.edges if bag >> u & 1 and bag >> v & 1]

                def key_weight(parts):
                    key = (proj(parts, adh), len(parts), tuple(proj(parts, m) for m in cmasks))
                    w = sum(w for u, v, w in inside if not any(p >> u & 1 and p >> v & 1 for p in parts))
                    return key, w

                lightest: dict = {}
                for pieces in engine.cands[t].seen_pieces:
                    for parts in _groupings(pieces):
                        if len(parts) <= k:
                            key, w = key_weight(parts)
                            lightest[key] = min(w, lightest.get(key, w))
                kept = {}
                for at, group in engine.cands[t].by_at.items():
                    for (nparts, cprojs), co in group.items():
                        assert key_weight(co.parts) == ((at, nparts, cprojs), co.w_base)
                        kept[(at, nparts, cprojs)] = co.w_base
                assert kept == lightest, t
        assert with_children


def clique_ring_graph(seed):
    """A ring of 3-6 K5s with doubled edges, consecutive cliques joined by a
    link of multiplicity 1-2 between random members, plus up to two unit
    chords between cliques: 15-30 vertices."""
    rng = random.Random(seed)
    count = rng.randint(3, 6)
    n = 5 * count
    mult: dict[tuple[int, int], int] = {}

    def add(u, v, w):
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + w

    for c in range(count):
        for i, j in itertools.combinations(range(5 * c, 5 * c + 5), 2):
            add(i, j, 2)
        nxt = (c + 1) % count * 5
        add(5 * c + rng.randrange(5), nxt + rng.randrange(5), rng.randint(1, 2))
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        if u // 5 != v // 5:
            add(u, v, 1)
    return MultiGraph.multi(n, [(u, v, w) for (u, v), w in sorted(mult.items())])


class TestPastOracle:
    """Differential checks on 15-30 vertices, beyond the enumeration oracle:
    ``solve_exact`` takes the family's trees in batches and re-evaluates only
    the nodes they change, ``exact_values`` evaluates the whole family's
    union once over a decomposition at another budget."""

    CASES = [(0, 2), (2, 2), (4, 2), (6, 2), (8, 2), (10, 2), (3, 3), (19, 3)]

    @pytest.mark.parametrize("seed,k", CASES)
    def test_decisions_match_exact_values(self, seed, k):
        g = clique_ring_graph(seed)
        assert 15 <= g.n <= 30
        cap = 4
        vals = exact_values(g, k, cap)
        opt = vals[k][0]
        if opt is not None:
            assert cut_weight(g, vals[k][1]) == opt
        budgets = range(1, cap + 1) if k == 2 else ([opt - 1, opt] if opt is not None else [cap])
        for s in budgets:
            res = solve_exact(g, k, s, mode="construct")
            assert res.feasible == (opt is not None and opt <= s), s
            if res.feasible:
                assert opt <= res.value <= s
                assert res.value == cut_weight(g, res.partition)
        if k == 2:
            lam = global_min_2cut(g).order
            assert opt == (lam if lam <= cap else None)


def planted_multigraph(seed, n, cross, k=3):
    """k clusters of every k-th vertex, each a path plus two random inner
    edges per vertex, joined by ``cross`` crossing edges, the first k-1 of
    which chain the clusters: connected, with a k-cut of weight ``cross``."""
    rng = random.Random(seed)
    clusters = [list(range(c, n, k)) for c in range(k)]
    mult: dict[tuple[int, int], int] = {}

    def add(u, v):
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1

    for cluster in clusters:
        for a, b in zip(cluster, cluster[1:]):
            add(a, b)
        for _ in range(2 * len(cluster)):
            add(*rng.sample(cluster, 2))
    for c in range(cross):
        ca, cb = (c, c + 1) if c < k - 1 else rng.sample(range(k), 2)
        add(rng.choice(clusters[ca]), rng.choice(clusters[cb]))
    return MultiGraph.multi(n, [(u, v, w) for (u, v), w in sorted(mult.items())])


class TestClassQuotientReference:
    """``class_quotient_kcut`` shares no code with the DP: it enumerates the
    quotient by the classes of λ(u, v) > s, so it checks "no" answers and
    values past the enumeration oracle's 14 vertices.  These tests take
    about 2.5 s on one core."""

    def test_classes_match_pairwise_flows(self):
        for seed in range(30):
            g = connected_multigraph(seed)
            for s in range(4):
                label = classes_above(g, s)
                for u, v in itertools.combinations(range(g.n), 2):
                    assert (label[u] == label[v]) == (matrix_max_flow(g, u, v)[0] > s), (seed, s, u, v)
                assert all(label[v] == min(u for u in range(g.n) if label[u] == label[v]) for v in range(g.n))

    def test_matches_oracle_on_small_graphs(self):
        for seed in range(30):
            g = connected_multigraph(seed)
            for k in (2, 3):
                opt = oracle_exact_kcut(g, k)[1]
                for s in range(4):
                    assert class_quotient_kcut(g, k, s) == (opt if opt <= s else None), (seed, k, s)

    CASES = [("ring", seed, None, 3) for seed in (1, 3, 7, 8, 10, 11)] + [
        ("planted", seed, n, cap) for seed, n, cap in ((1, 20, 2), (2, 25, 2), (3, 25, 2), (2, 25, 3), (3, 25, 3))
    ]

    @pytest.mark.parametrize("kind,seed,n,cap", CASES)
    def test_past_oracle(self, kind, seed, n, cap):
        g = clique_ring_graph(seed) if kind == "ring" else planted_multigraph(seed, n, cap)
        assert 15 <= g.n <= 30
        opt = class_quotient_kcut(g, 3, cap)
        assert exact_values(g, 3, cap)[3][0] == opt
        if opt is not None:
            for s in (opt - 1, opt):
                assert class_quotient_kcut(g, 3, s) == (opt if s == opt else None)
                assert solve_exact(g, 3, s).feasible == (s == opt)


class TestOversizedBranch:
    """Seven 6-16 vertex graphs, each one bag at s = 0, six of them past
    the paper's oversized-bag size 2k(s+1)^5 = 2k, where it splits a bag
    into a center and satellites.  Every bag takes the one candidate
    builder, so the decisions at s = 0..3 must match ``exact_values`` over
    the decomposition at s = 3, and every candidate must weigh what its
    parts cut."""

    CASES = [(502, 2), (506, 2), (510, 2), (514, 2), (503, 3), (511, 3), (513, 3)]

    @pytest.mark.parametrize("seed,k", CASES)
    def test_matches_small_bag_branch(self, seed, k):
        g = connected_multigraph(seed, n_lo=6, n_hi=16, extra_hi=8)
        cap = 3
        opt = exact_values(g, k, cap)[k][0]
        for s in range(cap + 1):
            res = solve_exact(g, k, s, mode="construct")
            assert res.feasible == (opt is not None and opt <= s), s
            if res.feasible:
                assert res.value == cut_weight(g, res.partition) <= s

    @pytest.mark.parametrize("seed,k", CASES[:2] + CASES[4:6])
    def test_level_weights_count_inside_edges(self, seed, k):
        # A candidate weighs the edges inside its bag only.  The union over
        # guesses can hide a wrong weight from the values, so every
        # candidate of every node is checked against a direct count.
        g = connected_multigraph(seed, n_lo=6, n_hi=16, extra_hi=8)
        engine = _Engine(g, build_unbreakable_decomposition(g, 3), k, 3)
        fam = dp_module._tree_family(g, k)
        for ti in range(len(fam)):
            engine.add_tree(fam.tree_edges(ti))
        checked = 0
        for cands in engine.cands.values():
            for co in (co for group in cands.by_at.values() for co in group.values()):
                bag = sum(co.parts)
                inside = [(u, v, w) for u, v, w in g.edges if bag >> u & 1 and bag >> v & 1]
                assert co.w_base == sum(w for u, v, w in inside if not any(p >> u & 1 and p >> v & 1 for p in co.parts))
                checked += 1
        assert checked


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return MultiGraph.multi(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def scaled(g, c):
    return MultiGraph.multi(g.n, [(u, v, c * w) for u, v, w in g.edges])


class TestMetamorphic:
    """``exact_values`` optima do not depend on vertex names and scale with
    the weights: a relabelled graph has the same optima, and multiplying
    every multiplicity and the cap by c multiplies them by c (an optimum
    over the cap stays None).  Run past the oracle on ``TestPastOracle``'s
    clique rings and on ``TestOversizedBranch``'s graphs."""

    @staticmethod
    def check(g, k, cap, seed):
        vals = [v for v, _ in exact_values(g, k, cap)]
        assert [v for v, _ in exact_values(relabelled(g, seed), k, cap)] == vals
        c = 2 + seed % 2
        assert [v for v, _ in exact_values(scaled(g, c), k, c * cap)] == [None if v is None else c * v for v in vals]

    @pytest.mark.parametrize("seed,k", TestPastOracle.CASES)
    def test_clique_rings(self, seed, k):
        self.check(clique_ring_graph(seed), k, 4, seed)

    @pytest.mark.parametrize("seed,k", TestOversizedBranch.CASES)
    def test_oversized_branch(self, seed, k):
        self.check(connected_multigraph(seed, n_lo=6, n_hi=16, extra_hi=8), k, 3, seed)


class TestClosedForm:
    """Optima known in closed form, past the enumeration oracle."""

    @pytest.mark.parametrize("seed,n,k", [(1, 15, 2), (2, 20, 3), (3, 30, 2), (4, 30, 3)])
    def test_tree_lightest_edges(self, seed, n, k):
        # Cutting a tree's k-1 lightest edges leaves k parts, and any k
        # parts cut at least k-1 tree edges.
        rng = random.Random(seed)
        g = MultiGraph.multi(n, [(rng.randrange(v), v, rng.randint(1, 9)) for v in range(1, n)])
        opt = sum(sorted(w for _, _, w in g.edges)[: k - 1])
        assert not solve_exact(g, k, opt - 1).feasible
        res = solve_exact(g, k, opt, mode="construct")
        assert res.feasible and res.value == opt == cut_weight(g, res.partition)

    @pytest.mark.parametrize("n,k", [(15, 2), (15, 3), (16, 3), (18, 2)])
    def test_complete_graph(self, n, k):
        # Isolating k-1 single vertices is optimal in K_n.
        g = MultiGraph.multi(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        opt = (k - 1) * (n - 1) - math.comb(k - 1, 2)
        assert not solve_exact(g, k, opt - 1).feasible
        res = solve_exact(g, k, opt, mode="construct")
        assert res.feasible and res.value == opt == cut_weight(g, res.partition)
