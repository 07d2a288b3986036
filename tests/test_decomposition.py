import random

import pytest

from kcut import cuts, decomposition
from kcut.decomposition import (
    LeanWitness,
    TreeDecomposition,
    WitnessSearchBase,
    build_unbreakable_decomposition,
    cleanup,
    compactify,
    dump_decomposition,
    find_breakability_witness,
    is_compact,
    potential,
    refine,
    validate_decomposition,
    witness_to_lean,
)
from kcut.graph import InvalidInputError, MultiGraph
from reference import is_bag_unbreakable, matrix_max_flow, reference_find_breakability_witness


def path(n):
    return MultiGraph.multi(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return MultiGraph.multi(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def tree_plus_chords(seed, n, chords):
    """Random recursive tree plus distinct chords; connected and simple."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return MultiGraph.multi(n, sorted(edges))


def clique_ring(seed, cliques, size):
    """Cliques joined in a ring by single edges, vertex labels shuffled."""
    rng = random.Random(seed)
    label = list(range(cliques * size))
    rng.shuffle(label)
    edges = []
    for c in range(cliques):
        block = range(c * size, (c + 1) * size)
        edges += [(a, b) for a in block for b in block if a < b]
        edges.append((c * size, (c + 1) % cliques * size + 1))
    return MultiGraph.multi(cliques * size, [tuple(sorted((label[a], label[b]))) for a, b in edges])


def random_connected(rng, n_max=10, extra=6):
    n = rng.randint(2, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.multi(n, [(min(u, v), max(u, v)) for u, v in edges])


class TestPotential:
    def test_small_bags_zero(self):
        td = TreeDecomposition((frozenset([0, 1, 2]),), (-1,))
        assert potential(td, 1) == 0

    def test_single_overshoot(self):
        td = TreeDecomposition((frozenset(range(2 * 2 + 3)),), (-1,))
        assert potential(td, 2) == 2

    def test_two_bags(self):
        s = 1
        td = TreeDecomposition(
            (frozenset(range(2 * s + 2)), frozenset(range(100, 100 + 2 * s + 5))),
            (-1, 0),
        )
        assert potential(td, s) == 1 + 4


class TestWitnessSearch:
    def test_few_terminals_absent(self):
        g = path(6)
        assert find_breakability_witness(WitnessSearchBase(g, 1), [0, 1, 2]) is None

    def test_long_path_returns_balanced_cut(self):
        g = path(8)
        cut = find_breakability_witness(WitnessSearchBase(g, 1), range(8))
        assert cut is not None
        assert cut.order <= 1
        assert len(cut.side_a) >= 2 and len(cut.side_b) >= 2

    def test_clique_absent(self):
        g = clique(6)
        assert find_breakability_witness(WitnessSearchBase(g, 2), range(6)) is None

    def test_disconnected_rejected(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidInputError):
            find_breakability_witness(WitnessSearchBase(g, 1), range(4))

    def test_negative_terminal_rejected(self):
        # A negative id must not wrap around to the last vertex.
        with pytest.raises(InvalidInputError):
            find_breakability_witness(WitnessSearchBase(path(8), 1), [-1, 0, 1, 2, 3, 4])

    def test_too_large_terminal_rejected(self):
        with pytest.raises(InvalidInputError):
            find_breakability_witness(WitnessSearchBase(path(8), 1), [0, 1, 2, 3, 4, 8])

    def test_returned_cut_is_balanced_random(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_connected(rng, n_max=9)
            s = rng.choice([1, 2])
            cut = find_breakability_witness(WitnessSearchBase(g, s), range(g.n))
            if cut is not None:
                assert cut.order <= s
                assert len(cut.side_a) >= s + 1 and len(cut.side_b) >= s + 1


class TestWitnessToLean:
    def test_two_triangles_bridge(self):
        s = 1
        g = MultiGraph.multi(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        td = TreeDecomposition((frozenset(range(6)),), (-1,))
        base = WitnessSearchBase(g, s)
        cut = find_breakability_witness(base, range(6))
        assert cut is not None
        lean = witness_to_lean(base, td, 0, cut)
        assert len(lean.separator) <= s
        assert len(lean.z1) == len(lean.z2) == s + 1

    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            LeanWitness(
                node=0,
                z1=frozenset([1, 2]),
                z2=frozenset([3, 4]),
                x1=frozenset([1, 2, 3]),
                x2=frozenset([3, 4]),
                separator=frozenset([3]),
                paths=((1, 3, 4), (2, 3, 4)),  # overlapping paths
            )


class TestRefine:
    def test_path_refinement_decreases_potential(self):
        g = path(8)
        s = 1
        td = TreeDecomposition((frozenset(range(8)),), (-1,))
        base = WitnessSearchBase(g, s)
        cut = find_breakability_witness(base, range(8))
        lean = witness_to_lean(base, td, 0, cut)
        before = potential(td, s)
        td2 = refine(td, lean, s)
        assert potential(td2, s) < before
        validate_decomposition(td2, g)
        assert td2.max_adhesion() <= s

    def test_random_refinements_stay_valid(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            g = random_connected(rng, n_max=9)
            s = rng.choice([1, 2])
            td = TreeDecomposition((frozenset(range(g.n)),), (-1,))
            if len(td.bags[0]) <= 2 * s + 1:
                continue
            base = WitnessSearchBase(g, s)
            cut = find_breakability_witness(base, td.bags[0])
            if cut is None:
                continue
            lean = witness_to_lean(base, td, 0, cut)
            td2 = refine(td, lean, s)
            validate_decomposition(td2, g)
            assert td2.max_adhesion() <= s
            assert potential(td2, s) < potential(td, s)
            done += 1


class TestCleanup:
    def test_identity_when_clean(self):
        td = TreeDecomposition((frozenset([0, 1]), frozenset([1, 2])), (-1, 0))
        assert cleanup(td) == td

    def test_duplicate_bags_merged(self):
        td = TreeDecomposition((frozenset([0, 1]), frozenset([0, 1])), (-1, 0))
        assert len(cleanup(td)) == 1

    def test_nested_chain_collapses(self):
        td = TreeDecomposition(
            (frozenset([0]), frozenset([0, 1]), frozenset([0, 1, 2])),
            (-1, 0, 1),
        )
        out = cleanup(td)
        assert len(out) == 1
        assert out.bags[0] == frozenset([0, 1, 2])


class TestCompactify:
    def test_compact_input_unchanged_shape(self):
        g = path(3)
        td = TreeDecomposition((frozenset([0, 1]), frozenset([1, 2])), (-1, 0))
        out = compactify(td, g)
        assert is_compact(out, g)
        validate_decomposition(out, g)

    def test_disconnected_alpha_split(self):
        # Star decomposition where one child bag holds two components.
        g = MultiGraph.multi(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        td = TreeDecomposition(
            (frozenset([0]), frozenset([0, 1, 2]), frozenset([0, 3, 4])),
            (-1, 0, 0),
        )
        out = compactify(td, g)
        assert is_compact(out, g)
        validate_decomposition(out, g)
        for t in range(len(out)):
            assert any(out.bags[t] <= b for b in td.bags)

    def test_single_bag(self):
        g = clique(4)
        td = TreeDecomposition((frozenset(range(4)),), (-1,))
        assert compactify(td, g) == td


class TestBuild:
    def test_tree_input(self):
        g = path(7)
        td = build_unbreakable_decomposition(g, 1)
        validate_decomposition(td, g)
        assert is_compact(td, g)
        assert td.max_adhesion() <= 1

    def test_clique_single_bag(self):
        g = clique(8)
        td = build_unbreakable_decomposition(g, 2)
        assert len(td) == 1
        assert td.bags[0] == frozenset(range(8))

    def test_disconnected(self):
        g = MultiGraph.multi(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        td = build_unbreakable_decomposition(g, 1)
        validate_decomposition(td, g)

    def test_glued_layout_pinned(self):
        # A triangle, an 8-vertex path that splits into six nodes and a
        # 3-vertex path, with labels interleaved; every later component's
        # root hangs from the first one's.
        g = MultiGraph.multi(14, [
            (0, 3), (3, 6), (0, 6),
            (1, 4), (4, 7), (7, 9), (9, 10), (10, 11), (11, 12), (12, 13),
            (2, 5), (5, 8),
        ])
        td = build_unbreakable_decomposition(g, 1)
        assert dump_decomposition(td) == (
            "0 -1 0 3 6\n1 0 1 4\n2 1 4 7\n3 2 7 9\n4 3 9 10\n5 4 10 11\n6 5 11 12 13\n7 0 2 5 8\n"
        )

    @pytest.mark.parametrize("n, s", [(3, 1), (5, 1), (5, 2)])
    def test_weighted_rejected(self, n, s):
        g = MultiGraph.weighted(n, [(i, i + 1, 1) for i in range(n - 1)])
        with pytest.raises(InvalidInputError, match="decomposition"):
            build_unbreakable_decomposition(g, s)

    def test_s_zero_single_bag(self):
        g = path(5)
        td = build_unbreakable_decomposition(g, 0)
        validate_decomposition(td, g)
        assert td.max_adhesion() == 0

    def test_random_validity_and_potential_log(self, refinements):
        rng = random.Random(77)
        for _ in range(40):
            g = random_connected(rng, n_max=10)
            s = rng.choice([1, 2, 3])
            td = build_unbreakable_decomposition(g, s)
            validate_decomposition(td, g)
            assert is_compact(td, g)
            assert td.max_adhesion() <= s
        assert refinements
        for before, after in refinements:
            assert after < before

    def test_unbreakability_small_graphs(self):
        rng = random.Random(13)
        checked = 0
        while checked < 12:
            g = random_connected(rng, n_max=7, extra=3)
            if g.m > 10:
                continue
            s = rng.choice([1, 2])
            td = build_unbreakable_decomposition(g, s)
            q = (s + 1) ** 5
            for bag in td.bags:
                assert is_bag_unbreakable(g, bag, q, s)
            checked += 1


# Dumps recorded with the earlier witness search, which ran a full max-flow
# on a fresh network for every pair of family members.
PINNED_DUMPS = [
        (5, 30, 6, 1, (
            "0 -1 0 18\n"
            "1 0 0 1 2 3 5 6 9 10 14 19 24 27 29\n"
            "2 1 24 25 26\n"
            "3 0 0 4 28\n"
            "4 0 0 8 15 21\n"
            "5 1 5 7\n"
            "6 1 5 11\n"
            "7 1 5 22\n"
            "8 1 3 13 20\n"
            "9 1 3 16\n"
            "10 5 7 12 23\n"
            "11 5 7 17\n"
        )),
        (6, 34, 8, 1, (
            "0 -1 0 1 2 3 4 5 6 7 8 9 10 12 13 14 15 16 18 19 21 22 23 24 26 27 31 32\n"
            "1 0 0 11 29\n"
            "2 0 3 17 20\n"
            "3 0 2 25 30\n"
            "4 0 2 28 33\n"
        )),
        (7, 36, 6, 2, (
            "0 -1 0 3 4 6 12 14 15 23 31 33\n"
            "1 0 0 1 3\n"
            "2 0 0 3 5 11 35\n"
            "3 2 5 8 35\n"
            "4 0 0 7 17 19 24\n"
            "5 0 3 32\n"
            "6 1 0 1 2 9 34\n"
            "7 1 1 21\n"
            "8 1 1 28\n"
            "9 6 1 2 13\n"
            "10 9 2 13 20 25 26\n"
            "11 10 2 18 26 27 29 30\n"
            "12 6 2 16\n"
            "13 3 8 10\n"
            "14 11 18 22\n"
        )),
        (9, 50, 8, 2, (
            "0 -1 0 1 4 5 7 10 12 21 23 26 37 38 43 47 48\n"
            "1 0 1 2 30 44\n"
            "2 0 1 3 25 41 49\n"
            "3 0 5 6 33\n"
            "4 0 1 5 8\n"
            "5 0 5 13 20 35 40\n"
            "6 0 5 18 29 34\n"
            "7 0 5 22\n"
            "8 0 1 24 31 32\n"
            "9 0 12 17 39 42\n"
            "10 0 12 45 46\n"
            "11 4 8 9 11\n"
            "12 4 1 8 14\n"
            "13 12 1 14 15 27\n"
            "14 13 1 16 27\n"
            "15 12 14 19\n"
            "16 12 14 36\n"
            "17 13 27 28\n"
        )),
]


class TestWitnessSearchWork:
    @pytest.mark.parametrize(
        "seed,n,chords,s,expected",
        PINNED_DUMPS,
        ids=[f"seed{seed}-n{n}-s{s}" for seed, n, _, s, _ in PINNED_DUMPS],
    )
    def test_pinned_dump(self, seed, n, chords, s, expected):
        g = tree_plus_chords(seed, n, chords)
        assert dump_decomposition(build_unbreakable_decomposition(g, s)) == expected

    def test_no_flow_network_per_pair(self, monkeypatch, refinements):
        def forbidden(*args, **kwargs):
            raise AssertionError("the witness search must not run a full max-flow")

        built = []
        init = cuts.ResidualNetwork.__init__

        def counting_init(self, n, arcs):
            arcs = list(arcs)
            if any(cap_vu == 0 for _, _, _, cap_vu in arcs):  # node-split: one-way arcs
                built.append(n)
            init(self, n, arcs)

        for module in (cuts, decomposition):
            monkeypatch.setattr(module, "min_st_edge_cut", forbidden, raising=False)
            monkeypatch.setattr(module, "global_min_2cut", forbidden, raising=False)
        monkeypatch.setattr(cuts.ResidualNetwork, "__init__", counting_init)
        g = tree_plus_chords(1, 40, 10)
        td = build_unbreakable_decomposition(g, 1)
        validate_decomposition(td, g)
        assert td.max_adhesion() <= 1
        # One vertex-split network for the one component, shared by every
        # refinement, and none per searched pair.
        assert len(built) == 1 and len(refinements) > 1
        for before, after in refinements:
            assert after < before


class TestWitnessSearchClasses:
    CASES = [(tree_plus_chords(seed, 24, 5), s) for seed in (2, 3) for s in (1, 2)] + [
        (clique_ring(seed, 6, 5), s) for seed in (1, 2) for s in (2, 3)
    ]

    def test_no_decision_between_more_than_s_connected_vertices(self, monkeypatch):
        # Log the decisions of the searches' pair loops, not those that
        # build the classes.
        decided = []
        searching = []
        decide = cuts.ResidualNetwork.small_cut_side
        search = decomposition.find_breakability_witness

        def logged(self, sources, sinks, s):
            if searching:
                decided.append((sources, sinks))
            return decide(self, sources, sinks, s)

        def flagged(*args, **kwargs):
            searching.append(True)
            try:
                return search(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(cuts.ResidualNetwork, "small_cut_side", logged)
        monkeypatch.setattr(decomposition, "find_breakability_witness", flagged)
        for g, s in self.CASES:
            lam = [[matrix_max_flow(g, u, v)[0] if u != v else 0 for v in range(g.n)] for u in range(g.n)]
            decided.clear()
            td = build_unbreakable_decomposition(g, s)
            validate_decomposition(td, g)
            assert decided
            for sources, sinks in decided:
                assert all(lam[u][v] <= s for u in sources for v in sinks), (g, s)

    def test_base_gives_the_fresh_search_cut(self):
        rng = random.Random(31)
        hits = 0
        for g, s in self.CASES:
            base = WitnessSearchBase(g, s)
            for _ in range(15):
                q = rng.sample(range(g.n), rng.randint(2 * s + 2, g.n))
                cut = find_breakability_witness(WitnessSearchBase(g, s), q)
                assert find_breakability_witness(base, q) == cut
                hits += cut is not None
        assert hits

    def test_decision_count_bounded(self, monkeypatch):
        decisions = []
        decide = cuts.ResidualNetwork.small_cut_side

        def counted(self, *args):
            decisions.append(args)
            return decide(self, *args)

        monkeypatch.setattr(cuts.ResidualNetwork, "small_cut_side", counted)
        build_unbreakable_decomposition(tree_plus_chords(1, 40, 10), 1)
        # Measured: 15 decisions build the classes and 3 find the three
        # witnesses.  Deciding every disjoint pair of family members took
        # 14,982.
        assert len(decisions) <= 18


class TestWitnessSearchReference:
    """One member per class mask, flows between class representatives,
    finds the cut that every member and every pair of them finds."""

    GRAPHS = [
        tree_plus_chords(seed, n, chords)
        for seed, n, chords in ((4, 18, 4), (5, 26, 8), (6, 34, 6), (7, 30, 12), (8, 40, 3))
    ] + [clique_ring(seed, cliques, size) for seed, cliques, size in ((3, 5, 4), (4, 6, 5), (5, 8, 3), (6, 4, 6))]

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_matches_reference(self, s):
        rng = random.Random(100 + s)
        hits = 0
        for g in self.GRAPHS:
            base = WitnessSearchBase(g, s)
            terminal_sets = [range(g.n)] + [
                rng.sample(range(g.n), rng.randint(min(2 * s + 2, g.n), g.n)) for _ in range(12)
            ]
            for q in terminal_sets:
                cut = find_breakability_witness(base, q)
                assert cut == reference_find_breakability_witness(base, q), (g, s, q)
                hits += cut is not None
        assert hits or s == 0  # one class at s = 0: no witness anywhere
