import itertools
import random
from fractions import Fraction

import pytest

from kcut.graph import (
    MULTI,
    WEIGHTED,
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Partition,
    bfs,
    connected_components,
    cut_weight,
    read_graph,
    round_to_multigraph,
    set_partitions,
    write_graph,
)
from reference import reference_canonical_edges, reference_read_graph


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

    def test_lists_and_reversed_records_become_canonical_tuples(self):
        g = MultiGraph.multi(3, [[2, 0, 2], (0, 2), [1, 0]])
        assert g.edges == ((0, 1, 1), (0, 2, 3))
        assert all(type(rec) is tuple for rec in g.edges)
        assert g == MultiGraph.multi(3, [(0, 1, 1), (0, 2, 3)])
        assert g.digest() == MultiGraph.multi(3, [(0, 1, 1), (0, 2, 3)]).digest()
        h = MultiGraph.weighted(3, [[2, 1, "6/4"], (1, 0, 0), [0, 2, "0.5"], (0, 1, Fraction(2))])
        assert h.edges == ((1, 2, Fraction(3, 2)), (0, 1, 0), (0, 2, Fraction(1, 2)), (0, 1, 2))
        assert all(type(rec) is tuple for rec in h.edges)
        assert [type(w) for _, _, w in h.edges] == [Fraction, int, Fraction, Fraction]
        sub, labels = h.induced_subgraph([2, 1])
        assert labels == [1, 2]
        assert sub.edges == ((0, 1, Fraction(3, 2)),)
        assert sub == MultiGraph.weighted(2, [(1, 0, "3/2")])
        assert sub.digest() == MultiGraph.weighted(2, [(0, 1, Fraction(3, 2))]).digest()

    def test_canonical_records_kept_as_given(self):
        recs = ((0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 2)), (1, 2, 3))
        g = MultiGraph.weighted(3, recs)
        assert all(a is b for a, b in zip(g.edges, recs))
        sorted_multi = ((0, 1, 2), (0, 2, 1), (1, 2, 5))
        h = MultiGraph(3, sorted_multi, MULTI)
        assert all(a is b for a, b in zip(h.edges, sorted_multi))

    @pytest.mark.parametrize("mode", [MULTI, WEIGHTED])
    def test_records_match_reference(self, mode):
        """Seeded record lists, some faulty: the same canonical records, or
        the same error, as the copying validation."""
        rng = random.Random(11)
        weights = [1, 2, 5, Fraction(3, 2), Fraction(0), "6/4", "0.5", "3", 0, -1, Fraction(-1, 2), 0.5, True]
        for _ in range(300):
            n = rng.randint(0, 6)
            edges = []
            for _ in range(rng.randint(0, 8)):
                u, v = rng.randint(-1, n), rng.randint(-1, n)
                if rng.random() < 0.8 and n >= 2:
                    u, v = rng.sample(range(n), 2)
                w = rng.choice(weights) if rng.random() < 0.3 else rng.randint(1, 4)
                rec = (u, v, w)
                edges.append(list(rec) if rng.random() < 0.3 else rec)
                if rng.random() < 0.3:
                    edges.append(edges[-1])
            try:
                expected = reference_canonical_edges(n, edges, mode)
            except InvalidInputError as exc:
                with pytest.raises(InvalidInputError) as got:
                    MultiGraph(n, tuple(edges), mode)
                assert str(got.value) == str(exc)
                continue
            g = MultiGraph(n, tuple(edges), mode)
            assert g.edges == expected
            assert [type(w) for _, _, w in g.edges] == [type(w) for _, _, w in expected]
            assert all(type(rec) is tuple for rec in g.edges)
            keep = [v for v in range(n) if rng.random() < 0.7]
            sub, labels = g.induced_subgraph(keep)
            index = {v: i for i, v in enumerate(labels)}
            relabeled = [(index[u], index[v], w) for u, v, w in expected if u in index and v in index]
            assert sub.edges == reference_canonical_edges(len(labels), relabeled, mode)


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


class TestBfs:
    def test_order_and_parents(self):
        # Neighbours are scanned in list order, a vertex keeps the parent
        # that reached it first, and vertex 4 is unreached from root 2.
        adj = [[2, 3], [2], [5, 0, 1], [0, 6], [], [2, 6], [5, 3]]
        order, parent = bfs(adj, 2)
        assert order == [2, 5, 0, 1, 6, 3]
        assert parent == [2, 2, -1, 0, -2, 2, 5]


class TestSetPartitions:
    def test_matches_brute_force(self):
        # Label strings in lexicographic order, kept when the first label is
        # 0, each later one is at most one above every label before it, and
        # the block count is in bounds.
        for n in range(1, 9):
            growth = [
                lab
                for lab in itertools.product(range(5), repeat=n)
                if lab[0] == 0 and all(b <= a + 1 for a, b in zip(itertools.accumulate(lab, max), lab[1:]))
            ]
            for most in range(1, 6):
                for least in range(1, most + 1):
                    want = [lab for lab in growth if least <= max(lab) + 1 <= most]
                    assert list(set_partitions(n, most, least)) == want, (n, most, least)

    def test_empty(self):
        assert list(set_partitions(0, 3)) == [()]


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 3 1 multi\n0 0 1\n", "line 2: self-loop at vertex '0'"),
            ("p 3 1 multi\n0 5 1\n", "line 2: endpoint '5' out of range for 3 vertices"),
            ("p 3 1 multi\n0 1 0\n", "line 2: multiplicity '0' must be a positive integer"),
            ("p 3 1 weighted\n0 1 -1/2\n", "line 2: weight '-1/2' must be nonnegative"),
            ("p -1 0 multi\n", "line 1: vertex count '-1' must be nonnegative"),
            ("# c\np 3 2 multi\n0 1 1\n", "line 2: header declares 2 edges, found 1"),
        ],
        ids=["self-loop", "range", "multiplicity", "weight", "vertex-count", "edge-count"],
    )
    def test_record_error_names_line(self, text, message):
        with pytest.raises(InvalidInputError) as exc:
            read_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", ["0 0 1", "3 0 1", "-1 2 1", "1 2 -3/6", "1 2 -0.5"])
    def test_first_offending_line_after_repeats(self, bad):
        """Repeated valid lines before a fault, and the fault repeated: the
        error names the fault's first line and quotes its token."""
        text = f"p 3 6 weighted\n0 1 1/2\n# c\n0 1 1/2\n\n1 0 1/2\n{bad}\n{bad}\n"
        with pytest.raises(InvalidInputError, match=r"^line 7: .*'") as exc:
            read_graph(text)
        assert any(f"'{tok}'" in str(exc.value) for tok in bad.split())

    def test_repeated_lines_share_one_record(self):
        g = read_graph("p 3 4 weighted\n0 1 1/2\n0 1 1/2\n2 1 3\n0 1 1/2 # again\n")
        assert g.edges == ((0, 1, Fraction(1, 2)),) * 2 + ((1, 2, 3),) + ((0, 1, Fraction(1, 2)),)
        assert g.edges[0] is g.edges[1]


def _edge_list_text(rng: random.Random, mode: str) -> str:
    """A seeded edge-list text: repeated and parallel lines, u > v, comments,
    blank lines and, in weighted mode, the tokens 3, 6/4, 0.5 and 0."""
    n = rng.randint(2, 7)
    tokens = ["3", "6/4", "0.5", "0", "1", "22/7", "010", "2.25"] if mode == WEIGHTED else ["1", "2", "3", "17", "010"]
    lines = []
    for _ in range(rng.randint(0, 12)):
        u, v = rng.sample(range(n), 2)
        line = f"{u} {v} {rng.choice(tokens)}"
        lines += [line] * rng.choice([1, 1, 2, 5])
        if rng.random() < 0.3:
            lines.append(f"{v} {u} {rng.choice(tokens)}")
    m = len(lines)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# note", "   ", "\t# x y z"]))
    if lines and rng.random() < 0.3:
        i = rng.randrange(len(lines))
        lines[i] = f"  {lines[i]}   # trailing"
    return "\n".join([f"# seeded {mode}", f"p {n} {m} {mode}"] + lines) + "\n"


_FAULTS = [
    "0 0 1", "0 99 1", "-1 0 1", "0 1 0", "0 1 -1/2", "0 1 -2", "0 1", "0 1 2 3", "0 1 x",
    "0 1 1/0", "a 1 1", "p 3 1 multi", "0 1 1.5",
]


class TestReadGraphDifferential:
    """read_graph against the parser it replaced (``reference_read_graph``)."""

    @pytest.mark.parametrize("mode", [MULTI, WEIGHTED])
    def test_same_graph_and_text(self, mode):
        rng = random.Random(f"read-graph:{mode}")
        for _ in range(200):
            text = _edge_list_text(rng, mode)
            g, ref = read_graph(text), reference_read_graph(text)
            assert g == ref
            assert [type(w) for _, _, w in g.edges] == [type(w) for _, _, w in ref.edges]
            assert write_graph(g).encode() == write_graph(ref).encode()

    @pytest.mark.parametrize("mode", [MULTI, WEIGHTED])
    def test_same_exception_type_on_faulty_text(self, mode):
        rng = random.Random(f"read-graph-faulty:{mode}")
        for _ in range(200):
            lines = _edge_list_text(rng, mode).splitlines()
            kind = rng.randrange(4)
            if kind == 0:
                lines.insert(rng.randint(2, len(lines)), rng.choice(_FAULTS))
            elif kind == 1:
                lines[1] = rng.choice(["p -1 0 multi", "p 3 x multi", "p 3 1 foo", "p 3 1", "# no header"])
            elif kind == 2:
                lines.append(lines[-1] if len(lines) > 2 else "0 1 1")
            else:
                bad = rng.choice(_FAULTS)
                lines[2:2] = [bad, bad]
            text = "\n".join(lines) + "\n"
            errors = []
            for parse in (read_graph, reference_read_graph):
                try:
                    parse(text)
                except Exception as exc:
                    errors.append(type(exc))
                else:
                    errors.append(None)
            assert errors[0] is errors[1], text

    def test_calls_share_no_state(self):
        rng = random.Random(5)
        texts = [_edge_list_text(rng, mode) for mode in (WEIGHTED, MULTI, WEIGHTED, WEIGHTED)]
        alone = [read_graph(t) for t in texts]
        for a, b in itertools.permutations(range(len(texts)), 2):
            read_graph(texts[a])
            assert read_graph(texts[b]) == alone[b]
        # A line parsed under one header is parsed again under the next.
        assert read_graph("p 3 1 weighted\n0 1 1/2\n").edges == ((0, 1, Fraction(1, 2)),)
        with pytest.raises(InvalidInputError, match="line 2: malformed edge"):
            read_graph("p 3 1 multi\n0 1 1/2\n")
        with pytest.raises(InvalidInputError, match="line 2: endpoint '1'"):
            read_graph("p 1 1 weighted\n0 1 1/2\n")
