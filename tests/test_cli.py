import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kcut import scheme
from kcut.cli import main
from kcut.graph import cut_weight, read_graph

TRIANGLE = "p 3 3 multi\n0 1 1\n1 2 1\n0 2 1\n"
C4 = "p 4 4 multi\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n"
BRIDGED = "p 6 7 multi\n0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 1\n"
# An 8-cycle of 500-fold edges: at epsilon 1/2 the keep-rate is about 0.83.
HEAVY_RING = "p 8 8 multi\n0 1 500\n1 2 500\n2 3 500\n3 4 500\n4 5 500\n5 6 500\n6 7 500\n0 7 500\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunModes:
    def test_oracle_triangle(self, tmp_path, capsys):
        path = write(tmp_path, "tri.g", TRIANGLE)
        code, out, _ = run_cli(["run", "--input", path, "--k", "2", "--mode", "oracle", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "2"
        assert report["schema"] == 1

    def test_exact_c4_no(self, tmp_path, capsys):
        path = write(tmp_path, "c4.g", C4)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "exact", "--s", "1", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_exact_c4_yes(self, tmp_path, capsys):
        path = write(tmp_path, "c4.g", C4)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "exact", "--s", "2", "--json"], capsys
        )
        report = json.loads(out)
        assert code == 0 and report["feasible"] and report["value"] == "2"
        labels = report["partition"]
        assert sorted(set(labels)) == [0, 1]

    def test_approx_bridge(self, tmp_path, capsys):
        path = write(tmp_path, "b.g", BRIDGED)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "approx", "--epsilon", "0.3", "--json"],
            capsys,
        )
        report = json.loads(out)
        assert code == 0 and report["value"] == "1"
        assert report["stats"]["branch"] == "main" and report["stats"]["fallback"] is False

    def test_approx_fallback(self, tmp_path, capsys, monkeypatch):
        # With no distribution found within the sweep cap, the scheme falls
        # back to the 2-approximation on the weighted graph: the estimate's
        # run, not a second one.
        monkeypatch.setattr(scheme, "_exact_sweep", lambda *args, **kwargs: None)
        calls = []
        approx2 = scheme.approx2_kcut

        def counted(*args):
            calls.append(args)
            return approx2(*args)

        monkeypatch.setattr(scheme, "approx2_kcut", counted)
        g = read_graph(BRIDGED)
        res = scheme.solve(g, 2, Fraction(3, 10))
        assert len(calls) == 1
        assert res.stats.branch == "fallback"
        assert len(res.partition) == 2
        assert res.value == cut_weight(g, res.partition)
        path = write(tmp_path, "b.g", BRIDGED)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "approx", "--epsilon", "0.3", "--json"],
            capsys,
        )
        report = json.loads(out)
        assert code == 0 and report["value"] == str(res.value)
        assert report["stats"]["branch"] == "fallback" and report["stats"]["fallback"] is True

    def test_approx_epsilon_above_ten(self, tmp_path, capsys):
        # Above 10 the stages run at epsilon = 10 instead of failing rounding.
        out_file = str(tmp_path / "p.g")
        gen = ["generate", "--gen", "planted", "--n", "12", "--k", "3", "--m", "36", "--cross", "3", "--seed", "1"]
        code, _, _ = run_cli(gen + ["--out", out_file], capsys)
        assert code == 0
        code, out, err = run_cli(
            ["run", "--input", out_file, "--k", "3", "--mode", "approx", "--epsilon", "20", "--json"], capsys
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["epsilon"] == "20" and report["value"] == "3"

    def test_decompose(self, tmp_path, capsys):
        path = write(tmp_path, "b.g", BRIDGED)
        out_file = tmp_path / "dec.txt"
        code, out, _ = run_cli(
            [
                "run", "--input", path, "--k", "2", "--mode", "decompose", "--s", "1",
                "--emit-decomposition", str(out_file), "--json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_adhesion"] <= 1
        assert out_file.read_text().splitlines() == report["decomposition"]

    def test_decompose_weighted_exit2(self, tmp_path, capsys):
        path = write(tmp_path, "w.g", "p 3 2 weighted\n0 1 1\n1 2 1\n")
        code, out, err = run_cli(["run", "--input", path, "--k", "2", "--mode", "decompose", "--s", "1"], capsys)
        assert code == 2 and not out
        assert "decomposition" in err

    def test_sparsify(self, tmp_path, capsys):
        path = write(tmp_path, "b.g", BRIDGED)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "sparsify", "--epsilon", "1", "--json"],
            capsys,
        )
        report = json.loads(out)
        assert code == 0
        assert report["stripped_weight"] == 1
        assert report["hit_k_components"] is True

    def test_malformed_input_exit2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.g", "p 3 1 multi\n0 1\n")
        code, _, err = run_cli(["run", "--input", path, "--k", "2", "--mode", "oracle"], capsys)
        assert code == 2
        assert "line 2" in err

    def test_record_error_names_line_exit2(self, tmp_path, capsys):
        path = write(tmp_path, "loop.g", "p 3 2 multi\n0 1 1\n2 2 1\n")
        code, out, err = run_cli(["run", "--input", path, "--k", "2", "--mode", "oracle"], capsys)
        assert code == 2 and not out
        assert err == "error: line 3: self-loop at vertex '2'\n"

    def test_missing_file_exit2(self, capsys):
        code, _, err = run_cli(["run", "--input", "/nonexistent", "--k", "2", "--mode", "oracle"], capsys)
        assert code == 2

    def test_non_utf8_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "binary.g"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\xfa p 2 1 multi\n0 1 1\n")
        code, _, err = run_cli(["run", "--input", str(path), "--k", "2", "--mode", "oracle"], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")

    def test_approx_zero_weight_edge(self, tmp_path, capsys):
        # Two triangles joined only by a weight-0 record: the zero cut.
        text = "p 6 7 weighted\n0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 0\n"
        path = write(tmp_path, "zero.g", text)
        code, out, _ = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "approx", "--epsilon", "1/2", "--json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "0"
        assert report["stats"]["branch"] == "components"

    def test_scheme_stage_error_exit2(self, tmp_path, capsys, monkeypatch):
        from kcut import scheme as scheme_mod
        from kcut.graph import InvalidInputError

        def boom(*args, **kwargs):
            raise InvalidInputError("synthetic failure")

        monkeypatch.setattr(scheme_mod, "strip_cheap_2cuts", boom)
        path = write(tmp_path, "b.g", BRIDGED)
        code, out, err = run_cli(
            ["run", "--input", path, "--k", "2", "--mode", "approx", "--epsilon", "1/2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "error: stripping stage failed: synthetic failure" in err.splitlines()

    def test_exact_packed_trees_weighted_exit2(self, tmp_path, capsys):
        # Zero weights once divided the packer's costs by zero.
        path = write(tmp_path, "zero.g", "p 3 2 weighted\n0 1 0\n1 2 0\n")
        argv = ["run", "--input", path, "--k", "2", "--mode", "exact", "--s", "1", "--trees", "2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out
        assert err == "error: tree packing expects an unweighted multigraph\n"

    def test_oracle_too_large_exit3(self, tmp_path, capsys):
        big = "p 15 14 multi\n" + "\n".join(f"{i} {i+1} 1" for i in range(14)) + "\n"
        path = write(tmp_path, "big.g", big)
        code, _, err = run_cli(["run", "--input", path, "--k", "2", "--mode", "oracle"], capsys)
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--mode", "oracle"],
            ["--mode", "exact", "--s", "2"],
            ["--mode", "approx", "--epsilon", "0.5"],
            ["--mode", "decompose", "--s", "1"],
            ["--mode", "sparsify", "--epsilon", "1/2"],
        ],
    )
    def test_byte_identical_json(self, tmp_path, extra):
        path = write(tmp_path, "b.g", BRIDGED)
        argv = [sys.executable, "-m", "kcut.cli", "run", "--input", path, "--k", "2", "--seed", "7", "--json"] + extra
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.strip()


def golden_cases():
    """(arguments, stdout) pairs of ``cli_golden.txt``: a line of ``kcut run``
    arguments, then the JSON line it printed at seed 11.  The input is
    BRIDGED (``b.g``) unless the line names ``--input heavy_ring.g``, the
    one sampled case (rate < 1).  A change that alters the report on purpose
    records the file again and says why."""
    lines = (Path(__file__).parent / "cli_golden.txt").read_text().splitlines(keepends=True)
    return [(lines[i].strip(), lines[i + 1]) for i in range(0, len(lines), 2)]


class TestGoldenJson:
    """The JSON report stays byte-identical from one commit to the next, not
    only from one run to the next; the exact cases at s = 0 and 2 solve
    ``b.g`` as one six-vertex bag."""

    @pytest.mark.parametrize("args,expected", golden_cases())
    def test_matches_recorded_output(self, tmp_path, capsys, monkeypatch, args, expected):
        write(tmp_path, "b.g", BRIDGED)
        write(tmp_path, "heavy_ring.g", HEAVY_RING)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["run", "--input", "b.g", "--seed", "11", "--json"] + args.split(), capsys)
        assert code == 0
        assert out == expected


class TestGenerate:
    def test_random_reproducible(self, tmp_path, capsys):
        code, out1, _ = run_cli(["generate", "--gen", "random", "--n", "6", "--m", "9", "--seed", "3"], capsys)
        assert code == 0
        code, out2, _ = run_cli(["generate", "--gen", "random", "--n", "6", "--m", "9", "--seed", "3"], capsys)
        assert out1 == out2
        from kcut.graph import read_graph

        g = read_graph(out1)
        assert g.n == 6 and sum(w for _, _, w in g.edges) == 9

    def test_planted_bound_recorded(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["generate", "--gen", "planted", "--n", "9", "--m", "12", "--k", "2", "--cross", "3", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert "optimum k-cut <= 3" in out
        from kcut.cuts import oracle_exact_kcut
        from kcut.graph import read_graph

        g = read_graph(out)
        _, opt = oracle_exact_kcut(g, 2)
        assert opt <= 3

    def test_planted_zero_cross_disconnected(self, capsys):
        code, out, _ = run_cli(
            ["generate", "--gen", "planted", "--n", "9", "--k", "3", "--cross", "0"], capsys
        )
        assert code == 0
        from kcut.graph import cc, read_graph

        assert cc(read_graph(out)) >= 3

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "--gen planted --n 20 --k 3 --m 60 --cross 3 --seed 1",
                "0200923e1ced29bc9df5b05112d57cf6488d37e4581982442f7b2aebca8eb49a",
            ),
            (
                "--gen random --n 14 --m 280 --seed 4",
                "e43b9974a75fd9f597c5b79fae33d89c25ef847575422e348672348ed48c9932",
            ),
            (
                "--gen planted --n 9 --k 4 --m 10 --cross 7 --seed 3",
                "b5650e3a21b2a682bd41a8ee69de73fae848f75c097cd68cfafbddccc54cee19",
            ),
        ],
    )
    def test_output_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(["generate"] + argv.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_incompatible_params_exit2(self, capsys):
        code, _, _ = run_cli(["generate", "--gen", "random", "--n", "1", "--m", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("k,cross", [(1, 1), (2, -1)])
    def test_planted_bad_cross_exit2(self, capsys, k, cross):
        argv = ["generate", "--gen", "planted", "--n", "5", "--k", str(k), "--cross", str(cross)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and not out
        assert err.startswith("error: ")
