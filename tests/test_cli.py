"""End-to-end tests of the command-line surface and file formats."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ppmproj
from ppmproj import baselines
from ppmproj import io as pio
from ppmproj.bench import BENCH_HEADER, default_grid, run_bench, make_instance
from ppmproj.cli import main
from ppmproj.generate import random_instance
from ppmproj.oracle import oracle_project


@pytest.fixture
def chain_files(tmp_path):
    tree = tmp_path / "chain.tree"
    matrix = tmp_path / "chain.csv"
    tree.write_text("0 1\n")
    matrix.write_text("0.5\n0.7\n")
    return tree, matrix


class TestProjectCommand:
    def test_chain_hand_trace(self, chain_files, tmp_path, capsys):
        tree, matrix = chain_files
        out = tmp_path / "result.json"
        code = main(["project", str(tree), str(matrix), "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total_cost"] == pytest.approx(0.5, abs=1e-12)
        assert payload["cost_per_column"] == pytest.approx([0.5], abs=1e-12)
        assert payload["t_star"] == pytest.approx([-0.5], abs=1e-12)
        m = np.array(payload["m_star"])
        assert m[:, 0] == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_non_finite_entry_reported_with_position(self, chain_files,
                                                    tmp_path, capsys):
        tree, _ = chain_files
        matrix = tmp_path / "nan.csv"
        matrix.write_text("0.5,0.1\nnan,0.2\n")
        assert main(["project", str(tree), str(matrix)]) == 2
        assert "nan.csv:2:1: expected a finite number, got 'nan'" in \
            capsys.readouterr().err

    def test_single_node(self, tmp_path):
        tree = tmp_path / "one.tree"
        matrix = tmp_path / "one.csv"
        tree.write_text("0\n")
        matrix.write_text("0.4\n")
        out = tmp_path / "res.json"
        assert main(["project", str(tree), str(matrix), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["m_star"] == [[1.0]]
        assert payload["total_cost"] == pytest.approx(0.6, abs=1e-12)

    def test_malformed_parent_exits_2(self, tmp_path, capsys):
        tree = tmp_path / "bad.tree"
        matrix = tmp_path / "m.csv"
        tree.write_text("0 3\n")
        matrix.write_text("0.5\n0.7\n")
        assert main(["project", str(tree), str(matrix)]) == 2
        assert "outside" in capsys.readouterr().err

    def test_non_numeric_matrix_exits_2_with_position(self, tmp_path, capsys):
        tree = tmp_path / "t.tree"
        matrix = tmp_path / "m.csv"
        tree.write_text("0 1\n")
        matrix.write_text("0.5\nabc\n")
        assert main(["project", str(tree), str(matrix)]) == 2
        err = capsys.readouterr().err
        assert ":2" in err and "abc" in err

    def test_shape_mismatch_exits_2(self, tmp_path):
        tree = tmp_path / "t.tree"
        matrix = tmp_path / "m.csv"
        tree.write_text("0 1\n")
        matrix.write_text("0.5\n0.7\n0.1\n")
        assert main(["project", str(tree), str(matrix)]) == 2

    def test_out_of_range_warning(self, chain_files, tmp_path, capsys):
        tree, matrix = chain_files
        matrix.write_text("1.5\n0.7\n")
        out = tmp_path / "r.json"
        assert main(["project", str(tree), str(matrix), "-o", str(out)]) == 0
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_huge_column_writes_finite_costs(self, tmp_path):
        tree = tmp_path / "t.tree"
        matrix = tmp_path / "huge.csv"
        out = tmp_path / "r.json"
        tree.write_text("0 1 1 2\n")
        matrix.write_text("".join(f"{1e300 * v!r}\n" for v in (0.3, 0.5, 0.2, 0.9)))
        assert main(["project", str(tree), str(matrix), "-o", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["total_cost"] == payload["cost_per_column"][0] > 1e300

    def test_degeneracy_maps_to_exit_3(self, chain_files, monkeypatch, capsys):
        from ppmproj.projection import DegeneracyError
        import ppmproj.cli as cli

        def boom(tree, fhat):
            raise DegeneracyError("forced")

        monkeypatch.setattr(cli, "project_matrix", boom)
        tree, matrix = chain_files
        assert main(["project", str(tree), str(matrix)]) == 3


class TestSearchCommand:
    def test_noiseless_q5(self, tmp_path):
        gen = main(["gen", "--q", "5", "--p", "2", "--seed", "3", "--feasible",
                    "--out-tree", str(tmp_path / "t.tree"),
                    "--out-matrix", str(tmp_path / "m.csv")])
        assert gen == 0
        out = tmp_path / "report.json"
        assert main(["search", str(tmp_path / "m.csv"), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["trees_evaluated"] == 125
        assert payload["trees_rescored"] <= payload["trees_swept"] <= 125
        assert payload["trees_swept"] <= payload["nodes_bounded"]
        assert payload["ranked"][0]["cost"] <= 1e-9

    def test_k_entries(self, tmp_path):
        matrix = tmp_path / "m.csv"
        rng = np.random.default_rng(0)
        pio.save_matrix(rng.standard_normal((5, 1)), matrix)
        out = tmp_path / "report.json"
        assert main(["search", str(matrix), "--k", "5", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["ranked"]) == 5
        assert "m_star" not in payload["ranked"][0]

    def test_include_solutions_flag(self, tmp_path):
        matrix = tmp_path / "m.csv"
        pio.save_matrix(np.array([[0.9], [0.5], [0.2]]), matrix)
        out = tmp_path / "report.json"
        assert main(["search", str(matrix), "--include-solutions",
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "m_star" in payload["ranked"][0]

    def test_q12_refused_without_force(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        pio.save_matrix(np.zeros((12, 1)), matrix)
        assert main(["search", str(matrix)]) == 2
        err = capsys.readouterr().err
        assert "12^10" in err
        assert str(12 ** 10) in err
        assert "--force" in err
        assert "force=True" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_leaf_weight_exits_2(self, tmp_path, capsys, weight):
        matrix = tmp_path / "m.csv"
        pio.save_matrix(np.full((4, 1), 0.25), matrix)
        args = ["search", str(matrix), "--q-penalty", f"leaves:{weight}", "--k", "2"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_overflowing_scale_exits_3(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        pio.save_matrix(1e160 * np.random.default_rng(0).random((5, 2)), matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["search", str(matrix), "--k", "3"]) == 3
        captured = capsys.readouterr()
        assert "numerical degeneracy" in captured.err
        assert captured.out == ""

    def test_non_numeric_leaf_weight_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        pio.save_matrix(np.full((4, 1), 0.25), matrix)
        assert main(["search", str(matrix), "--q-penalty", "leaves:abc"]) == 2
        captured = capsys.readouterr()
        assert "penalty weight must be a number, got 'leaves:abc'" in captured.err
        assert captured.out == ""


class TestGenCommand:
    def test_q1(self, tmp_path):
        t, m = tmp_path / "t.tree", tmp_path / "m.csv"
        assert main(["gen", "--q", "1", "--out-tree", str(t),
                     "--out-matrix", str(m)]) == 0
        assert t.read_text().strip() == "0"
        assert pio.load_matrix(m).shape == (1, 1)

    def test_no_columns_exits_2(self, tmp_path, capsys):
        t, m = tmp_path / "t.tree", tmp_path / "m.csv"
        assert main(["gen", "--q", "5", "--p", "0", "--out-tree", str(t),
                     "--out-matrix", str(m)]) == 2
        assert "p must be >= 1" in capsys.readouterr().err
        assert not m.exists()
        with pytest.raises(ValueError, match="p must be >= 1"):
            random_instance(5, p=0)

    def test_negative_seed_exits_2_naming_the_option(self, tmp_path, capsys):
        t, m = tmp_path / "t.tree", tmp_path / "m.csv"
        assert main(["gen", "--q", "5", "--seed", "-1", "--out-tree", str(t),
                     "--out-matrix", str(m)]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not t.exists() and not m.exists()

    def test_seeded_runs_identical(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            t, m = tmp_path / f"t{tag}.tree", tmp_path / f"m{tag}.csv"
            assert main(["gen", "--q", "30", "--p", "2", "--seed", "7",
                         "--out-tree", str(t), "--out-matrix", str(m)]) == 0
            files.append((t.read_bytes(), m.read_bytes()))
        assert files[0] == files[1]

    def test_draws_pinned_for_a_seed(self, tmp_path):
        # The tree, then either one flat-Dirichlet draw of M (with F = U M)
        # or one standard normal draw of F, all from one generator seeded
        # with --seed: a given seed always writes the same bytes.
        from ppmproj import ancestry_matrix
        from ppmproj.generate import GaltonWatsonSpec, galton_watson_tree
        for feasible in (False, True):
            t, m = tmp_path / "t.tree", tmp_path / "m.csv"
            args = ["gen", "--q", "12", "--p", "3", "--seed", "11",
                    "--out-tree", str(t), "--out-matrix", str(m)]
            assert main(args + (["--feasible"] if feasible else [])) == 0
            rng = np.random.default_rng(11)
            tree = galton_watson_tree(GaltonWatsonSpec(q=12), rng=rng)
            if feasible:
                fhat = (ancestry_matrix(tree).astype(float)
                        @ rng.dirichlet(np.ones(12), size=3).T)
            else:
                fhat = rng.standard_normal((12, 3))
            want_t, want_m = tmp_path / "want.tree", tmp_path / "want.csv"
            pio.save_tree(tree, want_t)
            pio.save_matrix(fhat, want_m)
            assert t.read_bytes() == want_t.read_bytes()
            assert m.read_bytes() == want_m.read_bytes()

    def test_feasible_projects_to_zero_cost(self, tmp_path):
        t, m = tmp_path / "t.tree", tmp_path / "m.csv"
        assert main(["gen", "--q", "9", "--p", "2", "--seed", "1",
                     "--feasible", "--out-tree", str(t),
                     "--out-matrix", str(m)]) == 0
        from ppmproj import project_matrix
        tree = pio.load_tree(t)
        _, total = project_matrix(tree, pio.load_matrix(m))
        assert total <= 1e-9


class TestPruferCommand:
    def test_round_trip(self, tmp_path, capsys):
        assert main(["prufer", "decode", "1 1", "--q", "4"]) == 0
        text = capsys.readouterr().out.strip()
        assert text == "0 1 1 1"
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(text + "\n")
        assert main(["prufer", "encode", str(tree_file)]) == 0
        assert capsys.readouterr().out.strip() == "1 1"

    def test_two_node_decode(self, capsys):
        assert main(["prufer", "decode", "-", "--q", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0 1"

    def test_bad_code_exits_2(self, capsys):
        assert main(["prufer", "decode", "9 1", "--q", "4"]) == 2
        assert "code[0] = 9 is outside 1..4" in capsys.readouterr().err

    def test_non_integer_token_is_named_with_its_position(self, capsys):
        # Positions count from 0, as in the range message above and in
        # ``tree.decode_prufer``.
        for token in ("x", "2.5"):
            assert main(["prufer", "decode", f"1 {token}", "--q", "4"]) == 2
            assert f"code[1] = '{token}' is not an integer" in capsys.readouterr().err


class TestUnreadableFiles:
    """A file named on the command line that cannot be opened is an input
    error: ``error: <path>: <reason>`` and exit 2, with no traceback."""

    @staticmethod
    def _exits_2(capsys, args, path, reason):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: {reason}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_tree(self, chain_files, tmp_path, capsys):
        _, matrix = chain_files
        missing = tmp_path / "missing.tree"
        self._exits_2(capsys, ["project", str(missing), str(matrix)], missing,
                      "No such file or directory")

    def test_missing_matrix(self, chain_files, tmp_path, capsys):
        tree, _ = chain_files
        missing = tmp_path / "missing.csv"
        self._exits_2(capsys, ["project", str(tree), str(missing)], missing,
                      "No such file or directory")

    def test_search_missing_matrix(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        self._exits_2(capsys, ["search", str(missing)], missing,
                      "No such file or directory")

    def test_prufer_encode_missing_tree(self, tmp_path, capsys):
        missing = tmp_path / "missing.tree"
        self._exits_2(capsys, ["prufer", "encode", str(missing)], missing,
                      "No such file or directory")

    def test_directory_as_tree(self, chain_files, tmp_path, capsys):
        _, matrix = chain_files
        self._exits_2(capsys, ["project", str(tmp_path), str(matrix)], tmp_path,
                      "Is a directory")

    @pytest.mark.parametrize("command", ["project", "search"])
    def test_output_into_missing_directory(self, chain_files, tmp_path, capsys,
                                           command):
        tree, matrix = chain_files
        out = tmp_path / "nowhere" / "result.json"
        inputs = [str(tree), str(matrix)] if command == "project" else [str(matrix)]
        self._exits_2(capsys, [command, *inputs, "-o", str(out)], out,
                      "No such file or directory")

    def test_bench_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nowhere" / "bench.csv"
        self._exits_2(capsys, ["bench", "--sizes", "5", "--trials", "1",
                               "--out", str(out)], out, "No such file or directory")

    def test_gen_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nowhere" / "t.tree"
        self._exits_2(capsys, ["gen", "--q", "3", "--out-tree", str(out),
                               "--out-matrix", str(tmp_path / "m.csv")],
                      out, "No such file or directory")


class TestMatrixFormat:
    def test_seventeen_digit_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        mat = np.array([[np.pi, 1.0 / 3.0], [1e-17, -2.5000000000000004]])
        pio.save_matrix(mat, path)
        back = pio.load_matrix(path)
        assert np.array_equal(back, mat)

    def test_tree_round_trip(self, tmp_path):
        path = tmp_path / "t.tree"
        from ppmproj import decode_prufer
        tree = decode_prufer((3, 1, 4, 4), 6)
        pio.save_tree(tree, path)
        assert pio.load_tree(path) == tree

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(pio.ParseError, match="expected 2"):
            pio.load_matrix(path)

    @pytest.mark.parametrize("text, column", [
        ("0  1 x\n", 6), ("  0 1 x\n", 7), ("0\t1 x\n", 5)])
    def test_tree_parse_error_column(self, tmp_path, text, column):
        path = tmp_path / "t.tree"
        path.write_text("# header\n" + text)
        with pytest.raises(pio.ParseError) as info:
            pio.load_tree(path)
        assert (info.value.line, info.value.column) == (2, column)

    @pytest.mark.parametrize("text, column", [
        (" 3,y\n", 4), ("3, y\n", 4), (" z,3\n", 2), ("3,,4\n", 3),
        ("nan,0.2\n", 1), ("0.1, inf\n", 6), ("-inf,3\n", 1), ("3,1e999\n", 3)])
    def test_matrix_parse_error_column(self, tmp_path, text, column):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n" + text)
        with pytest.raises(pio.ParseError) as info:
            pio.load_matrix(path)
        assert (info.value.line, info.value.column) == (2, column)

    def test_comment_header_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# samples s1,s2\n0.1,0.2\n0.3,0.4\n")
        assert pio.load_matrix(path).shape == (2, 2)


class TestBench:
    def test_exact_rows_match_oracle(self, tmp_path):
        rows, summary = run_bench([10], ["exact"], trials=3, seed=5)
        assert len(rows) == 3
        assert BENCH_HEADER == "size,solver,trial,seed,time_sec,error,converged"
        for row in rows:
            seed, tree, fhat = make_instance(5, 10, row.trial)
            assert seed == row.seed
            from ppmproj import project_incremental
            res = project_incremental(tree, fhat[:, 0])
            orc = oracle_project(tree, fhat[:, 0])
            assert res.cost == pytest.approx(orc.cost, abs=1e-9)

    def test_csv_deterministic_modulo_time(self, tmp_path):
        import io as _io
        outputs = []
        for _ in range(2):
            buf = _io.StringIO()
            run_bench([8], ["exact", "pgd-primal"], trials=2, seed=9, out=buf)
            lines = buf.getvalue().strip().splitlines()
            scrubbed = []
            for line in lines[1:]:
                parts = line.split(",")
                parts[4] = "T"
                scrubbed.append(",".join(parts))
            outputs.append((lines[0], scrubbed))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == BENCH_HEADER

    def test_autotune_winner_is_not_rerun(self, monkeypatch):
        calls = {}

        def counting(solver_id):
            solve = baselines.SOLVERS[solver_id]

            def wrapped(tree, fcol, cfg, reference_m=None):
                key = (solver_id, tree.q, tuple(fcol))
                calls[key] = calls.get(key, 0) + 1
                return solve(tree, fcol, cfg, reference_m=reference_m)
            return wrapped

        solvers = ["admm-primal", "admm-dual", "pgd-primal", "pgd-dual"]
        for solver_id in solvers:
            monkeypatch.setitem(baselines.SOLVERS, solver_id, counting(solver_id))
        run_bench([6, 9], solvers, trials=2, seed=3, tol=1e-3, max_iters=2000)
        assert len(calls) == 2 * 2 * len(solvers)
        for size in (6, 9):
            for trial in range(2):
                _, tree, fhat = make_instance(3, size, trial)
                for solver_id in solvers:
                    grid = default_grid(solver_id, tree, 1e-3, 2000)
                    key = (solver_id, size, tuple(fhat[:, 0]))
                    assert calls[key] == len(grid)

    def test_cli_bench_subcommand(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "6", "--solvers", "exact",
                     "--trials", "2", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 3

    def test_unknown_solver_exits_2(self, capsys):
        assert main(["bench", "--sizes", "6", "--solvers", "magic",
                     "--trials", "1"]) == 2

    @pytest.mark.parametrize("options, named", [
        (["--trials", "0"], "--trials"),
        (["--trials", "-2"], "--trials"),
        (["--sizes", "0"], "--sizes"),
        (["--sizes", "6,-1"], "--sizes"),
        (["--sizes", "6,x"], "--sizes"),
        (["--cmin", "3", "--cmax", "1"], "--cmin"),
        (["--cmin", "0"], "--cmin"),
        (["--solvers", "exact,magic"], "--solvers"),
        (["--solvers", "exact,pgd-primal", "--tol", "0"], "--tol"),
        (["--tol", "-0.001"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--seed", "-1"], "--seed"),
    ])
    def test_bad_option_exits_2_before_any_output(self, tmp_path, capsys,
                                                  options, named):
        out = tmp_path / "bench.csv"
        assert main(["bench", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert main(["bench", *options, "--out", str(out)]) == 2
        assert not out.exists()

    def test_exact_mean_time_subquadratic(self):
        rows, summary = run_bench([100, 1000], ["exact"], trials=3, seed=2)
        t_small = summary[(100, "exact")]
        t_large = summary[(1000, "exact")]
        slope = np.log(t_large / t_small) / np.log(10.0)
        assert slope < 2.0


def test_import_loads_no_third_party_package_but_numpy():
    """``import ppmproj, ppmproj.cli`` pulls in the standard library and
    numpy only; every CLI call pays for whatever else it loads."""
    src = pathlib.Path(ppmproj.__file__).resolve().parents[1]
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import ppmproj, ppmproj.cli\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before\n"
        "        if not m.startswith('__')}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'ppmproj'}))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
