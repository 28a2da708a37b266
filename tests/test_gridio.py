import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids.adaptive import AdaptControls, adapt, serialize_state
from sparsegrids.cli import cli_main
from sparsegrids.evalkit import evaluate_on_grid, interpolate, quadrature
from sparsegrids import evalkit, gridio, testfunctions
from sparsegrids.gridio import GridBundle, GridFileError, export_points, load_grid, save_grid

EXPSUM = lambda y: math.exp(float(np.sum(y)))
# written by the format-1 CLI: adapt --dim 2 --fn expsum --knots leja --domain=-1,1
# --lev2knots linear --nested --max-pts 30
FORMAT_1 = os.path.join(os.path.dirname(__file__), "data", "adapt_format1.json")


@pytest.fixture
def saved_bundle(tmp_path, smolyak_cc_unit_w3):
    grid, reduced = smolyak_cc_unit_w3
    table = evaluate_on_grid(EXPSUM, reduced)
    path = tmp_path / "grid.json"
    save_grid(path, grid, reduced, table)
    return path, grid, reduced, table


class TestRoundTrip:
    def test_numeric_arrays_bitwise(self, saved_bundle):
        path, grid, reduced, table = saved_bundle
        bundle = load_grid(path)
        assert bundle.reduced.size == 29
        assert np.array_equal(bundle.reduced.knots, reduced.knots)
        assert np.array_equal(bundle.reduced.weights, reduced.weights)
        assert np.array_equal(bundle.reduced.m, reduced.m)
        assert np.array_equal(bundle.reduced.n, reduced.n)
        assert np.array_equal(bundle.values.values, table.values)
        for a, b in zip(bundle.grid.tensors, grid.tensors):
            assert a.idx == b.idx and a.coeff == b.coeff and a.m == b.m
        for got, want in zip(bundle.grid.extended(), grid.extended()):
            assert np.array_equal(got, want)

    def test_double_round_trip_stable(self, saved_bundle, tmp_path):
        path, *_ = saved_bundle
        bundle = load_grid(path)
        path2 = tmp_path / "again.json"
        save_grid(path2, bundle.grid, bundle.reduced, bundle.values)
        assert json.load(open(path)) == json.load(open(path2))

    def test_optional_sections_omitted(self, tmp_path, smolyak_cc_unit_w3):
        grid, _ = smolyak_cc_unit_w3
        path = tmp_path / "bare.json"
        save_grid(path, grid)
        doc = json.load(open(path))
        assert "reduced" not in doc and "values" not in doc and "adapt_state" not in doc
        bundle = load_grid(path)
        assert bundle.reduced is None and bundle.values is None

    def test_corrupt_file_names_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "dim": ')
        with pytest.raises(GridFileError, match="byte"):
            load_grid(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"format_version": 9}')
        with pytest.raises(GridFileError, match="version"):
            load_grid(path)

    def test_adapt_state_round_trip(self, tmp_path):
        res = adapt(EXPSUM, 2, sg.cc_family(0, 1), sg.LevelMap.DOUBLING,
                    controls=AdaptControls(nested=True, prof_tol=1e-3))
        path = tmp_path / "ad.json"
        save_grid(path, res.extended, res.reduced, res.values_on_reduced,
                  serialize_state(res.internal))
        bundle = load_grid(path)
        assert len(bundle.adapt_state["points"][0]) == res.num_evals
        assert bundle.adapt_state["accepted"] == [list(i) for i in res.internal.accepted]
        # each follows from the fields above
        assert not {"history", "num_evals", "active_dims"} & set(bundle.adapt_state)


class TestFormat1:
    RESUME = ["adapt", "--dim", "2", "--fn", "expsum", "--knots", "leja", "--domain=-1,1",
              "--lev2knots", "linear", "--nested", "--max-pts", "60"]

    @pytest.fixture
    def resaved(self, tmp_path):
        old = load_grid(FORMAT_1)
        path = tmp_path / "format2.json"
        save_grid(path, old.grid, old.reduced, old.values, old.adapt_state)
        return old, path

    def test_loads_to_the_bundle_of_its_format_2_resave(self, resaved):
        old, path = resaved
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2 and "tensors" not in doc
        assert set(doc["reduced"]) == {"knots", "weights", "tol"}
        new = load_grid(path)
        assert new.grid == old.grid
        for name in ("knots", "weights", "m", "n", "tol"):
            assert np.array_equal(getattr(new.reduced, name), getattr(old.reduced, name)), name
        assert np.array_equal(new.values.values, old.values.values)
        assert new.adapt_state == old.adapt_state
        assert not {"history", "num_evals", "active_dims"} & set(old.adapt_state)

    def test_resume_from_either_file_is_identical(self, resaved, tmp_path, capsys):
        _, path = resaved
        outputs = []
        for source in (FORMAT_1, str(path)):
            out = tmp_path / f"resumed-{len(outputs)}.json"
            assert cli_main(self.RESUME + ["--resume", source, "-o", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("points: ")


class TestExports:
    def test_knots_rows(self, saved_bundle, tmp_path):
        path, *_ = saved_bundle
        out = tmp_path / "knots.csv"
        export_points(load_grid(path), "knots", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "y1,y2,weight"
        assert len(lines) == 30

    def test_midx_rows(self, saved_bundle, tmp_path):
        path, *_ = saved_bundle
        out = tmp_path / "mi.csv"
        export_points(load_grid(path), "midx_set", out)
        assert len(out.read_text().splitlines()) == 11  # 10 indices + header

    def test_example_set_export(self, tmp_path):
        s = sg.MultiIndexSet([[1, 1], [1, 2], [2, 1], [3, 1]])
        grid = sg.build_sparse_grid(s, sg.cc_family(0, 1), sg.LevelMap.LINEAR)
        out = tmp_path / "mi.csv"
        export_points(GridBundle(grid=grid), "midx_set", out)
        assert len(out.read_text().splitlines()) == 5

    def test_interp_samples_two_dim(self, saved_bundle, tmp_path):
        path, *_ = saved_bundle
        out = tmp_path / "interp.csv"
        export_points(load_grid(path), "interp_samples", out, resolution=7)
        lines = out.read_text().splitlines()
        assert lines[0] == "y1,y2,value"
        assert len(lines) == 1 + 49

    def test_interp_samples_one_dim(self, tmp_path):
        grid = sg.build_sparse_grid(sg.MultiIndexSet([[1], [2], [3]]), sg.cc_family(-1, 2),
                                    sg.LevelMap.DOUBLING)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: [math.exp(y[0]), y[0] ** 3], reduced)
        out = tmp_path / "interp.csv"
        export_points(GridBundle(grid=grid, reduced=reduced, values=table), "interp_samples",
                      out, resolution=6)
        lines = out.read_text().splitlines()
        assert lines[0] == "y1,value1,value2"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], np.linspace(-1, 2, 6))
        want = evalkit.Interpolant(grid, reduced, table)(rows[:, :1].T)
        assert np.array_equal(rows[:, 1:], want.T)

    @pytest.mark.parametrize("res", [0, -2])
    def test_resolution_below_one_rejected(self, saved_bundle, tmp_path, res):
        path, *_ = saved_bundle
        out = tmp_path / "interp.csv"
        with pytest.raises(ValueError, match=f"^resolution {res} is below 1 lattice point"):
            export_points(load_grid(path), "interp_samples", out, resolution=res)
        assert not out.exists()

    def test_two_dim_cuts_for_four_dims(self, tmp_path):
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(4, 2, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(
            lambda y: math.exp(y[0] + 0.5 * y[1] + 1.5 * y[2] + 2 * y[3]), reduced)
        bundle = GridBundle(grid=grid, reduced=reduced, values=table)
        out = tmp_path / "cuts.csv"
        export_points(bundle, "interp_samples", out, resolution=5,
                      cuts=[(1, 2), (3, 4), (1, 4)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("cut_dim1,cut_dim2")
        assert len(lines) == 1 + 3 * 25
        # non-cut coordinates sit at the domain midpoint
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(0.5)  # y3 fixed on cut (1,2)

    def test_cuts_share_one_interpolant(self, tmp_path, monkeypatch):
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(3, 3, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        table = evaluate_on_grid(lambda y: [math.exp(y[0] - y[1]), y[2] ** 3], reduced)
        compiles = []
        compile_ = evalkit._compile

        def counted_compile(*args):
            compiles.append(args)
            return compile_(*args)

        monkeypatch.setattr(evalkit, "_compile", counted_compile)
        out = tmp_path / "cuts.csv"
        export_points(GridBundle(grid=grid, reduced=reduced, values=table), "interp_samples",
                      out, resolution=5, cuts=[(1, 2), (2, 3)])
        assert len(compiles) == 1
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        assert rows.shape == (2 * 25, 2 + 3 + 2)
        for k, cut in enumerate([(1, 2), (2, 3)]):
            block = rows[25 * k : 25 * (k + 1)]
            assert np.all(block[:, :2] == cut)
            want = interpolate(grid, reduced, table, block[:, 2:5].T)
            assert np.array_equal(block[:, 5:].T, want)

    def test_knots3d_projection(self, tmp_path):
        rule, lm = sg.preset("SM")
        grid = sg.build_sparse_grid_from_rule(3, 2, sg.cc_family(0, 1), lm, rule)
        reduced = sg.reduce_grid(grid)
        out = tmp_path / "p3.csv"
        export_points(GridBundle(grid=grid, reduced=reduced), "knots3d_projection", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "y1,y2,y3"
        assert len(lines) == 1 + reduced.size

    def test_cut_out_of_range(self, saved_bundle, tmp_path):
        path, *_ = saved_bundle
        bundle = load_grid(path)
        with pytest.raises(ValueError):
            export_points(bundle, "knots3d_projection", tmp_path / "x.csv", dims=(1, 2, 7))


class TestDefaultDomain:
    @pytest.mark.parametrize("dist, box", [
        (sg.DistributionSpec.normal(0.5, 2.0), (-5.5, 6.5)),  # mu -+ 3 sigma
        (sg.DistributionSpec.exponential(1.5), (0.0, 4.0 / 1.5)),  # [0, 4 / rate]
        (sg.DistributionSpec.gamma(1.0, 2.0), (0.0, 4.0)),  # [0, 4 (alpha + 1) / beta]
    ], ids=["normal", "exponential", "gamma"])
    def test_unbounded_support_gets_a_box(self, dist, box):
        rule, _ = sg.preset("TD")
        grid = sg.build_sparse_grid_from_rule(2, 2, (sg.cc_family(-1, 2), sg.gauss_family(dist)),
                                              sg.LevelMap.LINEAR, rule)
        assert np.array_equal(gridio.default_domain(grid), [[-1.0, box[0]], [2.0, box[1]]])


class TestCLI:
    def test_build_reduce_quad(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        assert cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                         "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath]) == 0
        assert cli_main(["reduce", "--grid", gpath]) == 0
        out = capsys.readouterr().out
        assert "reduced size: 29" in out
        assert cli_main(["quad", "--grid", gpath, "--fn", "expsum"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - (math.e - 1) ** 2) <= 5e-4

    def test_cli_matches_library(self, tmp_path, capsys, smolyak_cc_unit_w3):
        grid, reduced = smolyak_cc_unit_w3
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        cli_main(["quad", "--grid", gpath, "--fn", "expsum"])
        cli_value = float(capsys.readouterr().out.splitlines()[-1])
        table = evaluate_on_grid(EXPSUM, reduced)
        assert cli_value == float(quadrature(table, reduced)[0])

    def test_adapt_subcommand(self, tmp_path, capsys):
        apath = str(tmp_path / "ad.json")
        code = cli_main(["adapt", "--dim", "2", "--fn", "expsum", "--knots", "cc",
                         "--domain", "0,1x0,1", "--nested", "--max-pts", "60",
                         "-o", apath])
        assert code == 0
        bundle = load_grid(apath)
        assert bundle.adapt_state is not None
        # resume with a tighter tolerance
        code = cli_main(["adapt", "--dim", "2", "--fn", "expsum", "--knots", "cc",
                         "--domain", "0,1x0,1", "--nested", "--max-pts", "400",
                         "--resume", apath, "-o", str(tmp_path / "ad2.json")])
        assert code == 0

    def test_sobol_demo_prints_paper_values(self, capsys):
        assert cli_main(["sobol", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "0.9709" in out and "0.0244" in out

    @pytest.mark.parametrize("extra", [["--family", "hermite"]])
    def test_sobol_demo_rejects_family_and_threads(self, extra, capsys):
        assert cli_main(["sobol", "--demo"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--family does not apply to sobol --demo" in captured.err

    @pytest.mark.parametrize("extra", [["--grid", "nonexistent.json"], ["--fn", "nosuchfn"],
                                       ["--grid", "nonexistent.json", "--fn", "nosuchfn"]])
    def test_sobol_demo_rejects_grid_and_fn(self, extra, capsys):
        assert cli_main(["sobol", "--demo"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid and --fn do not apply to sobol --demo" in captured.err

    def test_demo_forward_json(self, tmp_path, capsys):
        rpath = str(tmp_path / "rep.json")
        spath = str(tmp_path / "pdf.csv")
        assert cli_main(["demo", "forward", "--w", "3", "--samples", "50",
                         "-o", rpath, "--samples-csv", spath]) == 0
        doc = json.load(open(rpath))
        assert doc["mean"] == pytest.approx(0.0935, abs=1e-3)
        assert len(open(spath).read().splitlines()) == 51

    def test_demo_inverse_json(self, tmp_path):
        rpath = str(tmp_path / "inv.json")
        assert cli_main(["demo", "inverse", "--w", "4", "--samples", "50",
                         "--seed", "1", "-o", rpath]) == 0
        doc = json.load(open(rpath))
        assert np.max(np.abs(np.array(doc["y_map"]) - [0.9, -1.1])) < 0.3
        assert 0.005 <= doc["sigma_eps_estimate"] <= 0.02

    @pytest.mark.parametrize("argv,message", [
        (["inverse", "--sigmas", "0.5,0.5", "--y-star", "0.9,-1.1,0.3"],
         "--y-star has 3 entries, but there are 2 --sigmas"),
        (["inverse", "--N", "3", "--sigmas", "0.5,0.5,0.5"],
         "--y-star has 2 entries, but there are 3 --sigmas"),
        (["inverse", "--N", "3"], "--N 3 does not match the 2 --sigmas"),
        (["inverse", "--N", "2", "--sigmas", "0.5,0.5,0.5", "--y-star", "0.9,-1.1,0.3"],
         "--N 2 does not match the 3 --sigmas"),
        (["forward", "--N", "3"], "--N 3 does not match the 2 --sigmas"),
    ])
    def test_demo_length_mismatch_is_a_usage_error(self, argv, message, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr("sparsegrids.uqdemo.run_inverse_pipeline", no_work)
        monkeypatch.setattr("sparsegrids.uqdemo.forward_uq", no_work)
        assert cli_main(["demo", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert "usage:" in captured.err

    def test_demo_n_defaults_to_the_number_of_sigmas(self, capsys):
        assert cli_main(["demo", "forward", "--sigmas", "0.5,0.3,0.2", "--w", "2",
                         "--samples", "10"]) == 0
        assert len(json.loads(capsys.readouterr().out)["sobol_total"]) == 3

    def test_pce_export(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "2",
                  "--knots", "cc", "--domain=-1,1x-1,1", "-o", gpath])
        out = str(tmp_path / "pce.csv")
        assert cli_main(["pce", "--grid", gpath, "--fn", "linear", "-o", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "p1,p2,coeff"
        degrees = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
        sums = [sum(d) for d in degrees]
        assert sums == sorted(sums)  # ordered by total degree first

    def test_export_subcommand(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        cli_main(["reduce", "--grid", gpath])
        out = str(tmp_path / "knots.csv")
        assert cli_main(["export", "--grid", gpath, "--what", "knots", "-o", out]) == 0
        assert len(open(out).read().splitlines()) == 30

    @pytest.mark.parametrize("g, shown", [("0,1", "weight 1 is 0.0"), ("1,nan", "weight 2 is nan"),
                                          ("-2,1", "weight 1 is -2.0"),
                                          ("1,inf", "weight 2 is inf")])
    def test_build_rejects_unbounded_weights(self, g, shown, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert cli_main(["build", "--dim", "2", "--w", "2", "--preset", "TD", f"--g={g}",
                         "-o", str(gpath)]) == 1
        assert f"error: anisotropy {shown}; weights must be finite and > 0" in \
            capsys.readouterr().err
        assert not gpath.exists()

    @pytest.mark.parametrize("g, dim", [("1,2,3", "2"), ("1,2", "3")])
    def test_build_weight_count_must_match_dim(self, g, dim, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert cli_main(["build", "--dim", dim, "--w", "2", "--g", g, "-o", str(gpath)]) == 1
        captured = capsys.readouterr()
        assert f"error: --g has {len(g.split(','))} weights, but --dim is {dim}" in captured.err
        assert "usage:" in captured.err
        assert not gpath.exists()

    def test_build_rejects_an_empty_index_set(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert cli_main(["build", "--dim", "2", "--w", "-1", "-o", str(gpath)]) == 1
        assert "error: cannot build a sparse grid over an empty multi-index set" in \
            capsys.readouterr().err
        assert not gpath.exists()

    def test_unknown_function_is_user_error(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "2",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        assert cli_main(["quad", "--grid", gpath, "--fn", "nope"]) == 1

    def test_unknown_subcommand_is_user_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_file_is_user_error(self, capsys):
        assert cli_main(["quad", "--grid", "/nonexistent.json", "--fn", "expsum"]) == 1

    # the integral of testfunctions.linear over [0, 1]^33
    LINEAR_33 = 1.0 + 33 * 34 / 4

    def test_build_past_32_dimensions(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        assert cli_main(["build", "--dim", "33", "--preset", "SM", "--w", "1",
                         "--knots", "cc", "--domain", "0,1", "-o", gpath]) == 0
        assert "dim=33 tensors=34" in capsys.readouterr().out
        assert cli_main(["quad", "--grid", gpath, "--fn", "linear"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(self.LINEAR_33, rel=1e-12)

    def test_adapt_past_32_dimensions(self, tmp_path, capsys):
        code = cli_main(["adapt", "--dim", "33", "--fn", "linear", "--knots", "cc",
                         "--domain", "0,1", "--nested", "--max-pts", "100",
                         "-o", str(tmp_path / "a.json")])
        assert code == 0
        integral = float(capsys.readouterr().out.split("integral:")[1])
        assert integral == pytest.approx(self.LINEAR_33, rel=1e-12)

    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(sg.__file__))
        code = ("import sys, sparsegrids.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestCLIMore:
    def test_interp_subcommand(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        out = str(tmp_path / "interp.csv")
        assert cli_main(["interp", "--grid", gpath, "--fn", "expsum",
                         "--res", "6", "-o", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "y1,y2,value"
        assert len(lines) == 1 + 36
        # spot check one sample against the true function (w=3 surrogate)
        y1, y2, v = (float(t) for t in lines[1].split(","))
        assert v == pytest.approx(math.exp(y1 + y2), abs=1e-3)

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from sparsegrids import testfunctions

        def explode(y):
            raise FloatingPointError("overflow")

        monkeypatch.setitem(testfunctions.TEST_FUNCTIONS, "explode", explode)
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "2",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        assert cli_main(["quad", "--grid", gpath, "--fn", "explode"]) == 2

    # no subcommand takes --threads, the ones that evaluate --fn on a whole
    # grid (the last five) included
    @pytest.mark.parametrize("argv", [
        ["build", "--dim", "2", "--w", "2", "-o", "g.json"],
        ["reduce", "--grid", "g.json"],
        ["adapt", "--dim", "2", "--fn", "expsum", "--nested", "-o", "a.json"],
        ["demo", "forward"],
        ["quad", "--grid", "g.json", "--fn", "expsum"],
        ["interp", "--grid", "g.json", "--fn", "expsum", "-o", "i.csv"],
        ["pce", "--grid", "g.json", "--fn", "expsum", "-o", "p.csv"],
        ["sobol", "--grid", "g.json", "--fn", "expsum"],
        ["export", "--grid", "g.json", "--what", "interp_samples", "--fn", "expsum",
         "-o", "e.csv"],
    ])
    def test_threads_rejected_where_nothing_is_evaluated(self, argv, capsys):
        assert cli_main(argv + ["--threads", "2"]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("res", [0, -2])
    @pytest.mark.parametrize("argv", [
        ["interp", "--fn", "expsum"],
        ["export", "--what", "interp_samples", "--fn", "expsum"],
    ])
    def test_resolution_below_one_is_a_user_error(self, tmp_path, capsys, argv, res):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--w", "2", "--domain", "0,1x0,1", "-o", gpath])
        out = tmp_path / "s.csv"
        assert cli_main(argv + ["--grid", gpath, f"--res={res}", "-o", str(out)]) == 1
        assert f"error: resolution {res} is below 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--res", "0"], "resolution 0 is below 1"),
        (["--cuts", "1,9"], "cut (1, 9) out of range for dim 3"),
    ])
    @pytest.mark.parametrize("argv", [
        ["interp", "--fn", "counted"],
        ["export", "--what", "interp_samples", "--fn", "counted"],
    ])
    def test_export_arguments_checked_before_evaluation(self, tmp_path, capsys, monkeypatch,
                                                       argv, option, message):
        calls = []
        monkeypatch.setitem(testfunctions.TEST_FUNCTIONS, "counted",
                            lambda y: calls.append(y) or 1.0)
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "3", "--w", "2", "--domain", "0,1", "-o", gpath])
        out = tmp_path / "s.csv"
        assert cli_main(argv + ["--grid", gpath, "-o", str(out)] + option) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_pce_csv_values_are_plain_floats(self, tmp_path):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "2",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        out = str(tmp_path / "pce.csv")
        cli_main(["pce", "--grid", gpath, "--fn", "expsum", "-o", out])
        body = open(out).read()
        assert "np.float" not in body
        for line in body.splitlines()[1:]:
            float(line.split(",")[-1])  # parses cleanly

    def test_demo_forward_deterministic_files(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["demo", "forward", "--w", "3", "--samples", "40", "--seed", "5"]
        assert cli_main(args + ["-o", a]) == 0
        assert cli_main(args + ["-o", b]) == 0
        assert open(a).read() == open(b).read()

    def test_demo_knots_flag(self, tmp_path, capsys):
        out = str(tmp_path / "gl.json")
        assert cli_main(["demo", "forward", "--w", "4", "--samples", "20",
                         "--knots", "gauss-legendre", "-o", out]) == 0
        doc = json.load(open(out))
        assert doc["mean"] == pytest.approx(0.0935, abs=5e-4)

    @pytest.mark.parametrize("knots,extra", [
        ("cc", []),
        ("gauss-legendre", []),
        ("leja", []),
        ("leja-sym", []),
        ("leja-pdisk", []),
        ("trap", ["--lev2knots", "doubling"]),
        ("midpoint", ["--lev2knots", "tripling"]),
        ("gauss-hermite", []),
        ("gk", ["--lev2knots", "gk"]),
        ("wleja-normal", []),
        ("wleja-normal-sym", []),
    ])
    def test_every_cli_knot_family_builds(self, tmp_path, capsys, knots, extra):
        unit, normal = sg.DistributionSpec.uniform(0, 1), sg.DistributionSpec.normal(0, 1)
        family = {
            "cc": sg.cc_family(0, 1),
            "gauss-legendre": sg.gauss_family(unit),
            "leja": sg.leja_family(0, 1, "standard"),
            "leja-sym": sg.leja_family(0, 1, "symmetric"),
            "leja-pdisk": sg.leja_family(0, 1, "p_disk"),
            "trap": sg.trap_family(0, 1),
            "midpoint": sg.midpoint_family(0, 1),
            "gauss-hermite": sg.gauss_family(normal),
            "gk": sg.gk_family(),
            "wleja-normal": sg.weighted_leja_family(normal, "standard"),
            "wleja-normal-sym": sg.weighted_leja_family(normal, "symmetric"),
        }[knots]
        gpath = str(tmp_path / "g.json")
        if family.dist.kind == "uniform":
            extra = extra + ["--domain", "0,1x0,1"]
        args = ["build", "--dim", "2", "--preset", "TD", "--w", "1",
                "--knots", knots, "-o", gpath] + extra
        assert cli_main(args) == 0
        assert load_grid(gpath).grid.families == (family, family)
        assert cli_main(["reduce", "--grid", gpath]) == 0
        assert cli_main(["quad", "--grid", gpath, "--fn", "runge"]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[-1])
        assert np.isfinite(value)

    @pytest.mark.parametrize("argv", [["build", "--w", "2"], ["adapt", "--fn", "expsum"]])
    def test_unknown_knots_is_a_usage_error(self, tmp_path, capsys, argv):
        gpath = tmp_path / "g.json"
        assert cli_main(argv + ["--dim", "2", "--knots", "spline", "-o", str(gpath)]) == 1
        assert "argument --knots: invalid choice: 'spline'" in capsys.readouterr().err
        assert not gpath.exists()

    @pytest.mark.parametrize("knots,option,message", [
        ("gauss-hermite", ["--domain", "0,1x0,1"],
         "--domain does not apply to --knots gauss-hermite"),
        ("gk", ["--lev2knots", "gk", "--domain=-1,1"], "--domain does not apply to --knots gk"),
        ("wleja-normal", ["--domain=-1,1"], "--domain does not apply to --knots wleja-normal"),
        ("cc", ["--mu", "5", "--sigma", "2"], "--mu does not apply to --knots cc"),
        ("leja", ["--sigma", "2"], "--sigma does not apply to --knots leja"),
    ])
    @pytest.mark.parametrize("command", ["build", "adapt"])
    def test_family_option_of_another_family_is_a_usage_error(self, tmp_path, capsys, command,
                                                              knots, option, message):
        argv = {"build": ["build", "--w", "2"], "adapt": ["adapt", "--fn", "expsum"]}[command]
        gpath = tmp_path / "g.json"
        assert cli_main(argv + ["--dim", "2", "--knots", knots, "-o", str(gpath)] + option) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not gpath.exists()

    def test_gk_rejects_nonstandard_normal(self, tmp_path):
        assert cli_main(["build", "--dim", "1", "--preset", "TD", "--w", "1",
                         "--knots", "gk", "--mu", "1.0",
                         "-o", str(tmp_path / "g.json")]) == 1

    def test_anisotropy_weights_flag(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        assert cli_main(["build", "--dim", "2", "--preset", "TD", "--w", "2",
                         "--g", "1,2", "--knots", "cc", "--domain", "0,1x0,1",
                         "-o", gpath]) == 0
        bundle = load_grid(gpath)
        # dimension 2 is penalized twice as hard
        assert max(v for _, v in bundle.grid.index_set) < max(
            v for v, _ in bundle.grid.index_set)

    def test_quad_csv_export(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        out = str(tmp_path / "q.csv")
        assert cli_main(["quad", "--grid", gpath, "--fn", "expsum",
                         "--csv", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "component,value"
        assert float(lines[1].split(",")[1]) == pytest.approx((math.e - 1) ** 2, abs=5e-4)


class TestStructuralValidation:
    def test_non_integer_multi_index_reported(self, saved_bundle):
        path = saved_bundle[0]
        doc = json.loads(path.read_text())
        doc["multi_index_set"][-1][0] = 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=r"structurally invalid: multi-index \[1\.5, "):
            load_grid(path)

    def test_zero_dimensional_index_set_reported(self, saved_bundle):
        path = saved_bundle[0]
        doc = json.loads(path.read_text())
        doc["dim"], doc["multi_index_set"] = 0, [[]]
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=r"structurally invalid: dim must be >= 1"):
            load_grid(path)

    def test_missing_sections_reported(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"format_version": 1, "dim": 2}')
        with pytest.raises(GridFileError, match="structurally invalid"):
            load_grid(path)

    def test_non_object_file_reported(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(GridFileError, match="not a JSON object"):
            load_grid(path)

    def test_short_knots_per_dim_reported(self, tmp_path):
        # a format-1 tensor record with one node list too few would leave a dimension unchecked
        doc = json.loads(open(FORMAT_1).read())
        doc["tensors"][2]["knots_per_dim"].pop()
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=re.escape(
                "structurally invalid: 'tensors[2].knots_per_dim' has 1 node lists for 2 "
                "dimensions")):
            load_grid(path)

    @pytest.mark.parametrize("n, count, edit", [(0, 1, lambda nodes: nodes * 3),
                                                (1, 5, lambda nodes: nodes[:-1])],
                             ids=["one-node-rule-stored-thrice", "five-node-rule-stored-with-four"])
    def test_stored_knots_of_another_shape_rejected(self, saved_bundle, n, count, edit, capsys):
        # a broadcasting comparison took the first as equal and failed on the
        # second with a bare numpy error
        path = saved_bundle[0]
        doc = json.loads(path.read_text())
        rule = next(rule for rule in doc["rules"][n] if rule[0] == count)
        rule[1] = edit(rule[1])
        path.write_text(json.dumps(doc))
        want = f"stored rule does not match: dimension {n + 1}, {count} nodes of "
        with pytest.raises(GridFileError, match=re.escape(want)):
            load_grid(path)
        assert cli_main(["quad", "--grid", str(path), "--fn", "expsum"]) == 1
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda rules: rules.pop(), "'rules' has 1 entries for 2 dimensions"),
        (lambda rules: rules.append(rules[0]), "'rules' has 3 entries for 2 dimensions"),
        (lambda rules: rules[1].pop(2), "'rules' holds no 5-node rule of dimension 2"),
        (lambda rules: rules[0].append([2, [0.0, 1.0]]),
         "'rules' holds a 2-node rule of dimension 1, which the grid does not use"),
        (lambda rules: rules[0][0].__setitem__(0, 1.0),
         "'rules' holds a 1.0-node rule of dimension 1, which the grid does not use"),
    ], ids=["too-few-dimensions", "too-many-dimensions", "count-without-rule", "unused-count",
            "non-integer-count"])
    def test_rule_list_of_another_grid_rejected(self, saved_bundle, edit, message, capsys):
        path = saved_bundle[0]
        doc = json.loads(path.read_text())
        assert [rule[0] for rule in doc["rules"][1]] == [1, 3, 5, 9]
        edit(doc["rules"])
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=f"^{re.escape(message)}$"):
            load_grid(path)
        assert cli_main(["quad", "--grid", str(path), "--fn", "expsum"]) == 1
        assert message in capsys.readouterr().err

    def test_each_stored_rule_is_compared_once(self, saved_bundle, monkeypatch):
        path, grid = saved_bundle[:2]
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(a) or allclose(*a, **k))
        load_grid(path)
        rules = {(n, c) for t in grid.tensors for n, c in enumerate(t.m)}
        # one comparison per distinct (dimension, node count), one of the reduced knots
        assert len(calls) == len(rules) + 1 < grid.dim * len(grid.tensors) + 1

    def test_stale_leja_knots_name_the_rule(self, tmp_path, capsys):
        # Leja files written before the canonical tables hold nodes off by up
        # to about 1e-8 of the width; the tolerance stays 1e-12
        grid = sg.build_sparse_grid_from_rule(2, 4, sg.leja_family(-1.3, 1.7), sg.LevelMap.LINEAR,
                                              sg.preset("TD")[0])
        path = tmp_path / "leja.json"
        save_grid(path, grid)
        doc = json.loads(path.read_text())
        count, nodes = doc["rules"][1][4]
        assert count == 5
        nodes[3] += 5e-9
        path.write_text(json.dumps(doc))
        want = ('stored rule does not match: dimension 2, 5 nodes of {"family": "leja", '
                '"params": [-1.3, 1.7, "standard"]}, largest deviation 5e-09 > 1e-12')
        with pytest.raises(GridFileError, match=f"^{re.escape(want)}$"):
            load_grid(path)
        assert cli_main(["quad", "--grid", str(path), "--fn", "expsum"]) == 1
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", [[[0.5], [1.0, 2.0]], ["a"]], ids=["ragged", "string"])
    def test_non_numeric_stored_knots_reported(self, saved_bundle, nodes, capsys):
        path = saved_bundle[0]
        doc = json.loads(path.read_text())
        doc["rules"][0][0][1] = nodes
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match="structurally invalid"):
            load_grid(path)
        assert cli_main(["quad", "--grid", str(path), "--fn", "expsum"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_level_map_reported(self, tmp_path):
        path = tmp_path / "badmap.json"
        path.write_text(json.dumps({
            "format_version": 2, "dim": 1,
            "families": [{"family": "cc", "params": [0.0, 1.0]}],
            "level_map": "quintupling",
            "multi_index_set": [[1]],
            "rules": [[[1, [0.5]]]],
        }))
        with pytest.raises(GridFileError, match="structurally invalid"):
            load_grid(path)


def _corrupt(doc, field):
    red = doc["reduced"]
    if field == "values":
        doc["values"] = [row[:-2] for row in doc["values"]]
    elif field == "knots":
        red["knots"][0][3] += 1e-3
    elif field == "weights":
        red["weights"] = [0.0] * len(red["weights"])


class TestReducedValidation:
    @pytest.mark.parametrize("field", ["values", "knots", "weights"])
    def test_inconsistent_field_is_named(self, saved_bundle, field):
        path = saved_bundle[0]
        doc = json.load(open(path))
        _corrupt(doc, field)
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=f"'{field}'"):
            load_grid(path)

    @pytest.mark.parametrize("tol", [[1e-14], [0.0, 1e-14], [1e-14, -1e-14],
                                     [1e-14, math.nan], [math.inf, 1e-14], [0.3, 1e-14]],
                             ids=["one-value", "zero", "negative", "nan", "inf", "coarse"])
    def test_bad_tol_is_rejected(self, saved_bundle, tol):
        # one tolerance for a 2-d grid, or one at or below 0 or not finite,
        # would mis-key the knots that evaluate_on_grid(old=...) recycles; a
        # coarse one merges knots that the stored reduced knots keep apart
        path = saved_bundle[0]
        doc = json.load(open(path))
        doc["reduced"]["tol"] = tol
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match="'tol'"):
            load_grid(path)

    # the first two are read from format-1 files only
    @pytest.mark.parametrize("name", ["tensors", "tensors[2].knots_per_dim", "dim", "families",
                                      "level_map", "multi_index_set", "rules", "reduced.knots",
                                      "reduced.weights", "reduced.tol"])
    def test_missing_field_is_named(self, saved_bundle, name, capsys):
        path = saved_bundle[0]
        doc = json.load(open(FORMAT_1 if name.startswith("tensors") else path))
        *keys, last = re.findall(r"\w+", name)
        parent = doc
        for key in keys:
            parent = parent[int(key) if key.isdigit() else key]
        del parent[last]
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=re.escape(f"missing field '{name}'")):
            load_grid(path)
        assert cli_main(["quad", "--grid", str(path), "--fn", "expsum"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{name}'" in err

    def test_adapted_grid_file_loads(self, tmp_path):
        res = adapt(EXPSUM, 2, sg.leja_family(-1, 1), sg.LevelMap.LINEAR,
                    controls=AdaptControls(nested=True, max_pts=40))
        path = tmp_path / "ad.json"
        save_grid(path, res.extended, res.reduced, res.values_on_reduced,
                  serialize_state(res.internal))
        assert np.array_equal(load_grid(path).reduced.weights, res.reduced.weights)


class TestCLIFailures:
    ADAPT = ["adapt", "--dim", "2", "--fn", "expsum", "--knots", "cc", "--domain", "0,1x0,1",
             "--nested", "--max-pts", "40"]

    @pytest.fixture
    def nan_fn(self, monkeypatch):
        monkeypatch.setitem(testfunctions.TEST_FUNCTIONS, "nanfn",
                            lambda y: float("nan") if y[0] > 0.9 else 1.0)

    def test_quad_non_finite_exits_2(self, tmp_path, capsys, nan_fn):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--w", "3", "--domain", "0,1x0,1", "-o", gpath])
        assert cli_main(["quad", "--grid", gpath, "--fn", "nanfn"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_adapt_non_finite_exits_2(self, tmp_path, capsys, nan_fn):
        argv = [a if a != "expsum" else "nanfn" for a in self.ADAPT]
        assert cli_main(argv + ["-o", str(tmp_path / "ad.json")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        ["--domain=-5,5"], ["--lev2knots", "linear"], ["--dim", "3", "--domain", "0,1"],
        ["--knots", "leja"],
    ])
    def test_resume_mismatch_is_a_usage_error(self, tmp_path, capsys, change):
        first = str(tmp_path / "ad.json")
        assert cli_main(self.ADAPT + ["-o", first]) == 0
        argv = self.ADAPT + change + ["--resume", first, "-o", str(tmp_path / "ad2.json")]
        assert cli_main(argv) == 1
        assert "do not match" in capsys.readouterr().err
