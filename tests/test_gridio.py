import json
import math

import numpy as np
import pytest

import sparsegrids as sg
from sparsegrids.adaptive import AdaptControls, adapt, serialize_state
from sparsegrids.cli import cli_main
from sparsegrids.evalkit import evaluate_on_grid, quadrature
from sparsegrids import testfunctions
from sparsegrids.gridio import GridBundle, GridFileError, export_points, load_grid, save_grid

EXPSUM = lambda y: math.exp(float(np.sum(y)))


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
            assert np.array_equal(a.knots, b.knots)
            assert np.array_equal(a.weights, b.weights)

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
        assert bundle.adapt_state["num_evals"] == res.num_evals
        assert bundle.adapt_state["accepted"] == [list(i) for i in res.internal.accepted]


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

    def test_unknown_function_is_user_error(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "2",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        assert cli_main(["quad", "--grid", gpath, "--fn", "nope"]) == 1

    def test_unknown_subcommand_is_user_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_file_is_user_error(self, capsys):
        assert cli_main(["quad", "--grid", "/nonexistent.json", "--fn", "expsum"]) == 1


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

    def test_threads_flag(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        cli_main(["build", "--dim", "2", "--preset", "SM", "--w", "3",
                  "--knots", "cc", "--domain", "0,1x0,1", "-o", gpath])
        assert cli_main(["quad", "--grid", gpath, "--fn", "expsum",
                         "--threads", "4"]) == 0
        value = float(capsys.readouterr().out.splitlines()[-1])
        assert abs(value - (math.e - 1) ** 2) <= 5e-4

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
        gpath = str(tmp_path / "g.json")
        args = ["build", "--dim", "2", "--preset", "TD", "--w", "1",
                "--knots", knots, "--domain", "0,1x0,1", "-o", gpath] + extra
        assert cli_main(args) == 0
        assert cli_main(["reduce", "--grid", gpath]) == 0
        assert cli_main(["quad", "--grid", gpath, "--fn", "runge"]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[-1])
        assert np.isfinite(value)

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
    def test_missing_sections_reported(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"format_version": 1, "dim": 2}')
        with pytest.raises(GridFileError, match="structurally invalid"):
            load_grid(path)

    def test_bad_level_map_reported(self, tmp_path):
        path = tmp_path / "badmap.json"
        path.write_text(json.dumps({
            "format_version": 1, "dim": 1,
            "families": [{"family": "cc", "params": [0.0, 1.0]}],
            "level_map": "quintupling",
            "multi_index_set": [[1]],
            "tensors": [],
        }))
        with pytest.raises(GridFileError, match="structurally invalid"):
            load_grid(path)


def _corrupt(doc, field):
    red = doc["reduced"]
    if field == "values":
        doc["values"] = [row[:-2] for row in doc["values"]]
    elif field == "n":
        red["n"] = red["n"][:-1]
    elif field == "m":
        red["m"][1] = red["m"][0]
    elif field == "knots":
        red["knots"][0][3] += 1e-3
    elif field == "weights":
        red["weights"] = [0.0] * len(red["weights"])


class TestReducedValidation:
    @pytest.mark.parametrize("field", ["values", "n", "m", "knots", "weights"])
    def test_inconsistent_field_is_named(self, saved_bundle, field):
        path = saved_bundle[0]
        doc = json.load(open(path))
        _corrupt(doc, field)
        path.write_text(json.dumps(doc))
        with pytest.raises(GridFileError, match=f"'{field}'"):
            load_grid(path)

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
