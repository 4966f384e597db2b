import copy
import csv
import os

import numpy as np
import pytest

from pcurlcurl import solver
from pcurlcurl.cli import main
from pcurlcurl.io import (OUTPUT_ROOT_ENV, ConfigError, RunConfig,
                          parse_config_file, write_vtk)
from pcurlcurl.assembly import EdgeField, curl_per_tet, edge_interpolate
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.mms import case_general_p, case_p2_sine
from pcurlcurl.solver import SolveConfig, solve
from vtk_reader import assert_same_bits, read_vtk


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_outputs_and_meets_tolerance(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--out_dir", str(out), "--divisions", "2,2,2"])
    assert rc == 0
    for name in ("solution.vtk", "report.csv", "summary.txt",
                 "config_used.txt"):
        assert (out / name).exists()
    rows = read_csv(out / "report.csv")
    assert float(rows[-1]["residual"]) <= 1e-9
    assert int(rows[0]["newton_iter"]) == 1      # p = 2 is linear


def test_solve_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--out_dir", str(a), "--divisions", "2,2,2"]) == 0
    assert main(["solve", "--out_dir", str(b), "--divisions", "2,2,2"]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "solution.vtk").read_bytes() == (b / "solution.vtk").read_bytes()


def test_invalid_p_exits_2(tmp_path, capsys):
    rc = main(["solve", "--out_dir", str(tmp_path / "x"), "--p", "1.5"])
    assert rc == 2
    assert "p >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("solve", "p", "inf"), ("solve", "p", "nan"), ("converge", "p", "inf"),
    ("friedrich", "p", "inf"), ("friedrich", "p", "nan"),
    ("verify", "p_grid", "inf"), ("verify", "p_grid", "3,inf"),
    ("verify", "p_grid", "nan")])
def test_non_finite_exponent_exits_2(tmp_path, capsys, command, key, value):
    out = tmp_path / "x"
    rc = main([command, "--out_dir", str(out), f"--{key}", value])
    assert rc == 2
    assert f"invalid '{key}'" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("command, key, value", [
    ("solve", "box_origin", "nan,0,0"), ("solve", "box_origin", "0,inf,0"),
    ("verify", "box_extents", "inf,1,1"), ("verify", "box_extents", "nan,1,1")])
def test_non_finite_box_exits_2(tmp_path, capsys, command, key, value):
    out = tmp_path / "x"
    rc = main([command, "--out_dir", str(out), f"--{key}", value])
    assert rc == 2
    assert f"invalid '{key}'" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


def test_mesh_error_in_a_command_exits_2_with_a_summary(tmp_path, capsys):
    # a valid config whose tet volumes underflow to 0: the mesh fault
    # ends like any other failure, as a configuration error
    out = tmp_path / "x"
    rc = main(["solve", "--out_dir", str(out), "--divisions", "2,2,2",
               "--box_extents", "1e-200,1e-200,1e-200"])
    assert rc == 2
    assert "degenerate tetrahedron" in capsys.readouterr().err
    summary = (out / "summary.txt").read_text()
    assert "status = FAILED" in summary
    assert "reason = degenerate tetrahedron" in summary
    assert (out / "config_used.txt").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    rc = main(["solve", "--out_dir", str(tmp_path / "x"), "--frobnicate", "1"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err
    # solve and converge draw no random numbers, so they take no seed,
    # solve runs the one geometric p ramp, both solve case_general_p(p),
    # and every solver tolerance and budget is a constant
    removed = [("solve", "seed"), ("converge", "seed"), ("solve", "p_schedule")]
    removed += [(command, key) for command in ("solve", "converge")
                for key in ("case", "newton_tol", "max_newton", "linear_tol")]
    for command, key in removed:
        rc = main([command, "--out_dir", str(tmp_path / "x"), f"--{key}", "3"])
        assert rc == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("friedrich", "levels"),
                                          ("converge", "levels"),
                                          ("verify", "green_levels"),
                                          ("verify", "p_grid")])
def test_empty_list_value_exits_2(tmp_path, capsys, command, key):
    rc = main([command, "--out_dir", str(tmp_path / "x"), f"--{key}", ","])
    assert rc == 2
    assert f"invalid '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "x" / "summary.txt").exists()


def test_converge_with_one_level_exits_2(tmp_path, capsys):
    # one level compares nothing, so it cannot show errors decreasing
    rc = main(["converge", "--out_dir", str(tmp_path / "x"), "--levels", "2"])
    assert rc == 2
    assert "invalid 'levels'" in capsys.readouterr().err
    assert not (tmp_path / "x" / "summary.txt").exists()
    # friedrich shares the key and still takes a single level
    assert main(["friedrich", "--out_dir", str(tmp_path / "f"),
                 "--levels", "2"]) == 0


def test_solve_at_p10_continues_to_p10(tmp_path):
    # 6^3 solves on 3^3 first: the report lists both levels' stages,
    # coarsest first, each with its mesh
    out = tmp_path / "p10"
    assert main(["solve", "--out_dir", str(out), "--p", "10",
                 "--divisions", "6,6,6"]) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) > 1
    assert float(rows[-1]["p"]) == 10.0
    summary = parse_config_file(out / "summary.txt")
    assert summary["case"] == "general_p10"
    assert int(summary["stages"]) == len(rows)
    mesh = build_box_mesh((6, 6, 6), extents=(np.pi, np.pi, np.pi))
    _, _, rep = solve(mesh, case_general_p(10.0).load, SolveConfig(p_target=10.0))
    assert [(r["divisions"], float(r["p"]), int(r["newton_iter"]),
             int(r["linear_iter"])) for r in rows] == \
        [("x".join(map(str, s.divisions)), s.p, s.newton_iterations,
          s.linear_iterations) for s in rep.stages]
    assert all(int(r["linear_iter"]) > 0 for r in rows)
    assert int(summary["total_linear_iterations"]) == \
        rep.total_linear_iterations == sum(int(r["linear_iter"]) for r in rows)
    assert {r["divisions"] for r in rows} == {"3x3x3", "6x6x6"}
    assert [r["energy"] for r in rows] == \
        ["%.17g" % s.energy_history[-1] for s in rep.stages]


def test_threads_other_than_one_rejected(tmp_path):
    rc = main(["solve", "--out_dir", str(tmp_path / "x"), "--threads", "4"])
    assert rc == 2


def test_verify_command_csv_contract(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--out_dir", str(out),
               "--divisions", "2,2,2", "--green_levels", "2",
               "--p_grid", "2,4"])
    assert rc == 0
    rows = read_csv(out / "inequalities.csv")
    assert all(int(r["violations"]) == 0 for r in rows)
    p2 = [r for r in rows if float(r["p"]) == 2.0 and float(r["delta"]) == 0.0]
    assert len(p2) == 2
    for r in p2:
        assert abs(float(r["worst_ratio"]) - 1.0) <= 1e-12


def test_verify_seeded_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--divisions", "2,2,2",
            "--green_levels", "2", "--p_grid", "3", "--seed", "9"]
    assert main(["verify", "--out_dir", str(a)] + args) == 0
    assert main(["verify", "--out_dir", str(b)] + args) == 0
    assert (a / "inequalities.csv").read_bytes() == \
        (b / "inequalities.csv").read_bytes()


def test_verify_n_samples_changes_no_result(tmp_path):
    # the key stays accepted while the benchmark passes it, and changes
    # nothing: the constants are computed, not sampled
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--divisions", "2,2,2", "--green_levels", "2"]
    assert main(["verify", "--out_dir", str(a)] + args) == 0
    assert main(["verify", "--out_dir", str(b), "--n_samples", "2000"]
                + args) == 0
    assert (a / "inequalities.csv").read_bytes() == \
        (b / "inequalities.csv").read_bytes()


def test_verify_csv_rows_equal_single_calls(tmp_path):
    from pcurlcurl.verify import check_ineq1, check_ineq2
    out = tmp_path / "v"
    assert main(["verify", "--out_dir", str(out),
                 "--divisions", "2,2,2", "--green_levels", "2",
                 "--p_grid", "1.2,2,50,3,1.4", "--seed", "4"]) == 0
    rows = read_csv(out / "inequalities.csv")
    assert len(rows) == 24
    for row in rows:
        check = check_ineq1 if row["inequality"] == "ineq1" else check_ineq2
        r = check(float(row["p"]), float(row["delta"]))
        assert (int(row["samples"]), float(row["worst_ratio"]),
                int(row["violations"])) == \
            (r.samples, r.worst_ratio, r.violations)


def test_friedrich_command(tmp_path):
    out = tmp_path / "f"
    rc = main(["friedrich", "--out_dir", str(out), "--levels", "2,4,8"])
    assert rc == 0
    rows = read_csv(out / "friedrich.csv")
    assert len(rows) == 3
    last = float(rows[-1]["C_h"])
    assert abs(last - 1 / np.sqrt(2)) / (1 / np.sqrt(2)) <= 0.05
    lin = [int(r["linear_iterations"]) for r in rows]
    assert all(int(r["iterations"]) > 0 for r in rows) and min(lin) > 0
    summary = (out / "summary.txt").read_text()
    assert f"total_linear_iterations = {sum(lin)}\n" in summary
    c = [float(r["C_h"]) for r in rows]
    assert [r["observed_order"] for r in rows] == \
        ["", "", "%.17g" % np.log2(abs(c[1] - c[0]) / abs(c[2] - c[1]))]


def test_friedrich_order_needs_one_refinement_ratio(tmp_path):
    # 2 -> 3 -> 4 refines by 3/2, then 4/3: no order can be read off
    out = tmp_path / "f"
    assert main(["friedrich", "--out_dir", str(out), "--levels", "2,3,4"]) == 0
    rows = read_csv(out / "friedrich.csv")
    assert [r["observed_order"] for r in rows] == ["", "", ""]


def test_friedrich_seed_changes_nothing(tmp_path):
    # the key stays accepted, but the eigensolve's start has a fixed seed
    a, b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((a, "0"), (b, "7")):
        assert main(["friedrich", "--out_dir", str(out), "--levels", "2,4",
                     "--seed", seed]) == 0
    assert (a / "friedrich.csv").read_bytes() == (b / "friedrich.csv").read_bytes()


def test_friedrich_above_p2_reports_the_finest_bound(tmp_path):
    # p > 2 constants are lower bounds: nothing is extrapolated, and the
    # summary says so
    out = tmp_path / "f"
    assert main(["friedrich", "--out_dir", str(out), "--levels", "2,3",
                 "--p", "4"]) == 0
    rows = read_csv(out / "friedrich.csv")
    lines = (out / "summary.txt").read_text().splitlines()
    assert f"extrapolated = {rows[-1]['C_h']}" in lines
    assert "extrapolation = none, the finest level's lower bound" in lines
    assert "lower_bound_only = True" in lines


def test_converge_command_monotone_errors(tmp_path):
    out = tmp_path / "c"
    rc = main(["converge", "--out_dir", str(out), "--levels", "2,4"])
    assert rc == 0
    rows = read_csv(out / "converge.csv")
    errs = [float(r["curl_lp_error"]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    l2s = [float(r["l2_error"]) for r in rows]
    assert l2s == sorted(l2s, reverse=True)


def test_solver_failure_exits_1_and_flags_partial_output(tmp_path, capsys,
                                                        monkeypatch):
    # an impossible Newton budget forces a stage failure in every command
    # that solves
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    for argv, output in (
            (["solve", "--divisions", "2,2,2", "--p", "6"], "solution.vtk"),
            (["converge", "--levels", "2,4", "--p", "6"], "converge.csv"),
            (["friedrich", "--p", "4", "--levels", "2"], "friedrich.csv")):
        out = tmp_path / argv[0]
        rc = main(argv + ["--out_dir", str(out)])
        assert rc == 1
        summary = (out / "summary.txt").read_text()
        assert "FAILED" in summary
        assert "reason = " in summary
        assert "error: " in capsys.readouterr().err
        assert not (out / output).exists()


def test_missing_output_dir_created(tmp_path):
    out = tmp_path / "deep" / "nested" / "dir"
    rc = main(["solve", "--out_dir", str(out), "--divisions", "1,1,1"])
    assert rc == 0
    assert (out / "summary.txt").exists()


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    rc = main(["solve", "--out_dir", "relative_run", "--divisions", "1,1,1"])
    assert rc == 0
    assert (tmp_path / "relative_run" / "summary.txt").exists()


def test_config_file_plus_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# demo config\ndivisions = 3,3,3\nbox_extents = pi,pi,pi\n")
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfgfile), "--out_dir", str(out),
               "--divisions", "2,2,2"])
    assert rc == 0
    echoed = parse_config_file(out / "config_used.txt")
    assert echoed["divisions"] == "2,2,2"        # override wins
    assert echoed["box_extents"] == ",".join(["3.1415926535897931"] * 3)
    summary = parse_config_file(out / "summary.txt")
    assert summary["divisions"] == "2,2,2"


def test_runconfig_validation_messages():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.load("solve", overrides={"nope": "1"})
    with pytest.raises(ConfigError, match="divisions"):
        RunConfig.load("solve", overrides={"divisions": "0,1,1"})
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig.load("solve", overrides={"p": "abc"})


def test_vtk_structure(tmp_path):
    mesh = build_box_mesh((1, 1, 1))
    u = edge_interpolate(case_p2_sine().u_exact, mesh)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, u)
    vtk = read_vtk(path)
    assert vtk.name == vtk.point_data_name == "field"
    assert_same_bits(vtk.points, mesh.vertices)
    assert np.array_equal(vtk.cells[:, 0], np.full(mesh.num_tets, 4))
    # the cube's corner paths c0 -> c3 in axis-permutation order, corner
    # (i, j, k) numbered 4 i + 2 j + k; the odd orders (0, 2, 1), (1, 0, 2)
    # and (2, 1, 0) are written (c0, c2, c1, c3), positively oriented
    assert np.array_equal(vtk.cells[:, 1:], [[0, 4, 6, 7], [0, 5, 4, 7],
                                             [0, 6, 2, 7], [0, 2, 3, 7],
                                             [0, 1, 5, 7], [0, 3, 1, 7]])
    assert np.array_equal(vtk.cell_types, np.full(mesh.num_tets, 10))
    assert_same_bits(vtk.cell_data, curl_per_tet(u))
    assert vtk.point_data.shape == (mesh.num_vertices, 3)


def test_vtk_size_follows_the_layout(tmp_path):
    mesh = build_box_mesh((2, 3, 1))
    u = edge_interpolate(case_p2_sine().u_exact, mesh)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, u, name="B")
    V, T = mesh.num_vertices, mesh.num_tets
    headers = (f"# vtk DataFile Version 3.0\nB\nBINARY\n"
               f"DATASET UNSTRUCTURED_GRID\nPOINTS {V} double\n"
               f"CELLS {T} {5 * T}\nCELL_TYPES {T}\n"
               f"CELL_DATA {T}\nVECTORS curl double\n"
               f"POINT_DATA {V}\nVECTORS B double\n")
    # five blocks, each followed by one newline
    body = 8 * 3 * V + 4 * 5 * T + 4 * T + 8 * 3 * T + 8 * 3 * V + 5
    assert os.path.getsize(path) == len(headers) + body


def test_vtk_rejects_vertex_indices_beyond_int32(tmp_path):
    mesh = copy.copy(build_box_mesh((1, 1, 1)))
    mesh.tets = mesh.tets + 2**31
    path = tmp_path / "f.vtk"
    with pytest.raises(ValueError, match="int32"):
        write_vtk(path, mesh, EdgeField(mesh))
    assert not path.exists()
