"""Command-line interface: exit codes, output files, determinism, and the
override rules between config files and flags."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from nsdarcy import analysis, assembly, cli, solver
from nsdarcy import mesh as mesh_module
from nsdarcy.analysis import EnergyReport
from nsdarcy.assembly import ModelParams, load_vector
from nsdarcy.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFICATION,
                         main)
from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import (FLUID, POROUS, build_rectangle_mesh, load_mesh,
                          refine_uniform)
from nsdarcy.solver import SolverConfig


def run(*argv):
    return main(list(argv))


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestSolve:
    def test_success_writes_report_and_returns_zero(self, tmp_path):
        out = tmp_path / "run"
        assert run("solve", "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert set(payload) == {"command", "mesh", "forcing", "case",
                                "solver", "transcript", "energy"}
        assert payload["command"] == "solve"
        assert payload["forcing"] == "driven"
        assert payload["case"] is None
        assert payload["solver"]["converged"] is True
        assert payload["energy"]["bound_ok"] is True
        assert payload["energy"]["balance_defect_rel"] <= 1e-9

    def test_energy_block_has_stable_keys(self, tmp_path):
        out = tmp_path / "run"
        run("solve", "--out", str(out))
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["energy"]) == {
            f.name for f in dataclasses.fields(EnergyReport)}

    def test_case_run_reports_errors_and_nan_becomes_null(self, tmp_path):
        # the representable case carries inhomogeneous boundary data, so the
        # companion fields, the balance and the bound do not apply; their
        # NaN, and the None of bound_ok, must serialize as null
        out = tmp_path / "run"
        assert run("solve", "--case", "representable",
                   "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["case"] == "representable"
        assert payload["forcing"] is None
        errors = payload["errors"]
        assert all(errors[k] < 1e-9 for k in errors)
        energy = payload["energy"]
        for key in ("e_aux", "compensation_residual", "bound_ok",
                    "bound_ratio", "balance_defect_rel"):
            assert energy[key] is None, key
        assert set(energy) == {f.name for f in dataclasses.fields(EnergyReport)}

    @pytest.mark.parametrize("mesh", ["builtin:4x8", "builtin:16x32"])
    def test_case_balance_closes_with_its_interface_loads(self, tmp_path,
                                                          mesh):
        out = tmp_path / "run"
        assert run("solve", "--case", "smooth", "--mesh", mesh,
                   "--out", str(out)) == EXIT_OK
        energy = json.loads((out / "report.json").read_text())["energy"]
        assert energy["balance_defect_rel"] <= 1e-12
        assert energy["bound_ok"] is True

    def test_vtk_flag_writes_legacy_file(self, tmp_path):
        out = tmp_path / "run"
        run("solve", "--mesh", "builtin:2x4", "--vtk", "--out", str(out))
        lines = (out / "fields.vtk").read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[4] == "POINTS 15 double"  # (2+1)*(4+1) vertices
        assert "VECTORS velocity double" in lines
        assert "SCALARS pressure double 1" in lines
        assert "SCALARS head double 1" in lines

    def test_solve_reports_no_beta_above_the_inf_sup_cap(self, tmp_path,
                                                         monkeypatch):
        # 9 pressure dofs on 2x4
        out = tmp_path / "run"
        run("solve", "--mesh", "builtin:2x4", "--out", str(out))
        energy = json.loads((out / "report.json").read_text())["energy"]
        assert energy["beta"] > 0
        monkeypatch.setattr(cli, "_INF_SUP_DOF_CAP", 5)
        assert run("solve", "--mesh", "builtin:2x4",
                   "--out", str(out)) == EXIT_OK
        energy = json.loads((out / "report.json").read_text())["energy"]
        assert energy["beta"] is None

    def test_no_convection_finishes_in_one_iteration(self, tmp_path):
        out = tmp_path / "run"
        run("solve", "--no-convection", "--out", str(out))
        payload = json.loads((out / "report.json").read_text())
        assert payload["solver"]["iterations"] == 1
        assert payload["solver"]["include_convection"] is False


class TestVerify:
    def test_bundle_passes_on_stable_pair(self, tmp_path):
        # the inf-sup spread criterion is calibrated for meshes from 4x8 up;
        # coarser bases are still in the pre-asymptotic regime
        out = tmp_path / "run"
        assert run("verify", "--mesh", "builtin:4x8", "--levels", "2",
                   "--out", str(out)) == EXIT_OK
        bundle = json.loads((out / "verification.json").read_text())
        assert bundle["passed"] is True
        names = [c["name"] for c in bundle["checks"]]
        assert names == ["energy_balance", "energy_bound", "pressure_bound",
                         "inf_sup", "compensation", "uniqueness"]
        assert all(c["passed"] for c in bundle["checks"])

    def test_unstable_pair_fails_inf_sup_and_returns_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "1",
                   "--unstable-pair", "--out", str(out)) == EXIT_VERIFICATION
        bundle = json.loads((out / "verification.json").read_text())
        assert bundle["passed"] is False
        by_name = {c["name"]: c for c in bundle["checks"]}
        assert by_name["inf_sup"]["passed"] is False
        assert by_name["inf_sup"]["details"]["velocity_degree"] == 1
        assert "inf_sup" in capsys.readouterr().err

    def test_one_level_has_null_spreads_and_still_judges_the_rest(
            self, tmp_path):
        # a spread needs two levels: it is null, never a 0.0 that passes,
        # and the checks pass or fail on the criteria that ran
        out = tmp_path / "run"
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "1",
                   "--out", str(out)) == EXIT_OK
        bundle = json.loads((out / "verification.json").read_text())
        by_name = {c["name"]: c for c in bundle["checks"]}
        bound, infsup = by_name["energy_bound"], by_name["inf_sup"]
        assert [row["spread"] for row in bound["details"]["datasets"]] == [
            None, None, None]
        assert infsup["details"]["spread"] is None
        assert bound["passed"] is True and infsup["passed"] is True

    def test_pressure_bound_ignores_the_solve_inf_sup_cap(
            self, tmp_path, monkeypatch):
        # 9 pressure dofs on 2x4, 25 after one refinement: the bundle
        # computes beta on every level whatever the cap of `solve` says
        uncapped = tmp_path / "uncapped"
        run("verify", "--mesh", "builtin:2x4", "--levels", "2",
            "--out", str(uncapped))
        monkeypatch.setattr(cli, "_INF_SUP_DOF_CAP", 10)
        out = tmp_path / "run"
        run("verify", "--mesh", "builtin:2x4", "--levels", "2",
            "--out", str(out))
        bundle = json.loads((out / "verification.json").read_text())
        pressure = {c["name"]: c for c in bundle["checks"]}["pressure_bound"]
        assert "skipped_levels" not in pressure["details"]
        assert bundle == json.loads(
            (uncapped / "verification.json").read_text())

    def test_inconclusive_uniqueness_is_skipped_with_its_reason(
            self, tmp_path, capsys):
        # at nu = 0.1 the small-data premise fails: the two starts agree,
        # but the result does not apply, so the check neither passes nor
        # fails the bundle
        cfg = write_config(tmp_path / "cfg.json", nu=0.1)
        out = tmp_path / "run"
        assert run("verify", "--config", cfg, "--mesh", "builtin:2x4",
                   "--levels", "1", "--out", str(out)) == EXIT_OK
        bundle = json.loads((out / "verification.json").read_text())
        unique = {c["name"]: c for c in bundle["checks"]}["uniqueness"]
        assert unique["passed"] is None
        details = unique["details"]
        assert details["verdict"] == "inconclusive"
        assert details["status"] == "skipped"
        assert "uniqueness_number * c_mult" in details["reason"]
        assert details["uniqueness_number"] * details["c_mult"] >= 1
        assert bundle["passed"] is True
        assert "uniqueness: skipped" in capsys.readouterr().out

    def test_violated_uniqueness_fails_the_bundle(self, tmp_path,
                                                  monkeypatch, capsys):
        original = analysis.check_uniqueness

        def violated(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs),
                                       verdict="violated")
        monkeypatch.setattr(analysis, "check_uniqueness", violated)
        out = tmp_path / "run"
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "1",
                   "--out", str(out)) == EXIT_VERIFICATION
        bundle = json.loads((out / "verification.json").read_text())
        unique = {c["name"]: c for c in bundle["checks"]}["uniqueness"]
        assert unique["passed"] is False
        assert "status" not in unique["details"]
        assert "failing checks: uniqueness" in capsys.readouterr().err

    def test_one_pass_over_one_chain(self, tmp_path, monkeypatch):
        calls = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        count(mesh_module, "refine_uniform", "refine")
        count(CoupledSpace, "__init__", "space")
        count(solver, "solve_coupled", "solve")
        count(analysis, "solve_coupled", "solve")
        count(analysis, "eigsh", "eigsh")
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "2",
                   "--out", str(tmp_path / "run")) in (EXIT_OK,
                                                       EXIT_VERIFICATION)
        # 3 datasets x 2 levels, the compensation sweep reusing the driven
        # solves, plus the two uniqueness starts; one inf-sup per level
        assert calls == {"refine": 1, "space": 2, "solve": 8, "eigsh": 2}

    def test_strain_matrices_are_assembled_once_per_space(self, tmp_path,
                                                          monkeypatch):
        calls = Counter()
        original = assembly.strain_matrix

        def counted(space, region, *args, **kwargs):
            calls[region] += 1
            return original(space, region, *args, **kwargs)
        monkeypatch.setattr(assembly, "strain_matrix", counted)
        run("verify", "--mesh", "builtin:2x4", "--levels", "2",
            "--out", str(tmp_path / "run"))
        # per level: the fluid strain shared by the coupled solves, the
        # reports and the strain factorization; the porous strain shared by
        # the liftings and the companion solves
        assert calls == {FLUID: 2, POROUS: 2}

    def test_compensation_sweep_solves_the_configured_dataset(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", nu=0.5, K=2.0)
        out = tmp_path / "run"
        run("verify", "--config", cfg, "--mesh", "builtin:2x4", "--levels",
            "2", "--out", str(out))
        bundle = json.loads((out / "verification.json").read_text())
        by_name = {c["name"]: c for c in bundle["checks"]}
        mesh = build_rectangle_mesh(2, 4, 1.0)
        expected = []
        for fresh in (mesh, refine_uniform(mesh)):
            space = CoupledSpace(fresh)
            params = ModelParams(fresh, nu=0.5, K=2.0,
                                 g_f=cli.FORCINGS["driven"][0],
                                 g_p=cli.FORCINGS["driven"][1])
            state = solver.solve_coupled(space, params, SolverConfig())
            expected.append(analysis.compensation_residual(
                space, params, state=state).residual)
        assert by_name["compensation"]["details"]["residuals"] == expected

    def test_single_level_marks_compensation_insufficient(self, tmp_path,
                                                         capsys):
        out = tmp_path / "run"
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "1",
                   "--out", str(out)) == EXIT_OK
        bundle = json.loads((out / "verification.json").read_text())
        by_name = {c["name"]: c for c in bundle["checks"]}
        # one level shows no decrease: the check is skipped, not passed
        assert by_name["compensation"]["passed"] is None
        details = by_name["compensation"]["details"]
        assert details["status"] == "skipped"
        assert "two levels" in details["reason"]
        assert "compensation: skipped" in capsys.readouterr().out


class TestMms:
    def test_representable_case_passes(self, tmp_path):
        out = tmp_path / "run"
        assert run("mms", "--case", "representable",
                   "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "mms.json").read_text())
        assert payload["case"] == "representable"
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert len(payload["rows"]) == 2

    def test_representable_case_reports_no_rates(self, tmp_path):
        # its errors are rounding noise, whose ratios carry no order
        out = tmp_path / "run"
        assert run("mms", "--case", "representable",
                   "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "mms.json").read_text())
        assert payload["final_rates"]
        assert all(v is None for v in payload["final_rates"].values())

    def test_rates_csv_layout(self, tmp_path):
        out = tmp_path / "run"
        run("mms", "--case", "representable", "--out", str(out))
        lines = (out / "rates.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["level", "h"]
        assert "err_u_h1" in header and "rate_u_h1" in header
        assert len(lines) == 3  # header plus two levels

    def test_short_smooth_study_needs_no_assert(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run("mms", "--levels", "2", "--out", str(out)) == EXIT_CONFIG
        assert "at least 3 levels" in capsys.readouterr().err
        assert not out.exists()

    def test_no_assert_allows_short_smooth_study(self, tmp_path):
        out = tmp_path / "run"
        assert run("mms", "--levels", "2", "--no-assert",
                   "--out", str(out)) == EXIT_OK
        payload = json.loads((out / "mms.json").read_text())
        assert payload["case"] == "smooth"
        assert payload["final_rates"]  # reported even without the gate

    def test_file_mesh_is_rejected_for_studies(self, tmp_path, capsys):
        assert run("mms", "--mesh", "mesh.txt",
                   "--out", str(tmp_path)) == EXIT_CONFIG
        assert "builtin" in capsys.readouterr().err


class TestMeshInfo:
    def test_summary_reports_subdomain_split(self, capsys):
        assert run("mesh-info", "--mesh", "builtin:4x8") == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_vertices"] == 45
        assert summary["fluid_triangles"] == summary["porous_triangles"] == 32
        assert summary["interface_edges"] == 4
        assert summary["fluid_area"] == pytest.approx(1.0, abs=1e-14)
        assert summary["porous_area"] == pytest.approx(1.0, abs=1e-14)

    def test_dump_round_trips_through_loader(self, capsys):
        assert run("mesh-info", "--mesh", "builtin:2x4", "--dump") == EXIT_OK
        text = capsys.readouterr().out
        mesh = load_mesh(text)
        assert mesh.num_vertices == 15
        assert len(mesh.interface_edges) == 2

    def test_mesh_file_round_trip(self, tmp_path, capsys):
        run("mesh-info", "--mesh", "builtin:2x4", "--dump")
        path = tmp_path / "saved.mesh"
        path.write_text(capsys.readouterr().out)
        assert run("mesh-info", "--mesh", str(path)) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_vertices"] == 15


@pytest.mark.parametrize("name", ["driven", "small", "head-driven"])
def test_forcings_take_one_call_per_load(name, counted):
    space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
    g_f, g_p = (counted(g) if g else None for g in cli.FORCINGS[name])
    load_vector(space, ModelParams(space.mesh, nu=1.0, g_f=g_f, g_p=g_p))
    assert all(g.calls == 1 for g in (g_f, g_p) if g is not None)


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mesh="builtin:2x4")
        out = tmp_path / "run"
        run("solve", "--config", cfg, "--mesh", "builtin:4x8",
            "--out", str(out))
        payload = json.loads((out / "report.json").read_text())
        assert payload["mesh"]["num_vertices"] == 45  # flag wins

    def test_config_file_keys_are_applied(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mesh="builtin:2x4",
                           no_convection=True)
        out = tmp_path / "run"
        run("solve", "--config", cfg, "--out", str(out))
        payload = json.loads((out / "report.json").read_text())
        assert payload["mesh"]["num_vertices"] == 15
        assert payload["solver"]["iterations"] == 1

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "never"
        # the last two were solver options; their old defaults now fail too
        for key, value in (("viscosity", 2.0), ("linear_solver", "lu"),
                           ("pressure_gauge", "mean")):
            cfg = write_config(tmp_path / "cfg.json", **{key: value})
            assert run("solve", "--config", cfg,
                       "--out", str(out)) == EXIT_CONFIG
            assert f"unknown config keys: {key}" in capsys.readouterr().err
            assert not out.exists()

    def test_malformed_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("not json {")
        out = tmp_path / "never"
        assert run("solve", "--config", str(path),
                   "--out", str(out)) == EXIT_CONFIG
        assert "malformed config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"nu": -3.0}, {"c_mult": "x"}, {"nu": "abc"}, {"tol": "x"},
        {"sigma": "x"}, {"nu": None}, {"forcing": ["driven"]},
        {"mesh": ["builtin:2x4"]}, {"no_convection": "false"},
        {"vtk": "no"}, {"c_mult": float("inf")}, {"c_mult": float("nan")},
        {"c_mult": -1.0}, {"c_mult": 0.0}, {"tol": float("inf")},
        {"seed": -1}, {"K": True}, {"K": float("inf")}, {"K": "abc"},
        {"K": -1}, {"K": [[1, 0]]}],
        ids=["negative-nu", "string-c_mult", "string-nu", "string-tol",
             "string-sigma", "null-nu", "list-forcing", "list-mesh",
             "string-no_convection", "string-vtk", "inf-c_mult",
             "nan-c_mult", "negative-c_mult", "zero-c_mult", "inf-tol",
             "negative-seed", "bool-K", "inf-K", "string-K", "negative-K",
             "one-row-K"])
    def test_invalid_parameter_leaves_no_outputs(self, tmp_path, capsys,
                                                 values):
        cfg = write_config(tmp_path / "cfg.json", **values)
        out = tmp_path / "never"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        [key] = values
        assert key in err
        assert "Warning" not in err
        assert not out.exists()

    def test_anisotropic_permeability_solves(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mesh="builtin:2x4",
                           K=[[1, 0], [0, 2]])
        out = tmp_path / "run"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_OK
        energy = json.loads((out / "report.json").read_text())["energy"]
        assert (energy["lambda_min"], energy["lambda_max"]) == (1.0, 2.0)

    @pytest.mark.parametrize("value", [5, None], ids=["number", "null"])
    def test_output_directory_of_the_wrong_type(self, tmp_path, monkeypatch,
                                                capsys, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", mesh="builtin:2x4",
                           out=value)
        assert run("solve", "--config", cfg) == EXIT_CONFIG
        assert "out must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_empty_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "--mesh", "builtin:2x4",
                   "--out", "") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "output directory ''" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_below_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        assert run("solve", "--mesh", "builtin:2x4",
                   "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("solve", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "never")) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_builtin_spec(self, tmp_path, capsys):
        assert run("solve", "--mesh", "builtin:4by8",
                   "--out", str(tmp_path)) == EXIT_CONFIG
        assert "builtin:WxH" in capsys.readouterr().err

    # an odd height puts no grid line on the interface y = 1
    @pytest.mark.parametrize("spec", ["builtin:3x3", "builtin:2x1",
                                      "builtin:1x1", "builtin:0x4"])
    @pytest.mark.parametrize("command", ["solve", "verify", "mms",
                                         "mesh-info"])
    def test_unbuildable_builtin_spec(self, tmp_path, capsys, command, spec):
        out = tmp_path / "never"
        assert run(command, "--mesh", spec, "--out", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error" in captured.err
        # the message speaks of the spec, not of the mesh builder
        assert spec in captured.err and "split_y" not in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"velocity_degree": 1}, {"head_degree": 2},
        {"velocity_degree": 1, "head_degree": 2}],
        ids=["velocity", "head", "both"])
    def test_verify_rejects_other_degrees(self, tmp_path, capsys, values):
        # the bundle checks the Taylor-Hood pair; the equal-order control is
        # the --unstable-pair flag
        cfg = write_config(tmp_path / "cfg.json", **values)
        out = tmp_path / "never"
        assert run("verify", "--config", cfg, "--mesh", "builtin:2x4",
                   "--levels", "1", "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "--unstable-pair" in err
        assert all(key in err for key in values)
        assert not out.exists()

    def test_unknown_case_lists_choices(self, tmp_path, capsys):
        assert run("solve", "--case", "bogus",
                   "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "representable" in err and "smooth" in err

    def test_nonpositive_levels_rejected(self, tmp_path, capsys):
        assert run("verify", "--levels", "0",
                   "--out", str(tmp_path)) == EXIT_CONFIG
        assert "levels" in capsys.readouterr().err

    def test_usage_error_exits_with_config_code(self):
        with pytest.raises(SystemExit) as exc:
            run("bogus-command")
        assert exc.value.code == EXIT_CONFIG


class TestKeysACommandReads:
    """A key set away from its default for a command that does not read it
    is a config error; a flag the command does not offer is a usage error."""

    @pytest.mark.parametrize("argv, values", [
        (["solve", "--case", "smooth"],
         {"nu": 0.5, "K": 3.0, "G": 2.0, "forcing": "small"}),
        (["verify"], {"G": 5.0}),
        (["mms", "--case", "smooth"],
         {"nu": 0.5, "G": 2.0, "sigma": 0.3, "forcing": "small",
          "c_mult": 9.0})],
        ids=["solve-case", "verify", "mms"])
    def test_unread_key_is_a_config_error(self, tmp_path, capsys, argv,
                                          values):
        cfg = write_config(tmp_path / "cfg.json", **values)
        out = tmp_path / "never"
        assert run(*argv, "--config", cfg, "--mesh", "builtin:2x4",
                   "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert all(f"{key}={value!r}" in err for key, value in values.items())
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["solve", "--levels", "3"],
                                      ["mesh-info", "--levels", "2"]],
                             ids=["solve", "mesh-info"])
    def test_flag_a_command_does_not_offer(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == EXIT_CONFIG
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_key_at_its_default_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", G=1, forcing="driven",
                           velocity_degree=2, dump=False)
        assert run("verify", "--config", cfg, "--mesh", "builtin:2x4",
                   "--levels", "1", "--out", str(tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("argv, unread", [
        (["solve", "--vtk"], {"seed"}),
        (["solve", "--case", "representable"],
         {"seed", "nu", "K", "G", "forcing"}),
        (["verify", "--levels", "1"], set()),
        (["mms", "--case", "representable", "--levels", "1"], {"seed"}),
        (["mms", "--levels", "1", "--no-assert"], {"seed"}),
        (["mesh-info"], {"out", "seed"})],
        ids=["solve", "solve-case", "verify", "mms-representable",
             "mms-smooth", "mesh-info"])
    def test_readers_are_the_keys_each_command_reads(
            self, tmp_path, monkeypatch, capsys, argv, unread):
        # each command reads exactly the keys the table names for it;
        # mesh, out and seed are offered by every command, and some read
        # out or seed only nominally
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        load = cli.load_config
        monkeypatch.setattr(cli, "load_config",
                            lambda args: Recording(load(args)))
        assert run(*argv, "--mesh", "builtin:2x4",
                   "--out", str(tmp_path)) == EXIT_OK
        command = argv[0]
        assert read == {key for key, spec in cli.KEYS.items()
                        if command in spec.readers} - unread


class TestSolverFailures:
    def test_equal_order_pair_is_a_solver_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", velocity_degree=1)
        out = tmp_path / "never"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()

    def test_inf_sup_eigensolve_failure(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((0, 0)))
        monkeypatch.setattr(analysis, "eigsh", fail)
        out = tmp_path / "never"
        assert run("verify", "--mesh", "builtin:2x4", "--levels", "1",
                   "--out", str(out)) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver failure" in err and "9 pressure dofs" in err
        assert "Traceback" not in err
        assert not (out / "verification.json").exists()

    def test_iteration_budget_exhaustion(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", max_iter=1)
        out = tmp_path / "never"
        assert run("solve", "--config", cfg, "--out", str(out)) == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("nu", [1e-300, 1e-200, 1e200, 1e300])
    def test_overflowing_residual_is_a_quiet_solver_failure(self, tmp_path,
                                                           capsys, nu):
        cfg = write_config(tmp_path / "cfg.json", nu=nu)
        out = tmp_path / "never"
        assert run("solve", "--config", cfg, "--mesh", "builtin:2x4",
                   "--out", str(out)) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver failure" in err and "linear residual inf" in err
        assert "Warning" not in err
        assert not out.exists()


class TestDeterminism:
    def test_solve_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("solve", "--out", str(a))
        run("solve", "--out", str(b))
        assert (a / "report.json").read_bytes() == \
            (b / "report.json").read_bytes()

    def test_mms_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("mms", "--case", "representable", "--out", str(a))
        run("mms", "--case", "representable", "--out", str(b))
        assert (a / "mms.json").read_bytes() == (b / "mms.json").read_bytes()
        assert (a / "rates.csv").read_bytes() == (b / "rates.csv").read_bytes()

    def test_verify_bundle_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("verify", "--mesh", "builtin:2x4", "--levels", "1",
            "--seed", "7", "--out", str(a))
        run("verify", "--mesh", "builtin:2x4", "--levels", "1",
            "--seed", "7", "--out", str(b))
        assert (a / "verification.json").read_bytes() == \
            (b / "verification.json").read_bytes()


def test_console_script_is_installed(tmp_path):
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nsdarcy.cli", "mesh-info",
         "--mesh", "builtin:2x4"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["num_vertices"] == 15
