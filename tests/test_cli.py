"""CLI: config layering, exit codes, artifacts, and order-band checks."""

import numpy as np
import pytest

from fvvisc import cli, verify
from fvvisc.verify import ConvergenceRecord

# keys that are not configurable: alpha and the flow constants are the
# FlowConfig() defaults, the omegas are study-1d-omega's default strategies,
# and the CFL schedule and linear solve are fixed per problem in the solver
REMOVED_KEYS = ("omegas", "alpha", "flow.mach", "flow.reynolds", "flow.t_ref",
                "flow.sutherland_c", "flow.gamma", "flow.prandtl",
                "solver.cfl_initial", "solver.cfl_growth", "solver.cfl_max",
                "solver.linear_sweeps", "solver.jacobian_lag")


class TestConfigParsing:
    def test_defaults(self):
        cfg = cli.build_config({}, environ={})
        assert cfg["problem"] == "diffusion1d"
        assert cfg["grids"] == list(verify.GRID_SIZES_1D)
        assert cfg["seed"] == cli.DEFAULT_SEED

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\n"
                        "grids = 7,11,15   # trailing comment\n"
                        "regular = true\n"
                        "solver.target_drop = 6.5\n")
        cfg = cli.build_config({}, str(path), environ={})
        assert cfg["grids"] == [7, 11, 15]
        assert cfg["regular"] is True
        assert cfg["solver.target_drop"] == 6.5

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        cfg = cli.build_config({}, str(path),
                               environ={"FVVISC_SEED": "2"})
        assert cfg["seed"] == 2

    def test_cli_overrides_env(self):
        cfg = cli.build_config({"seed": 3}, environ={"FVVISC_SEED": "2"})
        assert cfg["seed"] == 3

    def test_none_cli_values_do_not_override(self):
        cfg = cli.build_config({"seed": None}, environ={})
        assert cfg["seed"] == cli.DEFAULT_SEED

    def test_unknown_file_key_raises(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_bad_value_raises(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = abc\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_missing_file_raises(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file("/nonexistent/run.cfg")

    def test_unknown_env_key_raises(self):
        with pytest.raises(cli.ConfigError):
            cli.build_config({}, environ={"FVVISC_BOGUS": "1"})

    def test_effective_config_roundtrip(self, tmp_path):
        cfg = cli.build_config({"grids": [7, 11], "regular": True},
                               environ={"FVVISC_PERTURBATION": "0.2"})
        path = tmp_path / "effective_config.cfg"
        cli.write_effective_config(cfg, str(path))
        reparsed = cli.build_config({}, str(path), environ={})
        assert reparsed == cfg


class TestCheckOrders:
    def make_record(self, name, p):
        rec = ConvergenceRecord(name, ("u",))
        for n in (16, 32, 64):
            rec.add_row(f"n{n}", n, 1.0 / n, [3.0 * (1.0 / n) ** p])
        return rec

    def test_in_band_passes(self):
        records = {"arithmetic": self.make_record("arithmetic", 2.05),
                   "one-sided-right": self.make_record("one-sided-right", 0.95)}
        assert cli.check_orders(records, 0.2) == []

    def test_out_of_band_reported(self):
        records = {"arithmetic": self.make_record("arithmetic", 1.4)}
        violations = cli.check_orders(records, 0.2)
        assert len(violations) == 1
        assert "arithmetic" in violations[0]

    def test_weighted_nominal_orders(self):
        assert cli._nominal_order("weighted:0.5") == 2.0
        assert cli._nominal_order("weighted:0.75") == 1.0

    def test_undefined_order_is_a_violation(self):
        rec = ConvergenceRecord("arithmetic", ("u",))
        rec.add_row("n16", 16, 1.0 / 16, [np.nan])
        rec.add_row("n32", 32, 1.0 / 32, [np.nan])
        violations = cli.check_orders({"arithmetic": rec}, 0.2)
        assert "undefined" in violations[0]


class TestMainExitCodes:
    def test_unknown_strategy_exits_2(self, tmp_path):
        rc = cli.main(["study-1d", "--strategies", "no-such-strategy",
                       "--grids", "7,11", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_bad_set_key_exits_2(self, tmp_path, capsys):
        # a malformed dedicated flag is a config error like a bad --set
        for argv, message in ((["--set", "bogus=1"], "unknown config key"),
                              (["--grids", "7,x"], "bad value for grids")):
            rc = cli.main(["study-1d", *argv, "--out-dir", str(tmp_path)])
            assert rc == cli.EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: {message}")

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        rc = cli.main(["study-1d", "--set", f"{key}=1",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: unknown config key {key!r}"]

    def test_removed_key_is_unknown_in_every_layer(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 1.5\n")
        rc = cli.main(["study-1d", "--config", str(path),
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {path}:1: unknown config key 'alpha'"]
        monkeypatch.setenv("FVVISC_FLOW_MACH", "0.2")
        rc = cli.main(["study-1d", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: unknown config key in environment: "
                       "FVVISC_FLOW_MACH"]
        assert not (tmp_path / "effective_config.cfg").exists()

    def test_bad_solver_value_exits_2(self, tmp_path):
        rc = cli.main(["solve", "--set", "solver.max_iterations=0",
                       "--grids", "7", "--strategies", "arithmetic",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_nonconvergence_exits_3(self, tmp_path):
        rc = cli.main(["solve", "--grids", "15", "--strategies", "arithmetic",
                       "--set", "solver.max_iterations=2",
                       "--set", "solver.target_drop=12",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NONCONVERGENCE
        assert (tmp_path / "history.csv").exists()

    def test_small_study_in_band_exits_0(self, tmp_path):
        rc = cli.main(["study-1d", "--strategies", "arithmetic",
                       "--grids", "31,47,63", "--check-orders",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK

    def test_omega_sweep_takes_strategies_from_the_environment(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("FVVISC_STRATEGIES", "arithmetic")
        rc = cli.main(["study-1d-omega", "--regular", "--grids", "7,11",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        tables = {p.name for p in tmp_path.glob("study-1d_*.csv")}
        assert tables == {"study-1d_arithmetic.csv", "study-1d_summary.csv"}

    def test_order_band_violation_exits_4(self, tmp_path):
        # seed 1 is a known grid pair whose coarse pre-asymptotic order
        # (~3.0) sits far outside the 2.0 +/- 0.2 band
        rc = cli.main(["study-1d", "--strategies", "arithmetic",
                       "--grids", "7,11", "--check-orders", "--seed", "1",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_ORDER_BAND


class TestSolveArtifacts:
    def test_solve_1d_writes_history_and_solution(self, tmp_path):
        rc = cli.main(["solve", "--grids", "15", "--strategies", "arithmetic",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        hist = (tmp_path / "history.csv").read_text().splitlines()
        assert hist[1] == "iteration,l1_res_u,cfl"
        sol = np.loadtxt(tmp_path / "solution.csv", delimiter=",")
        assert sol.shape == (15,)
        assert (tmp_path / "effective_config.cfg").exists()

    def test_solve_ns3d_writes_five_variables(self, tmp_path):
        rc = cli.main(["solve", "--problem", "ns3d", "--grids", "3",
                       "--strategies", "arithmetic",
                       "--set", "solver.target_drop=5",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        sol = np.loadtxt(tmp_path / "solution.csv", delimiter=",",
                         skiprows=1)
        assert sol.shape == (6 * 27, 5)

    @pytest.mark.parametrize("argv,env,perturbation", [
        ([], {}, "0.1"),
        (["--perturbation", "0.05"], {}, "0.05"),
        ([], {"FVVISC_PERTURBATION": "0.05"}, "0.05"),
    ])
    def test_solve_ns3d_defaults_to_the_ns3d_perturbation(
            self, tmp_path, monkeypatch, argv, env, perturbation):
        # the 1D default 0.3 inverts tets at n = 11 (a config error, exit 2)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        rc = cli.main(["solve", "--problem", "ns3d", "--grids", "11", *argv,
                       "--set", "solver.max_iterations=1",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NONCONVERGENCE
        cfg = (tmp_path / "effective_config.cfg").read_text().splitlines()
        assert f"perturbation = {perturbation}" in cfg

    def test_regular_ns3d_solve_is_the_unperturbed_mesh(self, tmp_path):
        solutions = {}
        for name, argv in (("regular", ["--regular"]),
                           ("flat", ["--perturbation", "0"]),
                           ("perturbed", [])):
            out = tmp_path / name
            rc = cli.main(["solve", "--problem", "ns3d", "--grids", "3",
                           "--set", "solver.target_drop=3", *argv,
                           "--out-dir", str(out)])
            assert rc == cli.EXIT_OK
            solutions[name] = (out / "solution.csv").read_bytes()
        assert solutions["regular"] == solutions["flat"]
        assert solutions["regular"] != solutions["perturbed"]

    def test_volume_weighted_solve_reports_the_weighted_error(
            self, tmp_path, capsys):
        lines = []
        for argv in ([], ["--volume-weighted"]):
            rc = cli.main(["solve", "--grids", "15", *argv,
                           "--out-dir", str(tmp_path)])
            assert rc == cli.EXIT_OK
            lines.append(capsys.readouterr().out.strip())
        assert lines[0].startswith("l1 errors: u=")
        assert lines[0] != lines[1]


class TestMeshExport:
    def test_writes_vtk(self, tmp_path):
        out = tmp_path / "mesh.vtk"
        rc = cli.main(["mesh-export", "--grids", "3", "--output", str(out)])
        assert rc == cli.EXIT_OK
        text = out.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 2.0"

    def test_degenerate_mesh_is_a_config_error(self, tmp_path, capsys):
        # n = 5 at seed 1 and the default perturbation inverts a tet
        out = tmp_path / "mesh.vtk"
        rc = cli.main(["mesh-export", "--grids", "5", "--seed", "1",
                       "--output", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:")
        assert "non-positive volume" in err[0]
        assert "--perturbation" in err[0]


class TestSelftest:
    def test_selftest_passes(self, capsys):
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") == 10
