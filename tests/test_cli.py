"""CLI: config layering, exit codes, artifacts, and order-band checks."""

import pathlib
import re
import shlex

import numpy as np
import pytest

from fvvisc import cli, invariants, verify
from fvvisc.recon import Strategy
from fvvisc.verify import ConvergenceRecord

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# keys that are not configurable: alpha and the flow constants are module
# constants (recon.ALPHA, physics.MACH ...), the omegas are study-1d-omega's
# default strategies, the CFL schedule and linear solve are fixed per
# problem in the solver, and the error norm is always the cell mean
REMOVED_KEYS = ("omegas", "alpha", "flow.mach", "flow.reynolds", "flow.t_ref",
                "flow.sutherland_c", "flow.gamma", "flow.prandtl",
                "solver.cfl_initial", "solver.cfl_growth", "solver.cfl_max",
                "solver.linear_sweeps", "solver.jacobian_lag",
                "volume_weighted")


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

    def test_empty_solver_value_keeps_the_default(self, tmp_path):
        # effective configs that recorded no solver values still reparse
        path = tmp_path / "run.cfg"
        path.write_text("solver.target_drop =\nsolver.max_iterations = \n")
        assert cli.parse_config_file(str(path)) == {
            "solver.target_drop": None, "solver.max_iterations": None}

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
        assert Strategy.from_name("weighted:0.5").nominal_order == 2.0
        assert Strategy.from_name("weighted:0.75").nominal_order == 1.0

    def test_undefined_order_is_a_violation(self):
        rec = ConvergenceRecord("arithmetic", ("u",))
        rec.add_row("n16", 16, 1.0 / 16, [np.nan])
        rec.add_row("n32", 32, 1.0 / 32, [np.nan])
        violations = cli.check_orders({"arithmetic": rec}, 0.2)
        assert "undefined" in violations[0]


class TestPrintSummary:
    def test_defined_and_undefined_lines(self, capsys):
        defined = ConvergenceRecord("arithmetic", ("u",))
        for n in (16, 32, 64):
            defined.add_row(f"n{n}", n, 1.0 / n, [3.0 / n ** 2])
        undefined = ConvergenceRecord("one-sided-left", ("u",))
        undefined.add_row("n16", 16, 1.0 / 16, [np.nan])
        undefined.add_row("n32", 32, 1.0 / 32, [1e-3])
        cli._print_summary({"arithmetic": defined,
                            "one-sided-left": undefined})
        assert capsys.readouterr().out.splitlines() == [
            "arithmetic: finest-pair order 2.000, global slope 2.000, "
            "pairwise 2.00 2.00",
            "one-sided-left: order undefined (fewer than 2 converged rows)"]


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

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--grids", "2"], "grid size 2 is below the minimum 3"),
        (["study-3d", "--grids", "1"], "grid size 1 is below the minimum 2"),
        (["study-1d", "--grids", ","], "grids is empty"),
        (["study-1d", "--grids", "11,7"], "grids must be strictly increasing"),
        (["study-1d", "--grids", "7,7"], "grids must be strictly increasing"),
        (["study-1d", "--perturbation", "0.7", "--grids", "7,11"],
         "perturbation must be in [0, 0.5)"),
        (["solve", "--perturbation", "-0.1"],
         "perturbation must be in [0, 0.5)"),
        (["study-1d", "--seed", "-100", "--grids", "7,11"],
         "seed must be at least 0"),
        (["solve", "--seed", "-1"], "seed must be at least 0"),
        (["study-1d", "--strategies", ",", "--grids", "7,11"],
         "no strategies given"),
        (["study-1d", "--strategies", "arithmetic,arithmetic",
          "--grids", "7,11"], "strategy names must be distinct; "
         "repeated: arithmetic"),
        (["study-1d", "--strategies",
          "weighted:0.1234567,lr-average,weighted:0.1234568",
          "--grids", "7,11"], "strategy names must be distinct; "
         "repeated: weighted:0.123457"),
        (["study-1d-omega", "--strategies", "weighted,weighted:0.5",
          "--grids", "7,11"], "strategy names must be distinct; "
         "repeated: weighted:0.5"),
        (["study-1d", "--grids", "7", "--strategies", "arithmetic"],
         "a study needs at least two grid sizes, got 7"),
        (["study-3d", "--grids", "3"],
         "a study needs at least two grid sizes, got 3"),
        (["study-1d", "--strategies", "arithmetic,weighted:0.5000001",
          "--grids", "7,11"], "omega 0.5000001 prints as weighted:0.5, "
         "which names another weight"),
        (["study-1d-omega", "--strategies", "weighted:0.1234567",
          "--grids", "7,11"], "omega 0.1234567 prints as "
         "weighted:0.123457"),
    ])
    def test_malformed_run_value_exits_2(self, tmp_path, capsys, argv,
                                         message):
        rc = cli.main([*argv, "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {message}")
        assert not (tmp_path / "effective_config.cfg").exists()

    @pytest.mark.parametrize("argv,env,config,message", [
        (["--grids", "7,11,15"], {}, "", "grids, got 7,11,15"),
        (["--problem", "ns3d", "--grids", "3,5"], {}, "", "grids, got 3,5"),
        (["--strategies", "arithmetic,lr-average"], {}, "",
         "strategies, got arithmetic,lr-average"),
        ([], {"FVVISC_GRIDS": "7,11"}, "", "grids, got 7,11"),
        ([], {}, "strategies = arithmetic,lr-average\n",
         "strategies, got arithmetic,lr-average"),
    ], ids=["grids-flag", "ns3d-grids-flag", "strategies-flag", "environment",
            "config-file"])
    def test_solve_takes_one_size_and_one_strategy(
            self, tmp_path, capsys, monkeypatch, argv, env, config, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if config:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        rc = cli.main(["solve", *argv, "--out-dir", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: solve takes one value of {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,env,config,message", [
        ([], {}, "seed =\n", "bad value for seed"),
        ([], {}, "perturbation =\n", "bad value for perturbation"),
        ([], {}, "strategies =\n", "no strategies given"),
        ([], {}, "regular =\n", "bad value for regular"),
        ([], {}, "out_dir =\n", "out_dir is empty"),
        (["--out-dir", ""], {}, "", "out_dir is empty"),
        ([], {"FVVISC_OUT_DIR": ""}, "", "out_dir is empty"),
    ], ids=["seed", "perturbation", "strategies", "regular", "out_dir",
            "out-dir-flag", "out-dir-environment"])
    def test_empty_value_exits_2(self, tmp_path, capsys, monkeypatch, argv,
                                 env, config, message):
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        rc = cli.main(["study-1d", "--grids", "7,11", *argv])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {message}")
        assert not list(tmp_path.rglob("effective_config.cfg"))

    @pytest.mark.parametrize("command,grids,out_dir", [
        ("study-1d", "7,11", "file"), ("solve", "7", "file/sub")],
        ids=["study-1d", "solve"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, command, grids,
                                      out_dir):
        # a path that is a file, or lies under one, cannot be created
        (tmp_path / "file").write_text("")
        rc = cli.main([command, "--grids", grids, "--strategies", "arithmetic",
                       "--out-dir", str(tmp_path / out_dir)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: cannot write to out_dir: ")

    def test_degenerate_mesh_is_a_config_error(self, tmp_path, capsys):
        # n = 5 at seed 1 and perturbation 0.3 inverts a tet
        rc = cli.main(["solve", "--problem", "ns3d", "--grids", "5",
                       "--seed", "1", "--perturbation", "0.3",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "solution.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:")
        assert "non-positive volume" in err[0]
        assert "--perturbation" in err[0]

    def test_bad_solver_value_exits_2(self, tmp_path):
        rc = cli.main(["solve", "--set", "solver.max_iterations=0",
                       "--grids", "7", "--strategies", "arithmetic",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("drop", ["nan", "inf"])
    def test_non_finite_target_drop_exits_2(self, tmp_path, capsys, drop):
        # a drop that can never be reached would run to the iteration cap
        rc = cli.main(["solve", "--set", f"solver.target_drop={drop}",
                       "--grids", "7", "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: target_drop must be positive and "
                       "finite, and max_iterations positive"]
        assert not (tmp_path / "effective_config.cfg").exists()

    @pytest.mark.parametrize("layer", ["environment", "config-file"])
    def test_study_rejects_another_problem(self, tmp_path, capsys,
                                           monkeypatch, layer):
        # the effective config would record ns3d for a 1D study, and
        # reparsing it with solve --config would run a 3D solve
        argv = ["study-1d", "--grids", "7,11", "--strategies", "arithmetic",
                "--out-dir", str(tmp_path / "out")]
        if layer == "environment":
            monkeypatch.setenv("FVVISC_PROBLEM", "ns3d")
        else:
            path = tmp_path / "run.cfg"
            path.write_text("problem = ns3d\n")
            argv += ["--config", str(path)]
        rc = cli.main(argv)
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: problem = ns3d is set, but this "
                       "command runs diffusion1d"]
        assert not (tmp_path / "out").exists()

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

    def test_regular_run_records_the_perturbation_it_uses(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        rc = cli.main(["study-1d-omega", "--regular", "--grids", "7,11",
                       "--out-dir", str(first)])
        assert rc == cli.EXIT_OK
        cfg = (first / "effective_config.cfg").read_text().splitlines()
        assert "regular = true" in cfg
        assert "perturbation = 0.0" in cfg
        rc = cli.main(["study-1d-omega", "--config",
                       str(first / "effective_config.cfg"),
                       "--out-dir", str(again)])
        assert rc == cli.EXIT_OK
        tables = sorted(p.name for p in first.glob("*.csv"))
        assert len(tables) == 5
        for name in tables:
            assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("argv,drop", [
        (["solve", "--problem", "ns3d", "--grids", "3"], "7.0"),
        (["study-1d", "--grids", "7,11"], "8.0"),
    ], ids=["ns3d-solve", "study-1d"])
    def test_effective_config_records_the_solver_values(self, tmp_path, argv,
                                                         drop):
        # a run that set no solver key still records when it stopped
        rc = cli.main([*argv, "--out-dir", str(tmp_path)])
        assert rc != cli.EXIT_CONFIG
        cfg = (tmp_path / "effective_config.cfg").read_text().splitlines()
        assert f"solver.target_drop = {drop}" in cfg
        assert "solver.max_iterations = 2000" in cfg

    def test_order_band_violation_exits_4(self, tmp_path):
        # seed 1 is a known grid pair whose coarse pre-asymptotic order
        # (~3.0) sits far outside the 2.0 +/- 0.2 band
        rc = cli.main(["study-1d", "--strategies", "arithmetic",
                       "--grids", "7,11", "--check-orders", "--seed", "1",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_ORDER_BAND

    @pytest.mark.parametrize("command",
                             ["study-1d", "study-1d-omega", "study-3d"])
    def test_studies_take_check_orders(self, command):
        args = cli.build_parser().parse_args([command, "--check-orders"])
        assert args.check_orders

    def test_solve_rejects_check_orders(self, tmp_path, capsys):
        # solve has no orders to check, so the flag is an error, not a no-op
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--check-orders", "--grids", "7",
                      "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --check-orders" \
            in capsys.readouterr().err
        assert not (tmp_path / "effective_config.cfg").exists()


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

    def test_solve_ns3d_labels_the_reference_row(self, tmp_path):
        rc = cli.main(["solve", "--problem", "ns3d", "--grids", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        hist = (tmp_path / "history.csv").read_text().splitlines()
        assert "reference" in hist[0]
        assert hist[1] == ("iteration,l1_res_rho,l1_res_u,l1_res_v,"
                           "l1_res_w,l1_res_T,cfl")
        assert hist[2].startswith("reference,")
        assert not any(r.startswith("reference,") for r in hist[3:])

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
                       "--set", "solver.target_drop=12",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NONCONVERGENCE
        cfg = (tmp_path / "effective_config.cfg").read_text().splitlines()
        assert f"perturbation = {perturbation}" in cfg

    @pytest.mark.parametrize("problem", ["diffusion1d", "ns3d"])
    def test_solve_defaults_to_one_size_and_one_strategy(self, tmp_path,
                                                         problem):
        rc = cli.main(["solve", "--problem", problem,
                       "--set", "solver.max_iterations=1",
                       "--set", "solver.target_drop=12",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NONCONVERGENCE
        cfg = (tmp_path / "effective_config.cfg").read_text().splitlines()
        assert "grids = 7" in cfg
        assert "strategies = lr-average" in cfg

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


class TestReadme:
    def test_usage_commands_parse(self):
        # every command of the README's Usage block is one the CLI accepts
        usage = re.search(r"## Usage\n+```sh\n(.*?)```", README.read_text(),
                          re.S).group(1)
        commands = [shlex.split(line)[1:] for line in usage.splitlines()
                    if line.startswith("fvvisc ")]
        assert len(commands) >= 5
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail("README command does not parse: fvvisc "
                            + shlex.join(argv))


class TestSelftest:
    def test_selftest_passes(self, capsys):
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 10

    def test_failing_check_exits_1_after_running_every_check(
            self, capsys, monkeypatch):
        def broken():
            raise AssertionError("deliberately broken")
        monkeypatch.setattr(invariants, "CHECKS", [
            ("broken", broken), ("fine", lambda: None)])
        rc = cli.main(["selftest"])
        assert rc == cli.EXIT_CHECK_FAILED == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL broken: deliberately broken", "PASS fine"]
