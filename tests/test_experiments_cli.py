import json

import numpy as np
import pytest

from hbvm import experiments
from hbvm.cli import main
from hbvm.experiments import (
    ConfigError,
    RunConfig,
    _sampler,
    build_run,
    parse_method,
    run_convergence,
    run_drift,
    run_solve,
    run_work_precision,
)
from hbvm.integrator import SolverConfig
from hbvm.wave_fourier import eval_solution

TINY = dict(problem="sine-gordon", N=40, k=3, s=1, h=0.1, steps=12, stride=4)


class TestRunConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="heat").validate()
        with pytest.raises(ConfigError):
            RunConfig(scheme="fd4", bc="dirichlet").validate()
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                RunConfig(h=bad).validate()
        with pytest.raises(ConfigError):
            RunConfig(tol=float("nan")).validate()
        with pytest.raises(ConfigError):
            RunConfig(k=1, s=2).validate()

    @pytest.mark.parametrize("name", ["N", "m", "k", "s", "steps", "stride", "max_iter"])
    @pytest.mark.parametrize("bad", [5.0, True, "5"])
    def test_integer_fields_reject_other_types(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            RunConfig(**{name: bad}).validate()

    def test_fourier_quadrature_bound(self):
        with pytest.raises(ConfigError, match="m >= 2N"):
            RunConfig(scheme="fourier", N=10, m=19).validate()
        RunConfig(scheme="fourier", N=10, m=20).validate()
        RunConfig(scheme="fd2", N=10, m=5).validate()  # m is read by the Fourier scheme only

    def test_fourier_quadrature_defaults_to_2n(self):
        assert RunConfig(scheme="fourier", N=10).validate().m == 20
        assert RunConfig(N=np.int64(10)).validate().m == 20
        system, _, _ = build_run(RunConfig(scheme="fourier", N=16))
        assert system.descriptor["spectral"].m == 32
        system, _, _ = build_run(RunConfig(problem="quartic-wave", scheme="fourier", N=16, m=40))
        assert system.descriptor["spectral"].m == 40  # an explicit m is kept

    def test_solver_defaults_follow_solver_config(self):
        assert RunConfig().solver_config() == SolverConfig(mode="auto")

    def test_problem_bc_combinations_rejected(self):
        from hbvm.experiments import build_run

        with pytest.raises(ConfigError):
            build_run(RunConfig(problem="nls", bc="dirichlet"))
        with pytest.raises(ConfigError):
            build_run(RunConfig(problem="quartic-wave", bc="neumann"))
        with pytest.raises(ConfigError):
            build_run(RunConfig(problem="nls", scheme="fourier", m=800))
        with pytest.raises(ConfigError, match="unknown scheme 'fd3'"):
            build_run(RunConfig(problem="quartic-wave", scheme="fd3"))

    def test_parse_method(self):
        kind, method = parse_method("HBVM(6,2)")
        assert kind == "hbvm" and (method.k, method.s) == (6, 2)
        kind, scheme = parse_method("sv4")
        assert kind == "sv" and scheme.order == 4
        for bad in ("rk4", "hbvm(30,1)", "hbvm(7,7)"):
            with pytest.raises(ConfigError):
                parse_method(bad)


class TestRunSolve:
    def test_zero_steps_single_row(self, tmp_path):
        out = str(tmp_path / "zero")
        run_solve(RunConfig(**{**TINY, "steps": 0}, out=out))
        lines = (tmp_path / "zero_drift.csv").read_text().splitlines()
        assert lines[0] == "step,time,H,H_tilde,H_drift,H_tilde_drift,iterations,residual"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_artifacts_and_schema(self, tmp_path):
        out = str(tmp_path / "run")
        record = run_solve(RunConfig(**TINY, out=out))
        drift = (tmp_path / "run_drift.csv").read_text().splitlines()
        assert len(drift) == TINY["steps"] + 2
        solution = (tmp_path / "run_solution.csv").read_text().splitlines()
        assert solution[0].split(",")[0] == "x"
        assert len(solution) == 40 + 1
        # recorded columns: t=0, strided, final
        assert len(solution[0].split(",")) == 1 + len(record.record_times)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["method"] == "HBVM(3,1)"
        assert summary["config"]["N"] == 40

    def test_augmented_columns_filled(self, tmp_path):
        out = str(tmp_path / "aug")
        run_solve(RunConfig(**{**TINY, "bc": "dirichlet"}, out=out))
        row = (tmp_path / "aug_drift.csv").read_text().splitlines()[2].split(",")
        assert row[3] != ""  # H_tilde present for augmented systems

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_solve(RunConfig(**TINY, out=a))
        run_solve(RunConfig(**TINY, out=b))
        assert (tmp_path / "a_drift.csv").read_bytes() == (tmp_path / "b_drift.csv").read_bytes()
        assert (tmp_path / "a_solution.csv").read_bytes() == (tmp_path / "b_solution.csv").read_bytes()

    def test_spectral_solution_snapshots_reconstructed_on_quadrature_grid(self, tmp_path):
        out = str(tmp_path / "fg")
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=16, m=40, k=3, s=1, h=0.1, steps=6, stride=3, out=out)
        run_solve(cfg)
        lines = (tmp_path / "fg_solution.csv").read_text().splitlines()
        assert len(lines) == 40 + 1  # quadrature grid rows
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(-20.0)
        assert first[1] == pytest.approx(0.0, abs=1e-10)  # u(x, 0) = 0

    def test_spectral_sampler_is_the_basis_expansion_on_the_grid(self, rng):
        system, _, _ = build_run(RunConfig(problem="sine-gordon", scheme="fourier", N=16, m=40))
        spec, x = system.descriptor["spectral"], system.descriptor["x"]
        np.testing.assert_array_equal(x, spec.basis.points(40))
        y = rng.standard_normal(system.dim)
        expected = eval_solution(spec.basis, y[: spec.basis.dim], x)
        np.testing.assert_allclose(_sampler(system)(y), expected, rtol=0, atol=1e-13)


class TestRunDrift:
    def test_empty_methods_rejected(self, tmp_path):
        out = tmp_path / "d.csv"
        with pytest.raises(ConfigError, match="at least one method"):
            run_drift(RunConfig(**TINY, out=str(out)), [])
        assert not out.exists()

    def test_multi_method_rows(self, tmp_path):
        cfg = RunConfig(**TINY)
        rows = run_drift(cfg, ["hbvm(3,1)", "sv2"])
        methods = {r[0] for r in rows}
        assert methods == {"hbvm(3,1)", "sv2"}
        assert len(rows) == 2 * (TINY["steps"] + 1)

    def test_explicit_on_augmented_rejected(self):
        cfg = RunConfig(**{**TINY, "bc": "dirichlet"})
        with pytest.raises(ConfigError):
            run_drift(cfg, ["sv2"])

    def test_explicit_on_non_separable_rejected(self):
        cfg = RunConfig(problem="nls", N=16, h=0.001, steps=2)
        with pytest.raises(ConfigError, match="separable"):
            run_drift(cfg, ["sv2"])


_NLS = dict(problem="nls", N=16, h=0.001, steps=2)
_ONE_H = (0.5, 0.5, 1)


class TestInvalidMethodListsRunNothing:
    @pytest.mark.parametrize("study, config, methods, message", [
        pytest.param("drift", _NLS, ["hbvm(5,1)", "sv2"], "separable", id="drift-nls-sv2"),
        pytest.param("drift", _NLS, ["hbvm(5,1)", "bogus"], "unknown method", id="drift-nls-bogus"),
        pytest.param("drift", dict(TINY, bc="dirichlet"), ["hbvm(3,1)", "sv4"], "boundary", id="drift-dirichlet-sv4"),
        pytest.param("wpd", TINY, {"hbvm(5,1)": _ONE_H, "hbvm(3,5)": _ONE_H}, "requires k >= s", id="wpd-k-below-s"),
        pytest.param("wpd", TINY, {"sv2": _ONE_H, "rk4": _ONE_H}, "unknown method", id="wpd-rk4"),
    ])
    def test_rejected_before_the_first_integration(self, study, config, methods, message, monkeypatch):
        # every method of the list is checked before any of them integrates: zero integrations
        def integration(*args, **kwargs):
            raise AssertionError("a method integrated before the list was checked")

        for name in ("integrate", "integrate_explicit"):
            monkeypatch.setattr(experiments, name, integration)
        with pytest.raises(ConfigError, match=message):
            if study == "drift":
                run_drift(RunConfig(**config), methods)
            else:
                run_work_precision(RunConfig(**config), final_time=1.0, grid=methods)


class TestRunConvergence:
    def test_second_order_rates(self):
        rows = run_convergence(RunConfig(**TINY), [100, 200], final_time=10.0)
        assert rows[0][2] is None
        assert rows[1][2] == pytest.approx(2.0, abs=0.15)

    def test_requires_analytic_reference(self):
        with pytest.raises(ConfigError):
            run_convergence(RunConfig(problem="nls"), [100, 200])


class TestRunWorkPrecision:
    def test_rows_and_status(self):
        rows = run_work_precision(RunConfig(**TINY), methods=["hbvm(5,1)"], final_time=2.0)
        assert len(rows) == 10
        assert all(r[-1] == "ok" for r in rows)
        hs = [r[1] for r in rows]
        assert hs == sorted(hs, reverse=True)
        # nearest-mesh-point rule: h divides final_time exactly
        for r in rows:
            assert (2.0 / r[1]) == pytest.approx(round(2.0 / r[1]), abs=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            run_work_precision(RunConfig(**TINY), methods=["hbvm(2,1)"])

    def test_empty_methods_rejected(self, tmp_path):
        out = tmp_path / "w"
        with pytest.raises(ConfigError, match="at least one method"):
            run_work_precision(RunConfig(**TINY, out=str(out)), methods=[], final_time=2.0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config", [dict(problem="nls", N=16), dict(bc="dirichlet", N=40), dict(problem="quartic-wave", N=16)]
    )
    def test_requires_analytic_reference(self, config):
        for methods in (None, ["sv2"]):
            with pytest.raises(ConfigError, match="analytic reference"):
                run_work_precision(RunConfig(**config), methods=methods, final_time=1.0)
        with pytest.raises(ConfigError, match="analytic reference"):
            run_convergence(RunConfig(**config), [10, 20], final_time=1.0)

    def test_explicit_method_flagged_unstable_on_stiff_spectral_system(self):
        # leapfrog stability requires h * w_max < 2; the 100-mode spectral
        # system has w_max ~ 15.7, so h = 0.2 must blow up and be flagged
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=100, m=200)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_work_precision(cfg, methods=["sv2"], final_time=20.0, grid={"sv2": (0.2, 0.2, 1)})
        assert rows[0][-1] == "diverged"
        assert rows[0][2] is None

    def test_hbvm_solver_failure_flagged_apart_from_divergence(self, capsys):
        # three fixed-point iterations cannot converge at h = 0.5: the stage
        # solve fails, which is not an explicit blow-up
        cfg = RunConfig(N=100, solver="fixed-point", max_iter=3)
        rows = run_work_precision(cfg, final_time=4.0, grid={"hbvm(5,1)": (0.5, 0.5, 1)})
        assert rows == [("hbvm(5,1)", 0.5, None, None, None, None, "solver-failed")]
        argv = ["wpd", "-N", "100", "--solver", "fixed-point", "--max-iter", "3", "--final-time", "4",
                "--methods", "hbvm(5,1)"]
        assert main(argv) == 0
        assert capsys.readouterr().out.split()[-1] == "solver-failed"

    def test_stable_step_on_spectral_system_is_ok(self):
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=100, m=200)
        rows = run_work_precision(cfg, methods=["sv2"], final_time=5.0, grid={"sv2": (0.05, 0.05, 1)})
        assert rows[0][-1] == "ok"

    def test_order_six_beats_order_two_at_equal_stepsize(self):
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=100, m=200)
        grid = {"hbvm(9,3)": (0.25, 0.25, 1), "hbvm(5,1)": (0.25, 0.25, 1)}
        rows = run_work_precision(cfg, final_time=25.0, grid=grid)
        errs = {r[0]: r[2] for r in rows}
        assert errs["hbvm(9,3)"] < errs["hbvm(5,1)"]

    def test_energy_drift_separates_conserving_and_symplectic_rows(self):
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=100, m=200)
        grid = {"hbvm(5,1)": (0.1, 0.1, 1), "sv2": (0.05, 0.05, 1)}
        rows = run_work_precision(cfg, final_time=10.0, grid=grid)
        drifts = {r[0]: r[3] for r in rows}
        assert drifts["hbvm(5,1)"] <= 1e-11
        assert drifts["sv2"] > 100 * drifts["hbvm(5,1)"]


class TestFourierConvergence:
    def test_spectral_levels_keep_modes_fixed(self):
        # the mode count stays fixed across levels; with the spatial error
        # far below the time error the measured rate is the method's
        cfg = RunConfig(problem="sine-gordon", scheme="fourier", N=64, m=144, k=3, s=1)
        rows = run_convergence(cfg, [25, 50], final_time=5.0)
        assert len(rows) == 2
        assert rows[1][2] == pytest.approx(2.0, abs=0.3)


class TestCLI:
    def test_solve_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        code = main(
            ["solve", "--problem", "sine-gordon", "-N", "40", "-k", "3", "-s", "1",
             "--h", "0.1", "--steps", "5", "--out", out]
        )
        assert code == 0
        assert "max|H drift|" in capsys.readouterr().out
        assert (tmp_path / "r_summary.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"problem": "sine-gordon", "N": 40, "k": 3, "s": 1, "steps": 3, "h": 0.2}))
        out = str(tmp_path / "c")
        code = main(["solve", "--config", str(cfg_file), "--steps", "4", "--out", out])
        assert code == 0
        summary = json.loads((tmp_path / "c_summary.json").read_text())
        assert summary["config"]["steps"] == 4  # flag wins
        assert summary["config"]["h"] == 0.2  # file value kept

    def test_bad_config_exit_code(self, tmp_path, capsys):
        assert main(["solve", "--problem", "sine-gordon", "--scheme", "fd4", "--bc", "neumann"]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert main(["solve", "--problem", "nls", "-N", "16", "--h", "nan", "--steps", "2"]) == 2
        for final_time in ("-5", "0", "nan", "inf"):
            assert main(["convergence", "--levels", "20", "--final-time", final_time]) == 2
            assert main(["wpd", "--methods", "sv2", "-N", "40", "--final-time", final_time]) == 2
        assert "final_time must be finite and positive" in capsys.readouterr().err
        for method in ("hbvm(1,2)", "hbvm(0,0)", "hbvm(30,1)", "hbvm(7,7)"):
            assert main(["drift", "-N", "50", "--steps", "2", "--methods", method]) == 2
        for k, s in (("30", "1"), ("7", "7")):
            assert main(["solve", "-N", "40", "--steps", "2", "-k", k, "-s", s]) == 2
        assert "configuration error" in capsys.readouterr().err
        # the retired dense Newton mode is an unknown solver like any other
        retired = tmp_path / "retired_solver.json"
        retired.write_text(json.dumps({"solver": "simplified-newton-dense", "steps": 2, "N": 40}))
        assert main(["solve", "--config", str(retired)]) == 2
        assert "unknown solver mode 'simplified-newton-dense'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "-N", "40", "--steps", "2", "--solver", "simplified-newton-dense"])
        assert exit_info.value.code == 2

    def test_config_errors_that_used_to_crash(self, tmp_path, capsys):
        assert main(["solve", "--scheme", "fourier", "-N", "10", "-m", "5", "--steps", "2"]) == 2
        assert "m >= 2N" in capsys.readouterr().err
        cfg_file = tmp_path / "float_k.json"
        cfg_file.write_text(json.dumps({"k": 5.0, "steps": 2, "N": 40}))
        assert main(["solve", "--config", str(cfg_file)]) == 2
        assert "k must be an integer" in capsys.readouterr().err
        bad_file = tmp_path / "bad_type.json"
        for value in ("0.1", True, None):
            bad_file.write_text(json.dumps({"h": value, "steps": 2, "N": 40}))
            assert main(["solve", "--config", str(bad_file)]) == 2
            assert "h must be a real number" in capsys.readouterr().err
        bad_file.write_text(json.dumps({"out": 5, "steps": 2, "N": 40}))
        assert main(["solve", "--config", str(bad_file)]) == 2
        assert "out must be a path prefix string" in capsys.readouterr().err
        assert main(["drift", "--problem", "nls", "-N", "16", "--h", "0.001", "--steps", "2", "--methods", "sv2"]) == 2
        assert "separable" in capsys.readouterr().err
        # meshes below each builder's minimum
        for flags in (
            ["-N", "2"],
            ["--scheme", "fd4", "-N", "4"],
            ["--scheme", "fd6", "-N", "5"],
            ["--bc", "dirichlet", "-N", "2"],
            ["--problem", "nls", "-N", "2"],
        ):
            assert main(["solve", *flags, "--steps", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "N" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("levels", ["10,2.5", "20,20", ""])
    def test_bad_convergence_levels_are_config_errors(self, levels, capsys):
        # a fractional, a repeated (rate over log2(1)) and an empty level list
        assert main(["convergence", "--levels", levels, "-N", "40", "--final-time", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "level" in err

    @pytest.mark.parametrize("command", ["wpd", "drift"])
    def test_empty_method_list_is_a_config_error(self, command, capsys):
        # "," splits into no method at all, which used to run nothing and exit 0
        assert main([command, "--methods", ",", "-N", "40", "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "at least one method" in err

    @pytest.mark.parametrize("command", ["solve", "drift"])
    def test_blended_on_nls_runs(self, command, tmp_path):
        # NLS states its stiff linear part in a semilinear form, so the
        # blended solver runs it like the wave systems
        out = str(tmp_path / "nls")
        argv = [command, "--problem", "nls", "-N", "16", "--h", "0.001", "--steps", "2", "--solver", "blended",
                "--out", out]
        if command == "drift":
            argv += ["--methods", "hbvm(5,1)"]
        assert main(argv) == 0
        if command == "solve":
            assert json.loads((tmp_path / "nls_summary.json").read_text())["solver_mode"] == "blended"
        build_run(RunConfig(problem="nls", N=16, h=0.001, steps=2, solver="blended"))

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"stepsize": 0.1}))
        assert main(["solve", "--config", str(cfg_file)]) == 2

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # fixed-point iteration cannot reach 1e-15 at h/dx = 1 on this grid
        out = str(tmp_path / "fail")
        code = main(
            ["solve", "--problem", "sine-gordon", "-N", "100", "--h", "0.4", "--steps", "5",
             "--solver", "fixed-point", "--tol", "1e-15", "--max-iter", "4", "--out", out]
        )
        assert code == 3
        assert "solver failure" in capsys.readouterr().err
        # partial drift report flushed
        assert (tmp_path / "fail_drift.csv").exists()

    def test_drift_methods_parsing(self, tmp_path):
        out = str(tmp_path / "d.csv")
        code = main(
            ["drift", "--problem", "sine-gordon", "-N", "40", "--h", "0.1", "--steps", "4",
             "--methods", "hbvm(3,1),sv2", "--out", out]
        )
        assert code == 0
        text = (tmp_path / "d.csv").read_text()
        assert '"hbvm(3,1)"' in text and "sv2" in text

    def test_convergence_output(self, tmp_path, capsys):
        out = str(tmp_path / "conv.csv")
        code = main(
            ["convergence", "--problem", "sine-gordon", "--levels", "50,100",
             "--final-time", "5", "--out", out]
        )
        assert code == 0
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert lines[0] == "level,max_error,rate"
        assert len(lines) == 3

    def test_nls_solve(self, tmp_path):
        out = str(tmp_path / "nls")
        code = main(
            ["solve", "--problem", "nls", "--kappa", "0.5", "-N", "24",
             "--h", "0.02", "--steps", "10", "--out", out]
        )
        assert code == 0
        row = (tmp_path / "nls_drift.csv").read_text().splitlines()[-1].split(",")
        assert abs(float(row[4])) < 1e-10  # H_drift column

    def test_quartic_wave_solve(self):
        assert main(["solve", "--problem", "quartic-wave", "-N", "16", "--h", "0.05", "--steps", "8"]) == 0

    def test_fourier_solve_with_default_quadrature(self, tmp_path):
        # m defaults to 2N, so the default N = 400 gets the m = 800 it needs
        out = str(tmp_path / "f")
        assert main(["solve", "--scheme", "fourier", "--steps", "2", "--out", out]) == 0
        assert json.loads((tmp_path / "f_summary.json").read_text())["config"]["m"] == 800
        assert (tmp_path / "f_solution.csv").read_text().count("\n") == 801  # header and the 2N quadrature points
