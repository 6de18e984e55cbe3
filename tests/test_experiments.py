import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtransistor
from qtransistor import (
    ConfigError,
    DarkStateError,
    DriveSpec,
    ParameterError,
    SweepSpec,
    SystemParams,
    optimize_lambda,
    run_modulation,
    run_populations,
    run_sweep,
    validate_secular,
    write_sweep_csv,
)
from qtransistor.dynamics import solve
from qtransistor.experiments import (
    CELL_FORMAT,
    CSV_HEADER,
    error_text,
    format_rows,
    load_config,
    params_from_config,
    parse_config,
    population_rows,
    sweep_from_config,
    sweep_rows,
)
from qtransistor.model import FIELD_NAMES
from qtransistor.presets import PRESETS


class TestConfigParsing:
    def test_basic_parse(self):
        cfg = parse_config("""
        # comment
        omega_L = 30
        omega_M = 1   # trailing comment
        g = 0.1
        """)
        assert cfg == {"omega_L": "30", "omega_M": "1", "g": "0.1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("g = 1\ng = 2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("gee = 1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("omega_L 30")

    def test_gamma_broadcast(self):
        cfg = parse_config(
            "omega_L=30\nomega_M=1\ng=0.1\nT_L=5\nT_M=1\nT_R=0.5\n"
            "gamma=0.002\ngamma_M=0.004")
        params = params_from_config(cfg)
        assert params.gamma_L == 0.002
        assert params.gamma_M == 0.004
        assert params.gamma_R == 0.002

    def test_missing_parameter_reported(self):
        with pytest.raises(ConfigError, match="T_R"):
            params_from_config(parse_config(
                "omega_L=30\nomega_M=1\ng=0.1\nT_L=5\nT_M=1\ngamma=0.002"))
        cfg = load_config("fig9a")
        del cfg["axis"]
        with pytest.raises(ConfigError, match="^missing required key 'axis'$"):
            sweep_from_config(cfg)

    def test_lambdas_default_and_decay_rates_need_gamma(self):
        base = "omega_L=30\nomega_M=1\ng=0.1\nT_L=5\nT_M=1\nT_R=0.5\n"
        params = params_from_config(parse_config(base + "gamma=0.002"))
        assert (params.lambda1, params.lambda2, params.lambda3) == (0.0, 0.0, 0.0)
        with pytest.raises(ConfigError, match="missing 'gamma_M' \\(or a common 'gamma'\\)"):
            params_from_config(parse_config(base + "gamma_L=0.002"))

    @pytest.mark.parametrize("points", ["2.7", "inf", "nan"])
    def test_non_integral_points_rejected(self, points):
        cfg = load_config("fig9a")
        cfg["points"] = points
        with pytest.raises(ConfigError, match="points"):
            sweep_from_config(cfg)

    def test_presets_all_parse(self):
        from qtransistor.experiments import drive_from_config

        for name in PRESETS:
            cfg = load_config(name)
            params_from_config(cfg)
            if "axis" in cfg:
                sweep_from_config(cfg)
            if "drive_Omega" in cfg:
                drive = drive_from_config(cfg)
                assert drive.Omega > 0 and drive.delta_t > 0

    def test_bad_number_reported_as_config_error(self):
        cfg = parse_config(
            "omega_L=30\nomega_M=1\ng=0.1\nT_L=5\nT_M=1\nT_R=0.5\n"
            "gamma=0.002\nlambda1=fast")
        with pytest.raises(ConfigError, match="lambda1"):
            params_from_config(cfg)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config("fig99")


class TestSweepSpec:
    def test_degenerate_range_rejected(self, fig2_params):
        with pytest.raises(ConfigError):
            SweepSpec(base=fig2_params, axis="T_M", lo=1.0, hi=1.0, points=5)

    def test_unknown_axis_rejected(self, fig2_params):
        with pytest.raises(ConfigError):
            SweepSpec(base=fig2_params, axis="omega_L", lo=1.0, hi=2.0, points=5)

    def test_gamma_bias_resolution(self, fig2_params):
        spec = SweepSpec(base=fig2_params, axis="gamma_bias", lo=1.0, hi=6.0, points=6)
        params, rho44 = spec.resolve(3.0)
        assert params.gamma_L == pytest.approx(3.0 * fig2_params.gamma_M)
        assert params.gamma_R == pytest.approx(3.0 * fig2_params.gamma_M)
        assert params.gamma_M == fig2_params.gamma_M
        assert rho44 is None

    @pytest.mark.parametrize("lo, hi", [
        (0.5, math.inf), (-math.inf, 1.5), (math.nan, 1.5), (0.5, math.nan),
    ])
    def test_non_finite_range_rejected(self, fig2_params, lo, hi):
        with pytest.raises(ConfigError, match="sweep range lo = .* must be finite"):
            SweepSpec(base=fig2_params, axis="T_M", lo=lo, hi=hi, points=5)

    @pytest.mark.parametrize("points", [2.5, math.inf, math.nan])
    def test_non_integral_points_rejected(self, fig2_params, points):
        with pytest.raises(ConfigError, match="sweep points = .* is not an integer"):
            SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=1.5, points=points)

    def test_integral_points_are_stored_as_an_int(self, fig2_params):
        # a config's points = 3 is read as the float 3.0
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=1.5, points=3.0)
        assert type(spec.points) is int and spec.points == 3

    def test_rho44_axis_resolution(self, dark_params):
        spec = SweepSpec(base=dark_params, axis="rho44_init", lo=0.0, hi=0.9,
                         points=4, outputs=("currents",))
        params, rho44 = spec.resolve(0.3)
        assert params == dark_params
        assert rho44 == 0.3


class TestRunSweep:
    def test_record_fields_and_conservation(self, fig2_params):
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=2.5, points=5)
        result = run_sweep(spec)
        sol = result.solution
        assert list(result.values) == pytest.approx(list(np.linspace(0.5, 2.5, 5)))
        assert all(error is None for error in sol.errors)
        assert list(result.x[:, FIELD_NAMES.index("T_M")]) == list(result.values)
        for q, p, (alpha_L, alpha_R) in zip(sol.currents, sol.populations, sol.alpha):
            assert abs(q.sum()) < 1e-10 * abs(q[0])
            assert abs(p.sum() - 1.0) < 1e-12
            assert alpha_L + alpha_R == pytest.approx(-1.0, abs=1e-6)
        assert result.secular.all()

    def test_dark_sweep_without_rho44_records_errors(self, dark_params):
        spec = SweepSpec(base=dark_params, axis="T_M", lo=0.5, hi=1.5, points=3,
                         outputs=("currents",))
        errors = run_sweep(spec).solution.errors
        assert all(error is not None for error in errors)
        assert all("rho44" in error_text(error) for error in errors)

    def test_programming_errors_propagate(self, fig2_params, monkeypatch):
        # only domain errors become error rows; a bug must fail the run
        def broken(*args, **kwargs):
            raise TypeError("broken layer")

        monkeypatch.setattr("qtransistor.dynamics._currents", broken)
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=1.5, points=2,
                         outputs=("currents",))
        with pytest.raises(TypeError, match="broken layer"):
            run_sweep(spec)

    def test_csv_round_trip_and_determinism(self, fig2_params, tmp_path):
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=2.5, points=4,
                         outputs=("currents", "populations"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(spec), str(a))
        write_sweep_csv(run_sweep(spec), str(b))
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert len(first) == len(CSV_HEADER.split(","))
        assert float(first[0]) == 0.5
        assert first[4] == ""  # alpha not requested
        assert first[-2] == "PASS"
        assert first[-1] == ""

    def test_failed_point_leaves_the_other_rows_unchanged(self, fig2_params):
        # at T_M = 0.001 the control bath's occupations underflow to zero, so
        # alpha alone is undefined there; the batch solves the other points
        # exactly as a sweep without that point does
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.001, hi=3.001, points=4)
        rest = SweepSpec(base=fig2_params, axis="T_M", lo=1.001, hi=3.001, points=3)
        assert list(spec.values()[1:]) == list(rest.values())
        result = run_sweep(spec)
        sol, rows = result.solution, sweep_rows(result)
        assert error_text(sol.errors[0]).startswith("DegenerateControlError: ")
        # the point's alpha is left out; its currents and populations are kept
        cells = rows[0].split(",")
        assert np.isnan(sol.alpha[0]).all() and cells[4:6] == ["", ""]
        assert np.isfinite(sol.currents[0]).all() and np.isfinite(sol.populations[0]).all()
        assert "" not in cells[1:4] + cells[6:14]
        assert all(error is None for error in sol.errors[1:])
        assert rows[1:] == sweep_rows(run_sweep(rest))

    @pytest.mark.parametrize("preset", ["fig5b", "fig9a", "fig7a"])
    def test_emitted_rows_conserve_energy(self, preset):
        # every emitted row must satisfy the current-conservation invariant
        spec = dataclasses.replace(sweep_from_config(load_config(preset)), points=5)
        sol = run_sweep(spec).solution
        assert all(error is None for error in sol.errors)
        for q in sol.currents:
            assert abs(q.sum()) < 1e-10 * np.max(np.abs(q))

    def test_fig9a_bias_trend(self):
        # independent-reservoir case: amplification grows with the decay bias
        spec = sweep_from_config(load_config("fig9a"))
        alphas = run_sweep(spec).solution.alpha[:, 0]  # alpha_L on the bias grid {1, 2, ..., 6}
        assert alphas[0] < alphas[2] < alphas[5]  # bias 1, 3, 6


class TestRunModulation:
    def test_zero_duration_is_identity(self, modulation_params):
        drive = DriveSpec(Omega=0.3, delta_t=0.0)
        rep = run_modulation(modulation_params, drive, 0.99)
        assert rep.rho44_after == pytest.approx(0.99, abs=1e-14)
        np.testing.assert_allclose(rep.currents_after.as_array(),
                                   rep.currents_before.as_array(), rtol=1e-12)

    def test_full_period_returns(self, modulation_params):
        drive = DriveSpec(Omega=0.3, delta_t=math.pi / 0.3)
        rep = run_modulation(modulation_params, drive, 0.7)
        assert rep.rho44_after == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(rep.currents_after.as_array(),
                                   rep.currents_before.as_array(), rtol=1e-8)

    def test_modulation_scaling(self, modulation_params):
        drive = DriveSpec(Omega=0.3, delta_t=0.7 * math.pi / 0.3)
        rep = run_modulation(modulation_params, drive, 0.99)
        assert rep.scale_factor == pytest.approx(rep.predicted_scale, rel=1e-10)
        assert rep.scale_factor > 50.0
        # trajectory spans one Rabi period and starts at the pinned value
        assert rep.times[-1] == pytest.approx(math.pi / 0.3)
        assert rep.rho44_trajectory[0] == pytest.approx(0.99, abs=1e-12)
        assert rep.rho44_trajectory[-1] == pytest.approx(0.99, abs=1e-12)

    def test_requires_dark_state(self, fig2_params):
        with pytest.raises(DarkStateError):
            run_modulation(fig2_params, DriveSpec(Omega=0.3, delta_t=1.0), 0.9)


class TestRunPopulations:
    def test_curves_normalised_and_top_states_negligible(self, fig2_params):
        params = fig2_params.replace(g=0.7, lambda1=0.9, lambda2=0.0, lambda3=0.0)
        curves = run_populations(SweepSpec(params, "T_M", 0.1, 3.0, 12),
                                 compare_lambda1=0.0)
        assert np.max(np.abs(curves.populations.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(curves.populations[:, 6] + curves.populations[:, 7]) < 1e-3
        # common coupling only slightly shifts the populations
        assert np.max(np.abs(curves.difference)) < 0.01 * np.max(curves.populations)

    def test_range_validation(self, fig2_params):
        with pytest.raises(ConfigError):
            run_populations(SweepSpec(fig2_params, "T_M", 2.0, 1.0, 5))

    def test_spec_on_another_axis_is_rejected(self, fig2_params):
        with pytest.raises(ConfigError, match="^the populations command sweeps T_M only$"):
            run_populations(SweepSpec(fig2_params, "T_L", 1.0, 2.0, 3))


SWEEP_PRESETS = [name for name, text in PRESETS.items()
                 if "axis" in parse_config(text) and name != "fig6"]


def reference_points(spec):
    """Each grid point's params and pin, built one by one with dataclasses.replace."""
    params, pins = [], []
    for value in spec.values():
        base, pin = spec.base, spec.rho44_init
        if spec.axis == "gamma_bias":
            point = dataclasses.replace(base, gamma_L=value * base.gamma_M,
                                        gamma_R=value * base.gamma_M)
        elif spec.axis == "rho44_init":
            point, pin = base, value
        else:
            point = dataclasses.replace(base, **{spec.axis: value})
        params.append(point)
        pins.append(pin if point.fully_common else None)
    return params, pins


def result_points(result):
    """Each grid point's params and pin, read from a sweep result's rows and pins."""
    params = [SystemParams(*row) for row in result.x.tolist()]
    pins = [rho44 if pinned else None
            for pinned, rho44 in zip(result.pinned.tolist(), result.rho44.tolist())]
    return params, pins


def reference_rows(spec):
    """The sweep CSV rows of spec, solved from reference_points, formatted cell by cell."""
    params, pins = reference_points(spec)
    want_alpha = "alpha" in spec.outputs
    sol = solve(params, pins, spec.control if want_alpha else None)
    rows = []
    for n, (value, point, error) in enumerate(zip(spec.values(), params, sol.errors)):
        solved = not np.isnan(sol.populations[n, 0])
        cells = [f"{value:.16e}"]
        with_q = solved and "currents" in spec.outputs
        cells += [f"{q:.16e}" for q in sol.currents[n]] if with_q else [""] * 3
        with_alpha = want_alpha and error is None
        cells += [f"{a:.16e}" for a in sol.alpha[n]] if with_alpha else [""] * 2
        cells += [f"{p:.16e}" for p in sol.populations[n]] if solved else [""] * 8
        cells.append("PASS" if validate_secular(point).passed else "WARN")
        cells.append("" if error is None else f"{type(error).__name__}: {error}".replace(",", ";"))
        rows.append(",".join(cells))
    return rows


class TestGridBuilder:
    """The column-wise grid and row formats against the per-point route."""

    def test_presets_cover_every_kind_of_axis(self):
        axes = {parse_config(PRESETS[name])["axis"] for name in SWEEP_PRESETS}
        assert {"T_M", "T_L", "T_R", "lambda1", "gamma_bias", "rho44_init"} <= axes

    @pytest.mark.parametrize("preset", SWEEP_PRESETS)
    def test_preset_rows_equal_the_per_point_route(self, preset):
        spec = sweep_from_config(load_config(preset))
        result = run_sweep(spec)
        assert sweep_rows(result) == reference_rows(spec)
        assert result_points(result) == reference_points(spec)

    @pytest.mark.parametrize("base, changes, axis, lo, hi, rho44, fails, flags", [
        # lit points, then a dark-pinned one
        ("dark_params", {}, "lambda3", 0.5, 1.0, 0.4, False, {"PASS"}),
        # dark points without a pin: error rows
        ("dark_params", {}, "T_M", 0.5, 1.5, None, True, {"PASS"}),
        # alpha undefined at the coldest point
        ("fig2_params", {}, "T_M", 0.001, 3.001, None, True, {"PASS"}),
        # 2g/max(gamma) from 0 (at g = 0) across the threshold 50
        ("fig2_params", {}, "g", 0.0, 0.2, None, False, {"WARN", "PASS"}),
        # 2g/max(gamma) = 100 / bias falls through 50, and meets it at bias 2
        ("fig2_params", {}, "gamma_bias", 1.0, 3.5, None, False, {"PASS", "WARN"}),
        # min(omega_nu) = omega_M = g
        ("fig2_params", {"omega_M": 0.1}, "T_M", 0.5, 1.5, None, False, {"WARN"}),
    ])
    def test_mixed_and_failing_grids_equal_the_per_point_route(
            self, request, base, changes, axis, lo, hi, rho44, fails, flags):
        spec = SweepSpec(base=request.getfixturevalue(base).replace(**changes), axis=axis,
                         lo=lo, hi=hi, points=6, rho44_init=rho44)
        result = run_sweep(spec)
        rows = sweep_rows(result)
        assert rows == reference_rows(spec)
        assert {row.split(",")[-2] for row in rows} == flags
        assert result_points(result)[0] == reference_points(spec)[0]
        assert any(error is not None for error in result.solution.errors) == fails

    def test_lambda_scan_equals_the_per_point_route(self, fig2_params):
        base = fig2_params.replace(lambda3=1.0)
        free, grid = ("lambda1", "lambda2"), np.linspace(0.0, 1.0, 5)
        scan = optimize_lambda(base, free=free, resolution=5, rho44_init=0.5)
        points = [dataclasses.replace(base, lambda1=l1, lambda2=l2)
                  for l1, l2 in itertools.product(grid, grid)]
        sol = solve(points, [0.5 if p.fully_common else None for p in points], "M")
        np.testing.assert_array_equal(scan.alpha_L, sol.alpha[:, 0].reshape(5, 5))
        assert scan.n_failed == sum(error is not None for error in sol.errors)

    def test_population_curves_equal_the_per_point_route(self, dark_params):
        curves = run_populations(SweepSpec(dark_params, "T_M", 0.5, 2.0, 4, rho44_init=0.2),
                                 compare_lambda1=0.3)
        values = np.linspace(0.5, 2.0, 4)
        points = [dataclasses.replace(dark_params, lambda1=l1, T_M=v)
                  for l1 in (1.0, 0.3) for v in values]
        sol = solve(points, [0.2 if p.fully_common else None for p in points])
        np.testing.assert_array_equal(curves.populations, sol.populations[:4])
        np.testing.assert_array_equal(curves.populations_compare, sol.populations[4:])

    def test_out_of_domain_grid_names_its_first_bad_value(self, fig2_params):
        spec = SweepSpec(base=fig2_params, axis="lambda1", lo=0.5, hi=1.5, points=11)
        with pytest.raises(ParameterError, match=r"^lambda1 = 1\.1 outside \[0, 1\]$"):
            run_sweep(spec)
        with pytest.raises(ParameterError, match=r"^lambda1 = 1\.5 outside \[0, 1\]$"):
            run_populations(SweepSpec(fig2_params, "T_M", 0.5, 1.5, 3), compare_lambda1=1.5)


def cell_rows(numbers):
    """The rows of a 2-D array formatted cell by cell with CELL_FORMAT."""
    return [",".join(CELL_FORMAT % v for v in row)
            for row in np.asarray(numbers, dtype=float).tolist()]


def special_floats():
    """Every power of ten and its two neighbours, every power of two, the
    subnormal and normal extremes, signed zeros, NaN, the infinities, and
    the multiples k 2^-25, among them 17-digit ties."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         np.nan, np.inf],
        np.arange(1, 20001) * 2.0 ** -25,
    ])
    return np.concatenate([values, -values])


class TestFormatRows:
    """The vectorised writer against CELL_FORMAT cell by cell.

    pytest turns every RuntimeWarning into an error, so these runs also show
    that zero, NaN and the infinities reach no log10 and no cast."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(
               lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                                      min_size=1, max_size=6)))
    def test_any_floats(self, rows):
        assert format_rows(np.array(rows)) == cell_rows(rows)

    @pytest.mark.parametrize("width", [1, 7])
    def test_special_values(self, width):
        values = special_floats()
        values = values[:values.size // width * width].reshape(-1, width)
        assert format_rows(values) == cell_rows(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(22)
        numbers = rng.integers(0, 2 ** 64, (100_000, 10), np.uint64, endpoint=False)
        assert format_rows(numbers.view(np.float64)) == cell_rows(numbers.view(np.float64))
        # about a fifth of those lie in the fast path's range, 1e-98 to 1e16;
        # random 53-bit significands scaled into it
        numbers = rng.integers(2 ** 52, 2 ** 53, (20_000, 10)) * np.ldexp(
            rng.choice([-1.0, 1.0], (20_000, 10)), rng.integers(-377, 1, (20_000, 10)))
        assert format_rows(numbers) == cell_rows(numbers)

    def test_no_rows(self):
        assert format_rows(np.empty((0, 3))) == []

    def test_importing_the_package_leaves_the_writer_unloaded(self):
        # qtransistor.cells is compiled at the first table written
        src = os.path.dirname(os.path.dirname(qtransistor.__file__))
        code = "import sys, qtransistor.cli; print('qtransistor.cells' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_population_rows_equal_the_cell_by_cell_route(self):
        cfg = load_config("fig6")
        curves = run_populations(sweep_from_config(cfg),
                                 compare_lambda1=float(cfg["compare_lambda1"]))
        rows = [",".join(CELL_FORMAT % v for v in (value, *pops, *(pops - cmp)))
                for value, pops, cmp in zip(curves.axis_values.tolist(), curves.populations,
                                            curves.populations_compare)]
        assert population_rows(curves) == rows
