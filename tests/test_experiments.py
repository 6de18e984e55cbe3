import dataclasses
import itertools
import math

import numpy as np
import pytest

from qtransistor import (
    ConfigError,
    DarkStateError,
    DriveSpec,
    ParameterError,
    SweepSpec,
    optimize_lambda,
    run_modulation,
    run_populations,
    run_sweep,
    validate_secular,
    write_sweep_csv,
)
from qtransistor.dynamics import solve
from qtransistor.experiments import (
    CSV_HEADER,
    load_config,
    params_from_config,
    parse_config,
    sweep_from_config,
    sweep_rows,
)
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

    def test_rho44_axis_resolution(self, dark_params):
        spec = SweepSpec(base=dark_params, axis="rho44_init", lo=0.0, hi=0.9,
                         points=4, outputs=("currents",))
        params, rho44 = spec.resolve(0.3)
        assert params == dark_params
        assert rho44 == 0.3


class TestRunSweep:
    def test_record_fields_and_conservation(self, fig2_params):
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=2.5, points=5)
        records = run_sweep(spec)
        assert [r.axis_value for r in records] == pytest.approx(
            list(np.linspace(0.5, 2.5, 5)))
        for rec in records:
            assert rec.error is None
            assert rec.params.T_M == rec.axis_value
            assert abs(rec.currents.total) < 1e-10 * abs(rec.currents.Q_L)
            assert abs(rec.populations.sum() - 1.0) < 1e-12
            assert rec.amplification.alpha_L + rec.amplification.alpha_R == \
                pytest.approx(-1.0, abs=1e-6)
            assert rec.secular.passed

    def test_dark_sweep_without_rho44_records_errors(self, dark_params):
        spec = SweepSpec(base=dark_params, axis="T_M", lo=0.5, hi=1.5, points=3,
                         outputs=("currents",))
        records = run_sweep(spec)
        assert all(r.error is not None for r in records)
        assert all("rho44" in r.error for r in records)

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
        records = run_sweep(spec)
        assert records[0].error.startswith("DegenerateControlError: ")
        assert records[0].amplification is None
        assert records[0].populations is not None and records[0].currents is not None
        assert all(rec.error is None for rec in records[1:])
        assert sweep_rows(records)[1:] == sweep_rows(run_sweep(rest))

    def test_wall_time_is_the_share_of_the_batch(self, fig2_params):
        spec = SweepSpec(base=fig2_params, axis="T_M", lo=0.5, hi=1.5, points=3)
        times = {rec.wall_time for rec in run_sweep(spec)}
        assert len(times) == 1 and times.pop() > 0.0

    @pytest.mark.parametrize("preset", ["fig5b", "fig9a", "fig7a"])
    def test_emitted_rows_conserve_energy(self, preset):
        # every emitted row must satisfy the current-conservation invariant
        spec = dataclasses.replace(sweep_from_config(load_config(preset)), points=5)
        for rec in run_sweep(spec):
            assert rec.error is None
            q = rec.currents
            assert abs(q.total) < 1e-10 * max(abs(q.Q_L), abs(q.Q_M), abs(q.Q_R))

    def test_fig9a_bias_trend(self):
        # independent-reservoir case: amplification grows with the decay bias
        spec = sweep_from_config(load_config("fig9a"))
        records = run_sweep(spec)  # bias grid {1, 2, ..., 6}
        alphas = [r.amplification.alpha_L for r in records]
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
        curves = run_populations(params, lo=0.1, hi=3.0, points=12,
                                 compare_lambda1=0.0)
        assert np.max(np.abs(curves.populations.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(curves.populations[:, 6] + curves.populations[:, 7]) < 1e-3
        # common coupling only slightly shifts the populations
        assert np.max(np.abs(curves.difference)) < 0.01 * np.max(curves.populations)

    def test_range_validation(self, fig2_params):
        with pytest.raises(ConfigError):
            run_populations(fig2_params, lo=2.0, hi=1.0, points=5)


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
        records = run_sweep(spec)
        assert sweep_rows(records) == reference_rows(spec)
        params, pins = reference_points(spec)
        assert [rec.params for rec in records] == params
        assert [rec.rho44_init for rec in records] == pins

    @pytest.mark.parametrize("base, axis, lo, hi, rho44", [
        ("dark_params", "lambda3", 0.5, 1.0, 0.4),  # lit points, then a dark-pinned one
        ("dark_params", "T_M", 0.5, 1.5, None),     # dark points without a pin: error rows
        ("fig2_params", "T_M", 0.001, 3.001, None),  # alpha undefined at the coldest point
    ])
    def test_mixed_and_failing_grids_equal_the_per_point_route(
            self, request, base, axis, lo, hi, rho44):
        spec = SweepSpec(base=request.getfixturevalue(base), axis=axis, lo=lo, hi=hi,
                         points=6, rho44_init=rho44)
        records = run_sweep(spec)
        assert sweep_rows(records) == reference_rows(spec)
        assert [rec.params for rec in records] == reference_points(spec)[0]
        assert any(rec.error is not None for rec in records) == (rho44 is None)

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
        curves = run_populations(dark_params, lo=0.5, hi=2.0, points=4,
                                 compare_lambda1=0.3, rho44_init=0.2)
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
            run_populations(fig2_params, lo=0.5, hi=1.5, points=3, compare_lambda1=1.5)
