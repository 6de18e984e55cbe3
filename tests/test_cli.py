import os
import stat
from dataclasses import asdict

import numpy as np
import pytest

from qtransistor.cli import main
from qtransistor.experiments import (
    CELL_FORMAT,
    CSV_HEADER,
    drive_from_config,
    load_config,
    params_from_config,
    run_modulation,
)
from qtransistor.presets import PRESETS

from test_dynamics import without_outflow


def test_validate_subcommand(capsys):
    assert main(["validate", "--config", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "status = PASS" in out
    assert "ratio_2g_max_gamma = 1.0000000000000000e+02" in out


def test_sweep_to_file_and_overrides(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", "fig2", "--range", "0.5:1.5",
               "--points", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.5
    assert float(lines[-1].split(",")[0]) == 1.5


def test_sweep_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--config", "fig9a", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rerun_over_a_longer_file_leaves_no_old_bytes(tmp_path):
    # an existing output is overwritten in place, then cut to length
    out, fresh = tmp_path / "re.csv", tmp_path / "fresh.csv"
    for points, path in (("5", out), ("2", out), ("2", fresh)):
        assert main(["sweep", "--config", "fig9a", "--points", points, "--out", str(path)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_trajectory_rerun_leaves_no_old_bytes(tmp_path):
    out, fresh = tmp_path / "traj.csv", tmp_path / "fresh.csv"
    assert main(["modulate", "--config", "fig8", "--trajectory-out", str(fresh)]) == 0
    out.write_bytes(fresh.read_bytes() + b"1.0,1.0\n" * 50)  # an earlier, longer file
    assert main(["modulate", "--config", "fig8", "--trajectory-out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_out_to_a_device(capsys):
    # a character device cannot be cut to length, and need not be
    assert main(["sweep", "--config", "fig9a", "--points", "2", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_names_its_file(capsys):
    # the error comes from write or close, not from open, and must still say which file
    assert main(["sweep", "--config", "fig9a", "--points", "2", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device: '/dev/full'\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_trajectory_write_names_its_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["modulate", "--config", "fig8", "--out", str(report),
                 "--trajectory-out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device: '/dev/full'\n"


def test_new_file_mode_follows_the_umask(tmp_path):
    out = tmp_path / "new.csv"
    old = os.umask(0o027)
    try:
        assert main(["sweep", "--config", "fig9a", "--points", "2", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


def test_out_naming_a_directory_exit_code(tmp_path, capsys):
    assert main(["sweep", "--config", "fig9a", "--points", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_stdout(capsys):
    assert main(["sweep", "--config", "fig9a", "--points", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_bad_config_exit_code(capsys):
    assert main(["sweep", "--config", "does-not-exist"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {str(cfg)!r} is not UTF-8")


def test_config_with_byte_order_mark(tmp_path, capsys):
    # some editors start a UTF-8 file with the byte-order mark EF BB BF; here
    # it comes right before the first key
    text = "".join(line for line in PRESETS["fig9a"].splitlines(keepends=True)
                   if not line.startswith("#"))
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["sweep", "--config", str(cfg), "--points", "3"]) == 0
    lines = capsys.readouterr().out
    assert main(["sweep", "--config", "fig9a", "--points", "3"]) == 0
    assert lines == capsys.readouterr().out
    assert len(lines.splitlines()) == 4


def test_invalid_range_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega_L = 30\nomega_M = 1\ng = 0.1\nT_L = 5\nT_M = 1\n"
                   "T_R = 0.5\ngamma = 0.002\naxis = T_M\nlo = 2\nhi = 1\npoints = 5\n")
    assert main(["sweep", "--config", str(cfg)]) == 2


def test_all_points_failed_exit_code(tmp_path, capsys):
    # dark-state sweep without rho44_init fails on every grid point
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("omega_L = 30\nomega_M = 1\ng = 0.3\nT_L = 5\nT_M = 1\n"
                   "T_R = 0.5\ngamma = 0.002\nlambda1 = 1\nlambda2 = 1\n"
                   "lambda3 = 1\naxis = T_M\nlo = 0.5\nhi = 1.5\npoints = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 3


def test_rho44_sweep_needs_fully_common_coupling(capsys):
    # without a dark state there is no population to pin: the axis would change nothing
    assert main(["sweep", "--config", "fig2", "--axis", "rho44_init", "--range", "0:0.5",
                 "--points", "3"]) == 2
    assert "rho44_init sweep needs fully common coupling" in capsys.readouterr().err


def test_modulate_subcommand(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["modulate", "--config", "fig8", "--trajectory-out", str(traj)]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["rho44_before"]) == 0.99
    assert abs(float(values["rho44_after"]) - 0.99 * np.cos(0.7 * np.pi) ** 2) < 1e-6
    assert float(values["scale_factor"]) > 50
    rows = traj.read_text().splitlines()
    assert rows[0] == "t,rho44"
    assert len(rows) == 202


def test_trajectory_rows_equal_the_cell_by_cell_route(tmp_path):
    traj = tmp_path / "traj.csv"
    assert main(["modulate", "--config", "fig8", "--out", str(tmp_path / "report.txt"),
                 "--trajectory-out", str(traj)]) == 0
    cfg = load_config("fig8")
    report = run_modulation(params_from_config(cfg), drive_from_config(cfg),
                            float(cfg["rho44_init"]))
    rows = [f"{CELL_FORMAT % t},{CELL_FORMAT % r}"
            for t, r in zip(report.times.tolist(), report.rho44_trajectory.tolist())]
    assert traj.read_text() == "\n".join(["t,rho44", *rows]) + "\n"


def test_populations_subcommand(tmp_path):
    out = tmp_path / "pops.csv"
    assert main(["populations", "--config", "fig6", "--points", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("axis_value,rho_11")
    assert len(lines) == 6
    row = [float(x) for x in lines[1].split(",")]
    assert abs(sum(row[1:9]) - 1.0) < 1e-10


def test_channels_dump_subcommand(capsys):
    assert main(["channels-dump", "--config", "fig2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reservoir,k,frequency,i,j,amplitude"
    assert len(lines) == 25  # 12 channels x 2 amplitudes + header


def test_validate_warn_path(tmp_path, capsys):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("omega_L = 30\nomega_M = 1\ng = 0.002\nT_L = 5\nT_M = 1\n"
                   "T_R = 0.5\ngamma = 0.002\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "status = WARN" in out
    assert "warning = " in out


def test_modulate_requires_rho44(tmp_path, capsys):
    cfg = tmp_path / "mod.cfg"
    cfg.write_text("omega_L = 30\nomega_M = 1\ng = 0.7\nT_L = 5\nT_M = 3\n"
                   "T_R = 0.5\ngamma = 0.004\nlambda1 = 1\nlambda2 = 1\n"
                   "lambda3 = 1\ndrive_Omega = 0.3\ndrive_duration = 1\n")
    assert main(["modulate", "--config", str(cfg)]) == 2
    assert "rho44_init" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lo", "hi", "points"])
def test_populations_config_needs_its_grid(key, tmp_path, capsys):
    # populations reads its T_M grid as sweep does: no key has a default
    cfg = tmp_path / "pop.cfg"
    cfg.write_text("".join(line for line in PRESETS["fig6"].splitlines(keepends=True)
                           if not line.startswith(f"{key} ")))
    assert main(["populations", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: missing required key {key!r}\n"


@pytest.mark.parametrize("point, message", [
    (lambda p: p.replace(lambda1=1.0, lambda2=1.0, lambda3=1.0),
     "fully common coupling leaves the dark-state population free; supply rho44_init"),
    (without_outflow, "state 3 has no outflow to the states below it"),
], ids=["dark", "without_outflow"])
def test_populations_on_a_point_the_kernel_rejects_exits_2(point, message, fig2_params,
                                                           tmp_path, capsys):
    cfg = tmp_path / "pop.cfg"
    cfg.write_text("".join(f"{name} = {value!r}\n"
                           for name, value in asdict(point(fig2_params)).items())
                   + "axis = T_M\nlo = 0.5\nhi = 1.5\npoints = 3\n")
    assert main(["populations", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_directory_named_like_a_preset_leaves_the_preset(tmp_path, monkeypatch, capsysbinary):
    assert main(["modulate", "--config", "fig8"]) == 0
    preset = capsysbinary.readouterr().out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig8").mkdir()
    assert main(["modulate", "--config", "fig8"]) == 0
    assert capsysbinary.readouterr().out == preset


def test_a_directory_is_not_a_config_file(tmp_path, capsys):
    (tmp_path / "configs").mkdir()
    assert main(["sweep", "--config", str(tmp_path / "configs")]) == 2
    assert "is neither a config file nor a preset" in capsys.readouterr().err


def test_populations_rejects_other_axis(tmp_path):
    cfg = tmp_path / "pop.cfg"
    cfg.write_text("omega_L = 30\nomega_M = 1\ng = 0.7\nT_L = 5\nT_M = 1\n"
                   "T_R = 0.5\ngamma = 0.002\naxis = T_L\nlo = 1\nhi = 2\n"
                   "points = 4\n")
    assert main(["populations", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "fig9a", "--points", "3"],
    ["populations", "--config", "fig6", "--points", "4"],
    ["modulate", "--config", "fig8"],
    ["channels-dump", "--config", "fig2"],
])
def test_stdout_and_out_file_get_the_same_bytes(argv, tmp_path, capsysbinary):
    out = tmp_path / "out.txt"
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed


_BASE_CONFIG = ("omega_L = 30\nomega_M = 1\ng = 0.1\nT_L = 5\nT_M = 1\n"
                "T_R = 0.5\ngamma = 0.002\n")


def test_non_finite_parameter_exit_code(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(_BASE_CONFIG.replace("T_L = 5", "T_L = inf")
                   + "axis = T_M\nlo = 0.5\nhi = 1.5\npoints = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "T_L" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "populations"])
def test_fractional_points_exit_code(command, tmp_path, capsys):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text(_BASE_CONFIG + "axis = T_M\nlo = 0.5\nhi = 1.5\npoints = 2.7\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "points" in capsys.readouterr().err


def test_infinite_sweep_range_exit_code(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(_BASE_CONFIG + "axis = T_M\nlo = 0.5\nhi = inf\npoints = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep range lo = 0.5, hi = inf must be finite\n"


@pytest.mark.parametrize("key, value, named", [
    ("drive_Omega", "inf", "Omega = inf"),
    ("drive_Omega", "nan", "Omega = nan"),
    ("drive_duration", "nan", "delta_t = nan"),
    ("drive_duration", "inf", "delta_t = inf"),
])
def test_non_finite_drive_exit_code(key, value, named, tmp_path, capsys):
    lines = [f"{key} = {value}" if line.startswith(key) else line
             for line in PRESETS["fig8"].splitlines()]
    cfg = tmp_path / "drive.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["modulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert named in err and "rho44_init" not in err
