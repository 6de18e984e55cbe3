"""Reproducible sweep runs: configs, parameter grids, CSV emission.

A run is defined by a flat key = value config (one assignment per line,
'#' comments): the SystemParams fields (or a common 'gamma') plus a sweep
axis.  A sweep stays in columns from grid to CSV: `_grid` repeats the base
point's kernel input row and writes the swept columns (the grid of every
SweepSpec, of the population curves and of observables.optimize_lambda),
one vectorised check (model.check_rows) validates all rows, and the
batched kernel dynamics._solve takes them as they are, all of a command's
operating points in one call (run_modulation in two, as its second state
depends on the first).  No SystemParams is built per grid point:
RunRecord.params is made from the record's row when read.  Each CSV row
is one %-format of its numbers, CELL_FORMAT per cell, and write_lines
writes all text, to a file or stdout.  Every output row carries the
resolved inputs needed to reproduce it, numbers are written with 17
significant digits and no timestamps enter the data, so identical configs
yield bit-identical files.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .dynamics import (
    DriveSpec,
    Solution,
    _dark,
    _inputs,
    _raise_first,
    _solve,
    _solve_point,
    apply_drive,
)
from .model import (
    FIELD_NAMES,
    ParameterError,
    SecularReport,
    SystemParams,
    check_rows,
    validate_secular,
)
from .observables import AmplificationResult, HeatCurrentTriple

SWEEP_AXES = (
    "T_L", "T_M", "T_R",
    "lambda1", "lambda2", "lambda3",
    "g", "gamma_bias", "rho44_init",
)

DEFAULT_OUTPUTS = ("currents", "alpha", "populations")

CSV_HEADER = (
    "axis_value,Q_L,Q_M,Q_R,alpha_L,alpha_R,"
    + ",".join(f"rho_{k}{k}" for k in range(1, 9))
    + ",secular_flag,error"
)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class DarkStateError(ParameterError):
    """Operation requires the fully common coupling lambda = (1, 1, 1)."""


# one number in every written file: 17 significant digits, round-trip exact
CELL_FORMAT = "%.16e"


def fmt(value: float) -> str:
    """One number in CELL_FORMAT."""
    return CELL_FORMAT % value


def write_lines(lines: list[str], path: str | None) -> None:
    """Write the lines, each ending in a newline, to path (stdout when None)."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep around a base parameter set."""

    base: SystemParams
    axis: str
    lo: float
    hi: float
    points: int
    control: str = "M"
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    rho44_init: float | None = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError(f"sweep range lo = {self.lo}, hi = {self.hi} must be finite")
        if not self.lo < self.hi:
            raise ConfigError("sweep range must satisfy lo < hi")
        if self.points < 2:
            raise ConfigError("a sweep needs at least 2 points")
        if self.control not in ("L", "M", "R"):
            raise ConfigError("control terminal must be 'L', 'M' or 'R'")
        unknown = set(self.outputs) - set(DEFAULT_OUTPUTS)
        if unknown:
            raise ConfigError(f"unknown outputs {sorted(unknown)}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def resolve(self, value: float) -> tuple[SystemParams, float | None]:
        """Parameters and dark-state pin at one grid point."""
        x, pinned, rho44 = _grid(self.base, {self.axis: np.array([value], dtype=float)},
                                 self.rho44_init)
        return SystemParams(*x[0].tolist()), float(rho44[0]) if pinned[0] else None


_COLUMN = {name: k for k, name in enumerate(FIELD_NAMES)}
_GAMMA_BIAS_COLUMNS = [_COLUMN["gamma_L"], _COLUMN["gamma_R"]]


def _grid(
    base: SystemParams,
    columns: Mapping[str, np.ndarray],
    rho44_init: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel input rows of a grid around base, and their dark-state pins.

    columns maps each swept axis (one of SWEEP_AXES) to its N values: row n
    is base's row with every axis at its n-th value.  A gamma_bias value b
    writes gamma_L = gamma_R = b * gamma_M, and rho44_init values are the
    pins instead of the rho44_init argument.  A point is pinned only where
    its coupling is fully common.  Returns the (N, 12) rows and the pins as
    dynamics._solve takes them; raises what SystemParams raises for the
    first row outside its domain.
    """
    n = len(next(iter(columns.values())))
    x = np.repeat(_inputs([base]), n, axis=0)
    rho44 = np.full(n, 0.0 if rho44_init is None else rho44_init)
    has_pin = rho44_init is not None
    for axis, values in columns.items():
        if axis == "gamma_bias":
            x[:, _GAMMA_BIAS_COLUMNS] = (values * base.gamma_M)[:, None]
        elif axis == "rho44_init":
            rho44, has_pin = values, True
        else:
            x[:, _COLUMN[axis]] = values
    check_rows(x)
    pinned = _dark(x) & has_pin
    return x, pinned, np.where(pinned, rho44, 0.0)


@dataclass(frozen=True)
class RunRecord:
    """One fully resolved sweep point with everything needed to re-run it.

    row is the point's kernel input (the SystemParams fields in order), and
    params the SystemParams built from it when first read.  wall_time is
    the point's share of its sweep: the time of the one batched solve (and
    the secular checks) over the number of points.
    """

    axis_value: float
    row: np.ndarray
    rho44_init: float | None
    populations: np.ndarray | None
    currents: HeatCurrentTriple | None
    amplification: AmplificationResult | None
    secular: SecularReport | None
    wall_time: float
    error: str | None = None

    @cached_property
    def params(self) -> SystemParams:
        return SystemParams(*self.row.tolist())


def _currents_of(sol: Solution, n: int) -> HeatCurrentTriple:
    return HeatCurrentTriple(*map(float, sol.currents[n]),
                             steady_residual=float(sol.residual[n]))


# the columns validate_secular reads: omega_L, omega_M, g and the gammas
_SECULAR_COLUMNS = [_COLUMN[name] for name in
                    ("omega_L", "omega_M", "g", "gamma_L", "gamma_M", "gamma_R")]


def _secular_reports(x: np.ndarray) -> list[SecularReport]:
    """validate_secular of each input row, evaluated once per distinct input it reads."""
    reports: dict[tuple[float, ...], SecularReport] = {}
    out = []
    for n, key in enumerate(map(tuple, x[:, _SECULAR_COLUMNS].tolist())):
        if key not in reports:
            reports[key] = validate_secular(SystemParams(*x[n].tolist()))
        out.append(reports[key])
    return out


def run_sweep(spec: SweepSpec) -> list[RunRecord]:
    """Evaluate every grid point in one batched solve; output follows the grid.

    A point whose solve fails keeps its populations and currents when only
    alpha failed, and records its domain error; the other points are
    unaffected.
    """
    t0 = time.perf_counter()
    values = spec.values()
    x, pinned, rho44 = _grid(spec.base, {spec.axis: values}, spec.rho44_init)
    want_alpha = "alpha" in spec.outputs
    want_currents = "currents" in spec.outputs
    sol = _solve(x, pinned, rho44, spec.control if want_alpha else None)
    secular = _secular_reports(x)
    share = (time.perf_counter() - t0) / len(values)

    solved = ~np.isnan(sol.populations[:, 0])
    currents, residual, alpha = sol.currents.tolist(), sol.residual.tolist(), sol.alpha.tolist()
    records = []
    for n, (value, ok, pin, error) in enumerate(
            zip(values.tolist(), solved.tolist(), pinned.tolist(), sol.errors)):
        records.append(RunRecord(
            axis_value=value,
            row=x[n],
            rho44_init=float(rho44[n]) if pin else None,
            populations=sol.populations[n] if ok else None,
            currents=(HeatCurrentTriple(*currents[n], steady_residual=residual[n])
                      if ok and want_currents else None),
            amplification=(AmplificationResult(*alpha[n], spec.control)
                           if want_alpha and error is None else None),
            secular=secular[n],
            wall_time=share,
            error=None if error is None else f"{type(error).__name__}: {error}",
        ))
    return records


def _sweep_format(currents: bool, alpha: bool, populations: bool) -> str:
    """Row format of a sweep record: the numbers it has, blanks for the rest, flag, error."""
    groups = ((True, 1), (currents, 3), (alpha, 2), (populations, 8))
    return ",".join([CELL_FORMAT if on else "" for on, size in groups for _ in range(size)]
                    + ["%s", "%s"])


# keyed on which of currents, alpha and populations a record has
_SWEEP_FORMATS = {has: _sweep_format(*has) for has in itertools.product((False, True), repeat=3)}


def sweep_rows(records: list[RunRecord]) -> list[str]:
    rows = []
    for rec in records:
        q, a, p = rec.currents, rec.amplification, rec.populations
        numbers = [rec.axis_value]
        if q is not None:
            numbers += (q.Q_L, q.Q_M, q.Q_R)
        if a is not None:
            numbers += (a.alpha_L, a.alpha_R)
        if p is not None:
            numbers += p.tolist()
        flag = "PASS" if rec.secular is not None and rec.secular.passed else "WARN"
        error = "" if rec.error is None else rec.error.replace(",", ";")
        rows.append(_SWEEP_FORMATS[q is not None, a is not None, p is not None]
                    % (*numbers, flag, error))
    return rows


def write_sweep_csv(records: list[RunRecord], path: str | None) -> None:
    write_lines([CSV_HEADER, *sweep_rows(records)], path)


@dataclass(frozen=True)
class ModulationReport:
    """Before/after picture of the dark-state heat modulation protocol."""

    rho44_before: float
    currents_before: HeatCurrentTriple
    times: np.ndarray            # one Rabi period of the driven pair
    rho44_trajectory: np.ndarray
    rho44_after: float
    currents_after: HeatCurrentTriple
    scale_factor: float          # measured Q_after / Q_before (common to all three)
    predicted_scale: float       # (1 - rho44_after) / (1 - rho44_before)


def run_modulation(
    params: SystemParams,
    drive: DriveSpec,
    rho44_initial: float,
    trajectory_points: int = 201,
) -> ModulationReport:
    """Drive the dark-state pair and report the re-relaxed heat currents.

    Requires the fully common coupling (the protocol manipulates the
    conserved dark population).  The pulse is unitary and instantaneous on
    dissipative timescales; after it the system relaxes back to the steady
    state of the new dark population, so the final currents follow from a
    steady-state solve rather than time integration.
    """
    if not params.fully_common:
        raise DarkStateError("modulation requires lambda1 = lambda2 = lambda3 = 1")
    before = _solve_point(params, rho44_initial)
    p_before = before.populations[0]
    q_before = _currents_of(before, 0)

    period = math.pi / drive.Omega
    times = np.linspace(0.0, period, trajectory_points)
    a, b = drive.pair
    phases = drive.Omega * times
    rho44_traj = p_before[a] * np.cos(phases) ** 2 + p_before[b] * np.sin(phases) ** 2

    p_pulsed = apply_drive(p_before, drive)
    rho44_after = float(p_pulsed[a])
    q_after = _currents_of(_solve_point(params, rho44_after), 0)

    before = q_before.as_array()
    after = q_after.as_array()
    ref = int(np.argmax(np.abs(before)))
    scale = float(after[ref] / before[ref]) if before[ref] != 0 else math.nan
    predicted = (1.0 - rho44_after) / (1.0 - rho44_initial) if rho44_initial < 1 else math.nan
    return ModulationReport(
        rho44_before=float(rho44_initial),
        currents_before=q_before,
        times=times,
        rho44_trajectory=rho44_traj,
        rho44_after=rho44_after,
        currents_after=q_after,
        scale_factor=scale,
        predicted_scale=predicted,
    )


@dataclass(frozen=True)
class PopulationCurves:
    """Steady populations along a T_M sweep, plus a lambda1 comparison."""

    axis_values: np.ndarray
    populations: np.ndarray        # shape (points, 8), base lambda1
    populations_compare: np.ndarray  # same at the comparison lambda1
    compare_lambda1: float

    @property
    def difference(self) -> np.ndarray:
        return self.populations - self.populations_compare


def run_populations(
    params: SystemParams,
    lo: float,
    hi: float,
    points: int,
    compare_lambda1: float = 0.0,
    rho44_init: float | None = None,
) -> PopulationCurves:
    """Steady populations versus T_M for the base and a comparison lambda1."""
    values = SweepSpec(params, "T_M", lo, hi, points, rho44_init=rho44_init).values()
    x, pinned, rho44 = _grid(params, {
        "T_M": np.tile(values, 2),
        "lambda1": np.repeat([params.lambda1, compare_lambda1], points),
    }, rho44_init)
    sol = _solve(x, pinned, rho44)
    _raise_first(sol.errors)
    pops, pops_cmp = sol.populations[:points], sol.populations[points:]
    return PopulationCurves(
        axis_values=values,
        populations=pops,
        populations_compare=pops_cmp,
        compare_lambda1=compare_lambda1,
    )


POPULATION_CSV_HEADER = (
    "axis_value,"
    + ",".join(f"rho_{k}{k}" for k in range(1, 9))
    + ","
    + ",".join(f"drho_{k}{k}" for k in range(1, 9))
)


_POPULATION_ROW = ",".join([CELL_FORMAT] * 17)


def population_rows(curves: PopulationCurves) -> list[str]:
    table = np.column_stack([curves.axis_values, curves.populations, curves.difference])
    return [_POPULATION_ROW % tuple(row) for row in table.tolist()]


def write_population_csv(curves: PopulationCurves, path: str | None) -> None:
    write_lines([POPULATION_CSV_HEADER, *population_rows(curves)], path)


# ---------------------------------------------------------------------------
# flat key = value configs
# ---------------------------------------------------------------------------

_PARAM_KEYS = {field.name for field in fields(SystemParams)} | {"gamma"}
_RUN_KEYS = {
    "axis", "lo", "hi", "points", "control", "outputs", "rho44_init",
    "drive_Omega", "drive_duration", "compare_lambda1",
}


def parse_config(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARAM_KEYS | _RUN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {cfg[key]!r}") from None


def _get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    value = _get_float(cfg, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"key {key!r} is not an integer: {cfg[key]!r}")
    return int(value)


def params_from_config(cfg: dict[str, str]) -> SystemParams:
    """SystemParams from the config: each gamma_* falls back to 'gamma', each
    field with a default (the lambdas) to that default; the rest are required."""
    gamma = _get_float(cfg, "gamma") if "gamma" in cfg else None
    values = {}
    for field in fields(SystemParams):
        name = field.name
        if name.startswith("gamma_") and name not in cfg:
            if gamma is None:
                raise ConfigError(f"missing {name!r} (or a common 'gamma')")
            values[name] = gamma
        else:
            default = None if field.default is MISSING else field.default
            values[name] = _get_float(cfg, name, default)
    try:
        return SystemParams(**values)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def sweep_from_config(cfg: dict[str, str]) -> SweepSpec:
    base = params_from_config(cfg)
    outputs = tuple(
        s.strip() for s in cfg.get("outputs", ",".join(DEFAULT_OUTPUTS)).split(",")
        if s.strip()
    )
    rho44 = _get_float(cfg, "rho44_init") if "rho44_init" in cfg else None
    return SweepSpec(
        base=base,
        axis=cfg.get("axis", ""),
        lo=_get_float(cfg, "lo"),
        hi=_get_float(cfg, "hi"),
        points=_get_int(cfg, "points"),
        control=cfg.get("control", "M"),
        outputs=outputs,
        rho44_init=rho44,
    )


def drive_from_config(cfg: dict[str, str]) -> DriveSpec:
    try:
        return DriveSpec(
            Omega=_get_float(cfg, "drive_Omega"),
            delta_t=_get_float(cfg, "drive_duration"),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(name_or_path: str) -> dict[str, str]:
    """Read a config file, or fall back to a shipped preset name."""
    from .presets import PRESETS

    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            return parse_config(fh.read())
    if name_or_path in PRESETS:
        return parse_config(PRESETS[name_or_path])
    raise ConfigError(
        f"{name_or_path!r} is neither a config file nor a preset "
        f"(known presets: {', '.join(sorted(PRESETS))})"
    )
