"""Reproducible sweep runs: configs, parameter grids, CSV emission.

A run is defined by a flat key = value config (one assignment per line,
'#' comments): the SystemParams fields (or a common 'gamma') plus a sweep
axis.  SweepSpec (sweep_from_config) is the one description of a grid; the
population curves are a T_M SweepSpec solved at two lambda1 values.  A
sweep stays in columns from grid to CSV: `_grid` repeats the base point's
kernel input row and writes the swept columns (the grid of every
SweepSpec and of optimize_lambda's scans), one vectorised check
(model.check_rows) validates all rows, and the batched kernel
dynamics._solve takes them as they are, all of a sweep's operating
points in one call (run_modulation's two states, the second depending on
the first, are float queries).  No object is built per grid point: run_sweep
returns the sweep as columns (SweepResult: grid values, input rows, pins,
the kernel's Solution and the secular-pass column of
model.secular_checks), and sweep_rows formats the CSV straight from
them.  Every table of numbers (sweep, population and trajectory rows) is
formatted as one array by format_rows (qtransistor.cells, imported at
the first table written), byte for byte CELL_FORMAT per number, with
blanks for the numbers a sweep point lacks; fmt formats the single
numbers of a report.  write_lines writes all text, to stdout or in
place over a file.  Every output row carries the resolved inputs needed to
reproduce it, numbers are written with 17 significant digits and no
timestamps enter the data, so identical configs yield bit-identical
files.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DRIVEN_PAIR,
    DegenerateControlError,
    DriveSpec,
    Solution,
    SteadyStateError,
    _dark,
    _raise_first,
    _solve,
    apply_drive,
    steady_state,
)
from .model import (
    FIELD_NAMES,
    RESERVOIRS,
    ParameterError,
    SystemParams,
    check_rows,
    input_rows,
    secular_checks,
)
from .observables import HeatCurrentTriple, heat_currents

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


def format_rows(numbers: np.ndarray) -> list[str]:
    """Row n of the 2-D numbers as its cells in CELL_FORMAT, joined by commas.

    Byte for byte ",".join(CELL_FORMAT % v for v in row), computed on all
    cells at once by qtransistor.cells, which is imported at the first
    table written rather than with this module.
    """
    from .cells import format_rows

    return format_rows(numbers)


# no O_TRUNC: see write_lines
_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_lines(lines: list[str], path: str | None) -> None:
    """Write the lines, each ending in a newline, to path (stdout when None).

    An existing file is overwritten in place and then cut to the written
    length, never truncated to zero first: when a file that held data was
    truncated to zero, ext4 (auto_da_alloc) starts writing its new blocks
    back at close, which makes rewriting a file cost several times as much
    as writing it in place.  A new file gets mode 0o666 & ~umask, as with
    open(path, "w").  Only regular files are cut; a device such as
    /dev/null or a pipe is written as it is.  Nothing is fsynced.  A write
    or close that fails raises OSError naming path (the file may then hold
    the new rows followed by old bytes).
    """
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    fd = os.open(path, _OPEN_FLAGS, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:  # write and close errors carry no file name
        raise OSError(exc.errno, exc.strerror, path) from exc


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
        if not float(self.points).is_integer():
            raise ConfigError(f"sweep points = {self.points} is not an integer")
        if self.points < 2:
            raise ConfigError("a sweep needs at least 2 points")
        object.__setattr__(self, "points", int(self.points))
        if self.control not in RESERVOIRS:
            raise ConfigError("control terminal must be 'L', 'M' or 'R'")
        if self.axis == "rho44_init" and not self.base.fully_common:
            # only a dark state has a population to pin: the axis would change nothing
            raise ConfigError("a rho44_init sweep needs fully common coupling, "
                              "lambda1 = lambda2 = lambda3 = 1")
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
    x = np.repeat(input_rows([base]), n, axis=0)
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
    pinned = _dark(x.T) & has_pin
    return x, pinned, np.where(pinned, rho44, 0.0)


@dataclass(frozen=True)
class LambdaScan:
    """Grid scan of alpha_L over a subset of the common-coupling strengths."""

    axes: tuple[str, ...]
    grids: tuple[np.ndarray, ...]  # one grid per free axis
    alpha_L: np.ndarray            # shape (len(grid),) per axis, NaN = failed
    argmax: tuple[float, ...]      # lambda values of the best grid point
    max_alpha_L: float
    monotonicity: dict[str, str]
    n_failed: int


_LAMBDA_FIELDS = ("lambda1", "lambda2", "lambda3")


def optimize_lambda(
    params_base: SystemParams,
    free: tuple[str, ...] = ("lambda1",),
    resolution: int = 11,
    control: str = "M",
    rho44_init: float | None = None,
) -> LambdaScan:
    """Exhaustive scan of alpha_L over the free lambda axes on [0, 1].

    resolution = 1 degenerates to a single evaluation at the base lambdas
    (a consistency check against amplification_factor).  Points where the
    amplification factor is undefined (degenerate control, or a non-unique
    steady state without rho44_init) are marked NaN and excluded from the
    argmax.  The per-axis monotonicity summary reports 'increasing',
    'decreasing' or 'mixed' from all finite differences along that axis.
    """
    for name in free:
        if name not in _LAMBDA_FIELDS:
            raise ParameterError(f"free axis {name!r} is not a lambda parameter")
    if not free or len(set(free)) != len(free):
        raise ParameterError("free axes must be non-empty and distinct")
    if not (float(resolution).is_integer() and resolution >= 1):
        raise ParameterError(f"resolution = {resolution} must be an integer of at least 1")
    if resolution == 1:
        grids = tuple(np.array([getattr(params_base, name)]) for name in free)
    else:
        grids = tuple(np.linspace(0.0, 1.0, int(resolution)) for _ in free)

    shape = tuple(g.size for g in grids)
    mesh = np.meshgrid(*grids, indexing="ij")
    x, pinned, rho44 = _grid(params_base, {name: m.ravel() for name, m in zip(free, mesh)},
                             rho44_init)
    sol = _solve(x, pinned, rho44, control)
    for error in sol.errors:
        if error is not None and not isinstance(error, (DegenerateControlError, SteadyStateError)):
            raise error
    alpha = sol.alpha[:, 0].reshape(shape)
    n_failed = sum(error is not None for error in sol.errors)

    if np.all(np.isnan(alpha)):
        raise DegenerateControlError("no valid grid point in the lambda scan")
    best = np.unravel_index(np.nanargmax(alpha), shape)
    argmax = tuple(float(grids[ax][i]) for ax, i in enumerate(best))

    monotonicity = {}
    for axis, name in enumerate(free):
        d = np.diff(alpha, axis=axis)
        d = d[np.isfinite(d)]
        if d.size == 0:
            monotonicity[name] = "mixed"
        elif np.all(d >= -1e-12):
            monotonicity[name] = "increasing"
        elif np.all(d <= 1e-12):
            monotonicity[name] = "decreasing"
        else:
            monotonicity[name] = "mixed"

    return LambdaScan(
        axes=tuple(free),
        grids=grids,
        alpha_L=alpha,
        argmax=argmax,
        max_alpha_L=float(np.nanmax(alpha)),
        monotonicity=monotonicity,
        n_failed=n_failed,
    )


class SweepResult(NamedTuple):
    """A sweep in columns; row n of each array belongs to the n-th grid point.

    values: (N,) axis values.  x: (N, 12) kernel input rows (the
    SystemParams fields in order).  pinned, rho44: the dark-state pins as
    _grid returns them.  solution: the one batched solve of the rows; a
    point's domain error is solution.errors[n].  secular: (N,) whether the
    point passes model.validate_secular.  outputs: the spec's outputs.
    """

    values: np.ndarray
    x: np.ndarray
    pinned: np.ndarray
    rho44: np.ndarray
    solution: Solution
    secular: np.ndarray
    outputs: tuple[str, ...]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point in one batched solve; output follows the grid.

    A point whose solve fails keeps its populations and currents when only
    alpha failed, and records its domain error; the other points are
    unaffected.
    """
    values = spec.values()
    x, pinned, rho44 = _grid(spec.base, {spec.axis: values}, spec.rho44_init)
    sol = _solve(x, pinned, rho44, spec.control if "alpha" in spec.outputs else None)
    passed = ~secular_checks(x)[2].any(axis=1)
    return SweepResult(values, x, pinned, rho44, sol, passed, spec.outputs)


def error_text(error: Exception) -> str:
    """A point's domain error as a sweep reports it."""
    return f"{type(error).__name__}: {error}"


def sweep_rows(result: SweepResult) -> list[str]:
    """The CSV rows of a sweep; a number the point lacks (NaN) is a blank cell.

    CELL_FORMAT writes every NaN as "nan", and no finite number's text holds
    those letters, so blanking them in the numbers leaves the rest intact.
    """
    sol = result.solution
    currents = sol.currents if "currents" in result.outputs else np.full_like(sol.currents, np.nan)
    numbers = np.column_stack([result.values, currents, sol.alpha, sol.populations])
    rows = []
    for cells, error, passed in zip(format_rows(numbers), sol.errors, result.secular.tolist()):
        error = "" if error is None else error_text(error).replace(",", ";")
        rows.append(f"{cells.replace('nan', '')},{'PASS' if passed else 'WARN'},{error}")
    return rows


def write_sweep_csv(result: SweepResult, path: str | None) -> None:
    write_lines([CSV_HEADER, *sweep_rows(result)], path)


@dataclass(frozen=True)
class ModulationReport:
    """Before/after picture of the dark-state heat modulation protocol."""

    rho44_before: float
    currents_before: HeatCurrentTriple
    times: np.ndarray            # one Rabi period of the driven pair in 201 samples
    rho44_trajectory: np.ndarray
    rho44_after: float
    currents_after: HeatCurrentTriple
    scale_factor: float          # measured Q_after / Q_before (common to all three)
    predicted_scale: float       # (1 - rho44_after) / (1 - rho44_before)


def run_modulation(
    params: SystemParams,
    drive: DriveSpec,
    rho44_initial: float,
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
    p_before = steady_state(params, rho44_initial)
    q_before = heat_currents(params, p_before)

    period = math.pi / drive.Omega
    times = np.linspace(0.0, period, 201)
    a, b = DRIVEN_PAIR
    phases = drive.Omega * times
    rho44_traj = p_before[a] * np.cos(phases) ** 2 + p_before[b] * np.sin(phases) ** 2

    p_pulsed = apply_drive(p_before, drive)
    rho44_after = float(p_pulsed[a])
    q_after = heat_currents(params, steady_state(params, rho44_after))

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


def run_populations(spec: SweepSpec, compare_lambda1: float = 0.0) -> PopulationCurves:
    """Steady populations along spec's T_M grid, at spec.base and at compare_lambda1.

    Both curves are solved in one batch; the first point that fails raises
    its domain error.  A spec on any axis but T_M raises ConfigError.
    """
    if spec.axis != "T_M":
        raise ConfigError("the populations command sweeps T_M only")
    values = spec.values()
    x, pinned, rho44 = _grid(spec.base, {
        "T_M": np.tile(values, 2),
        "lambda1": np.repeat([spec.base.lambda1, compare_lambda1], spec.points),
    }, spec.rho44_init)
    sol = _solve(x, pinned, rho44)
    _raise_first(sol.errors)
    pops, pops_cmp = sol.populations[:spec.points], sol.populations[spec.points:]
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


def population_rows(curves: PopulationCurves) -> list[str]:
    return format_rows(np.column_stack([curves.axis_values, curves.populations,
                                        curves.difference]))


def write_population_csv(curves: PopulationCurves, path: str | None) -> None:
    write_lines([POPULATION_CSV_HEADER, *population_rows(curves)], path)


# ---------------------------------------------------------------------------
# flat key = value configs
# ---------------------------------------------------------------------------

_PARAM_FIELDS = fields(SystemParams)
_CONFIG_KEYS = {field.name for field in _PARAM_FIELDS} | {
    "gamma", "axis", "lo", "hi", "points", "control", "outputs", "rho44_init",
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _required(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def _get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg and default is not None:
        return default
    text = _required(cfg, key)
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {text!r}") from None


def params_from_config(cfg: dict[str, str]) -> SystemParams:
    """SystemParams from the config: each gamma_* falls back to 'gamma', each
    field with a default (the lambdas) to that default; the rest are required."""
    gamma = _get_float(cfg, "gamma") if "gamma" in cfg else None
    values = {}
    for field in _PARAM_FIELDS:
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
        axis=_required(cfg, "axis"),
        lo=_get_float(cfg, "lo"),
        hi=_get_float(cfg, "hi"),
        points=_get_float(cfg, "points"),
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
    """Read a config file, or fall back to a shipped preset name.

    A path that exists and is not a directory is a config file (a FIFO or
    /dev/fd/N included); any other name, a directory too, is looked up
    among the presets.
    """
    from .presets import PRESETS

    if os.path.exists(name_or_path) and not os.path.isdir(name_or_path):
        try:
            # utf-8-sig also reads a file that starts with a byte-order mark
            with open(name_or_path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {name_or_path!r} is not UTF-8: {exc}") from None
        return parse_config(text)
    if name_or_path in PRESETS:
        return parse_config(PRESETS[name_or_path])
    raise ConfigError(
        f"{name_or_path!r} is neither a config file nor a preset "
        f"(known presets: {', '.join(sorted(PRESETS))})"
    )
