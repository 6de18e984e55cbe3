"""Reproducible sweep runs: configs, parameter grids, CSV emission.

A run is defined by a flat key = value config (one assignment per line,
'#' comments): the SystemParams fields (or a common 'gamma') plus a sweep
axis.  Every grid is a SweepSpec, the population curves' too, and every
command solves all of its operating points in one call of the batched
kernel dynamics.solve (run_modulation in two, as its second state depends
on the first).  write_lines writes all text, to a file or stdout.  Every
output row carries the resolved inputs needed to reproduce it, numbers are
written with 17 significant digits and no timestamps enter the data, so
identical configs yield bit-identical files.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dynamics import DriveSpec, Solution, _raise_first, _solve_point, apply_drive, solve
from .model import ParameterError, SecularReport, SystemParams, validate_secular
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


def fmt(value: float) -> str:
    """17-significant-digit scientific notation (round-trip exact)."""
    return f"{value:.16e}"


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
        base = self.base
        rho44 = self.rho44_init
        if self.axis == "gamma_bias":
            params = base.replace(gamma_L=value * base.gamma_M,
                                  gamma_R=value * base.gamma_M)
        elif self.axis == "rho44_init":
            params = base
            rho44 = value
        else:
            params = base.replace(**{self.axis: value})
        if not params.fully_common:
            rho44 = None
        return params, rho44


@dataclass(frozen=True)
class RunRecord:
    """One fully resolved sweep point with everything needed to re-run it.

    wall_time is the point's share of its sweep: the time of the one
    batched solve (and the secular checks) over the number of points.
    """

    axis_value: float
    params: SystemParams
    rho44_init: float | None
    populations: np.ndarray | None
    currents: HeatCurrentTriple | None
    amplification: AmplificationResult | None
    secular: SecularReport | None
    wall_time: float
    error: str | None = None


def _currents_of(sol: Solution, n: int) -> HeatCurrentTriple:
    return HeatCurrentTriple(*map(float, sol.currents[n]),
                             steady_residual=float(sol.residual[n]))


def _secular_key(params: SystemParams) -> tuple[float, ...]:
    # every input validate_secular reads
    return (params.omega_L, params.omega_M, params.g,
            params.gamma_L, params.gamma_M, params.gamma_R)


def run_sweep(spec: SweepSpec) -> list[RunRecord]:
    """Evaluate every grid point in one batched solve; output follows the grid.

    A point whose solve fails keeps its populations and currents when only
    alpha failed, and records its domain error; the other points are
    unaffected.
    """
    t0 = time.perf_counter()
    values = spec.values()
    params, pins = zip(*(spec.resolve(value) for value in values))
    want_alpha = "alpha" in spec.outputs
    sol = solve(params, pins, spec.control if want_alpha else None)
    secular: dict[tuple[float, ...], SecularReport] = {}
    for point in params:
        key = _secular_key(point)
        if key not in secular:
            secular[key] = validate_secular(point)
    share = (time.perf_counter() - t0) / len(values)

    records = []
    for n, (value, point, rho44, error) in enumerate(zip(values, params, pins, sol.errors)):
        solved = not np.isnan(sol.populations[n, 0])
        amplification = None
        if want_alpha and error is None:
            amplification = AmplificationResult(*map(float, sol.alpha[n]), spec.control)
        records.append(RunRecord(
            axis_value=float(value),
            params=point,
            rho44_init=rho44,
            populations=sol.populations[n] if solved else None,
            currents=_currents_of(sol, n) if solved and "currents" in spec.outputs else None,
            amplification=amplification,
            secular=secular[_secular_key(point)],
            wall_time=share,
            error=None if error is None else f"{type(error).__name__}: {error}",
        ))
    return records


def sweep_rows(records: list[RunRecord]) -> list[str]:
    rows = []
    for rec in records:
        cells = [fmt(rec.axis_value)]
        if rec.currents is not None:
            cells += [fmt(rec.currents.Q_L), fmt(rec.currents.Q_M), fmt(rec.currents.Q_R)]
        else:
            cells += ["", "", ""]
        if rec.amplification is not None:
            cells += [fmt(rec.amplification.alpha_L), fmt(rec.amplification.alpha_R)]
        else:
            cells += ["", ""]
        if rec.populations is not None:
            cells += [fmt(p) for p in rec.populations]
        else:
            cells += [""] * 8
        cells.append("PASS" if rec.secular is not None and rec.secular.passed else "WARN")
        cells.append("" if rec.error is None else rec.error.replace(",", ";"))
        rows.append(",".join(cells))
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
    specs = [SweepSpec(base, "T_M", lo, hi, points, rho44_init=rho44_init)
             for base in (params, params.replace(lambda1=compare_lambda1))]
    values = specs[0].values()
    curves, pins = zip(*(spec.resolve(T_M) for spec in specs for T_M in values))
    sol = solve(curves, pins)
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


def population_rows(curves: PopulationCurves) -> list[str]:
    diff = curves.difference
    rows = []
    for n, v in enumerate(curves.axis_values):
        cells = [fmt(v)]
        cells += [fmt(x) for x in curves.populations[n]]
        cells += [fmt(x) for x in diff[n]]
        rows.append(",".join(cells))
    return rows


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
