"""Correctness gate: what each output must satisfy and how failures count.

A point fails when the program raises or writes an error row for it, or
when its output breaks a check below.  Failures are data: they are counted
against the points attempted and never skipped.  Breaches that no correct
program can produce (malformed or misordered CSVs, non-finite numbers,
negative or unnormalised populations, exception types the package does not
declare) are also recorded as problems, which make the whole run incorrect.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import qtransistor

# eight additions and one normalisation keep sum(p) within a few ulps of 1
SUM_TOL = 1e-12
# |Q_L + Q_M + Q_R| / max|Q|; the bound acceptance criterion 2 holds the
# validated regime to
CONSERVATION_RTOL = 1e-10
# |alpha_L + alpha_R + 1| / max(1, |alpha|): the sum is -1 exactly in exact
# arithmetic, so the check cannot ask for more than alpha's own accuracy,
# the ~1e-6 relative truncation error of central differences at
# dT = 1e-3 T; the bound leaves a factor 10 above it
ALPHA_SUM_RTOL = 1e-5
# per-component relative accuracy against the 50-digit reference, over the
# reference components that are normal doubles
POP_RTOL = 1e-8
TINY = np.finfo(float).tiny
# agreement with the stored presets output: norm-wise for populations and
# currents, which solver changes move by ~1e-16 of the largest component;
# per value for alpha, whose finite-difference truncation error at
# dT = 1e-3 T is ~1e-6 relative, so a more exact alpha still agrees
EXPECTED_RTOL = 1e-8
ALPHA_EXPECTED_RTOL = 1e-5

POP_COLS = [f"rho_{k}{k}" for k in range(1, 9)]
# the sweep CSV schema documented in the README
SWEEP_HEADER = ",".join(
    ["axis_value", "Q_L", "Q_M", "Q_R", "alpha_L", "alpha_R", *POP_COLS,
     "secular_flag", "error"])
POPULATION_HEADER = ",".join(
    ["axis_value", *POP_COLS, *(f"d{c}" for c in POP_COLS)])

# the exception classes the package exports
DOMAIN_ERROR_NAMES = frozenset(
    name for name, obj in vars(qtransistor).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
)


@dataclass
class Tally:
    """Point outcomes of one checked pass."""

    attempted: int = 0
    failed: int = 0
    pop_checked: int = 0
    pop_accurate: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def point(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.update(set(failures))

    def problem(self, where: str, what: str) -> None:
        self.problems.append(f"{where}: {what}")

    @property
    def correct(self) -> bool:
        return not self.problems


def conservation_defect(Q) -> float:
    Q = np.asarray(Q, dtype=float)
    scale = np.max(np.abs(Q))
    return 0.0 if scale == 0.0 else float(abs(Q.sum()) / scale)


def alpha_sum_defect(alpha_L: float, alpha_R: float) -> float:
    return abs(alpha_L + alpha_R + 1.0) / max(1.0, abs(alpha_L), abs(alpha_R))


def check_populations(p, tally: Tally, where: str) -> list[str]:
    p = np.asarray(p, dtype=float)
    if p.shape != (8,) or not np.all(np.isfinite(p)):
        tally.problem(where, "populations are not 8 finite numbers")
        return ["populations malformed"]
    if p.min() < 0.0 or abs(p.sum() - 1.0) > SUM_TOL:
        tally.problem(where, f"populations min {p.min():.3e}, sum - 1 = {p.sum() - 1.0:.3e}")
        return ["populations not a distribution"]
    return []


def check_currents(Q, tally: Tally, where: str) -> list[str]:
    if not np.all(np.isfinite(Q)):
        tally.problem(where, "non-finite heat current")
        return ["currents malformed"]
    return ["conservation"] if conservation_defect(Q) > CONSERVATION_RTOL else []


def check_alpha(alpha_L: float, alpha_R: float, tally: Tally, where: str) -> list[str]:
    if not (math.isfinite(alpha_L) and math.isfinite(alpha_R)):
        tally.problem(where, "non-finite amplification factor")
        return ["alpha malformed"]
    return ["alpha sum"] if alpha_sum_defect(alpha_L, alpha_R) > ALPHA_SUM_RTOL else []


def max_relative_error(p: np.ndarray, ref: np.ndarray) -> float:
    """Largest |p - ref| / ref over reference components that are normal doubles."""
    mask = ref >= TINY
    return float(np.max(np.abs(p[mask] - ref[mask]) / ref[mask]))


def check_accuracy(p, ref, tally: Tally) -> None:
    """Count the point as accurate when every population meets POP_RTOL."""
    tally.pop_checked += 1
    if p is not None and max_relative_error(np.asarray(p, dtype=float), ref) <= POP_RTOL:
        tally.pop_accurate += 1


def check_error(message: str, tally: Tally, where: str) -> list[str]:
    """An error row or raised exception: a failure, typed or a problem."""
    name = message.split(":", 1)[0].strip()
    if name not in DOMAIN_ERROR_NAMES:
        tally.problem(where, f"undeclared exception {message!r}")
    return [name]


def close(values, expected, rtol: float) -> bool:
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return bool(np.max(np.abs(values - expected)) <= rtol * np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# presets-cli outputs
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _numbers(cells: list[str], tally: Tally, where: str) -> np.ndarray | None:
    """Floats of a cell group, None when the group is empty."""
    if all(c == "" for c in cells):
        return None
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        tally.problem(where, f"unparseable cells {cells}")
        return np.full(len(cells), np.nan)


def _check_table(path: str, expected_path: str, header: str,
                 tally: Tally, name: str) -> list[tuple[list[str], list[str]]] | None:
    """Header, row count and grid order; returns (row, expected row) pairs."""
    try:
        rows = _read_rows(path)
    except OSError as exc:
        tally.problem(name, f"output missing ({exc})")
        return None
    expected = _read_rows(expected_path)
    if not rows or ",".join(rows[0]) != header:
        tally.problem(name, "header differs from the documented schema")
        return None
    if len(rows) != len(expected):
        tally.problem(name, f"{len(rows) - 1} rows, expected {len(expected) - 1}")
        return None
    pairs = list(zip(rows[1:], expected[1:]))
    for k, (row, exp) in enumerate(pairs):
        if len(row) != len(exp) or row[0] != exp[0]:
            tally.problem(name, f"row {k} is not grid point {exp[0]}")
            return None
    return pairs


def check_sweep(name: str, path: str, expected_path: str, mp_ref: dict,
                tally: Tally) -> None:
    pairs = _check_table(path, expected_path, SWEEP_HEADER, tally, name)
    if pairs is None:
        return
    for k, (row, exp) in enumerate(pairs):
        where = f"{name} row {k}"
        got = {"Q": row[1:4], "alpha": row[4:6], "p": row[6:14]}
        want = {"Q": exp[1:4], "alpha": exp[4:6], "p": exp[6:14]}
        values = {key: _numbers(cells, tally, where) for key, cells in got.items()}
        expected = {key: _numbers(cells, tally, where) for key, cells in want.items()}
        failures = []
        if row[15]:
            failures += check_error(row[15], tally, where)
        if values["p"] is not None:
            failures += check_populations(values["p"], tally, where)
        if values["Q"] is not None:
            failures += check_currents(values["Q"], tally, where)
        if values["alpha"] is not None:
            failures += check_alpha(*values["alpha"], tally, where)
        if row[14] != exp[14]:
            failures.append("secular flag")
        if not exp[15]:
            for key, rtol in (("Q", EXPECTED_RTOL), ("p", EXPECTED_RTOL)):
                if expected[key] is not None and (
                        values[key] is None or not close(values[key], expected[key], rtol)):
                    failures.append(f"expected {key}")
            if expected["alpha"] is not None and (
                    values["alpha"] is None
                    or not all(close(v, e, ALPHA_EXPECTED_RTOL)
                               for v, e in zip(values["alpha"], expected["alpha"]))):
                failures.append("expected alpha")
        if (name, k) in mp_ref:
            check_accuracy(values["p"], mp_ref[(name, k)], tally)
        tally.point(failures)


def check_populations_csv(name: str, path: str, expected_path: str, mp_ref: dict,
                          tally: Tally) -> None:
    """fig6: each row holds two operating points, the base and the comparison
    lambda1, printed as populations and their difference."""
    pairs = _check_table(path, expected_path, POPULATION_HEADER, tally, name)
    if pairs is None:
        return
    for k, (row, exp) in enumerate(pairs):
        where = f"{name} row {k}"
        p = _numbers(row[1:9], tally, where)
        dp = _numbers(row[9:17], tally, where)
        if p is None or dp is None:
            tally.problem(where, "empty population cells")
            tally.point(["populations malformed"])
            tally.point(["populations malformed"])
            continue
        p_exp, dp_exp = np.array(exp[1:9], float), np.array(exp[9:17], float)
        failures = check_populations(p, tally, where)
        if not close(p, p_exp, EXPECTED_RTOL):
            failures.append("expected p")
        check_accuracy(p, mp_ref[(name, k)], tally)
        tally.point(failures)
        # the comparison curve is recovered as p - dp, exact to one rounding
        cmp = p - dp
        failures = []
        if not np.all(np.isfinite(cmp)) or cmp.min() < -SUM_TOL or abs(cmp.sum() - 1.0) > SUM_TOL:
            tally.problem(where, "comparison populations are not a distribution")
            failures.append("populations not a distribution")
        if not close(dp, dp_exp, EXPECTED_RTOL):
            failures.append("expected dp")
        tally.point(failures)


def _report_values(path: str) -> dict[str, float]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def check_modulation(name: str, path: str, expected_path: str, tally: Tally) -> None:
    """fig8: the steady states before and after the pulse, two points."""
    try:
        got = _report_values(path)
    except (OSError, ValueError) as exc:
        tally.problem(name, f"unreadable report ({exc})")
        return
    expected = _report_values(expected_path)
    if got.keys() != expected.keys():
        tally.problem(name, f"report keys {sorted(got)} differ")
        return
    for when in ("before", "after"):
        where = f"{name} {when}"
        keys = [f"Q_{nu}_{when}" for nu in "LMR"]
        Q = [got[k] for k in keys]
        failures = check_currents(Q, tally, where)
        if not 0.0 <= got[f"rho44_{when}"] <= 1.0:
            tally.problem(where, "rho44 outside [0, 1]")
            failures.append("rho44 range")
        if not (close(Q, [expected[k] for k in keys], EXPECTED_RTOL)
                and close(got[f"rho44_{when}"], expected[f"rho44_{when}"], EXPECTED_RTOL)):
            failures.append("expected report")
        tally.point(failures)


def load_mp_reference(path: str) -> dict[tuple[str, int], np.ndarray]:
    out = {}
    for row in _read_rows(path)[1:]:
        out[(row[0], int(row[1]))] = np.array(row[2:10], dtype=float)
    return out


def check_preset(name: str, path: str, expected_path: str, mp_ref: dict,
                 tally: Tally) -> None:
    if name == "fig6":
        check_populations_csv(name, path, expected_path, mp_ref, tally)
    elif name == "fig8":
        check_modulation(name, path, expected_path, tally)
    else:
        check_sweep(name, path, expected_path, mp_ref, tally)
