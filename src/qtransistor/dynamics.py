"""Master-equation dynamics: rate equations, steady states, full evolution.

In the energy eigenbasis the populations close on themselves: they obey a
classical rate equation p' = W p.  One batched kernel, `solve`, computes
every per-point number of the package.  For N operating points it builds
the transition table as (N, 24) arrays (a row per channel amplitude, in
the order of channels.TRANSITIONS), assembles W as (N, 8, 8), finds every
steady state, dark-pinned ones included, by one GTH state reduction, takes
the heat currents and the residual max|W p| from the same rows, and gets
the amplification factors from one batched linear-response solve; nothing
in it loops over points or channels.  rate_matrix, steady_state and (in
observables) heat_currents and amplification_factor are its N = 1 calls.
Its eigenvalues, mixing angles and Bose occupations are the numpy ufunc
closed forms model.closed_forms and _nbar, which the scalar helpers
(analytic_eigensystem, mixing_angle, bose_occupation) call on one row, so
a table built for one point equals the scalar route's numbers bit for bit.
The last single-point table built is kept, keyed on the exact bytes of its
input, so the second of two calls on the same point (steady_state then
heat_currents, rate_matrix then steady_state) reuses it; the table is a
pure function of those bytes, so reuse changes no result.  Coherences
decay independently, so the steady state is diagonal; a full
density-matrix propagator is kept as an oracle for that claim.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    AMPLITUDE_TOL,
    ROW_I,
    ROW_J,
    ROW_RESERVOIR,
    channels_analytic,
    transition_amplitudes,
)
from .model import (
    RESERVOIRS,
    EigenSystem,
    ParameterError,
    SystemParams,
    analytic_eigensystem,
    closed_forms,
)

# 0-based index of the eigenstate that decouples at lambda = (1, 1, 1)
DARK_STATE = 3

ODE_RTOL = 1e-12
ODE_ATOL = 1e-16


class SteadyStateError(ValueError):
    """Steady-state problem is mis-specified for the given parameters."""


class UnderdeterminedError(SteadyStateError):
    """Rate matrix has a multi-dimensional kernel and no rho44_init given."""


class OverdeterminedError(SteadyStateError):
    """rho44_init supplied although the steady state is unique."""


class DegenerateControlError(ArithmeticError):
    """The control current does not respond to the control temperature."""


class IntegrationError(RuntimeError):
    """Time integration failed to reach the requested horizon."""


def _nbar(z: np.ndarray) -> np.ndarray:
    """Bose occupation 1 / (exp(z) - 1) of z = omega / T, elementwise.

    Evaluated as exp(-z)/(-expm1(-z)), which neither overflows for z >> 1
    (hard underflow to 0 is accepted, and z = inf gives 0) nor cancels for
    z << 1.
    """
    return np.exp(-z) / -np.expm1(-z)


def bose_occupation(omega: float, T: float) -> float:
    """Mean photon number 1 / (exp(omega/T) - 1), by _nbar."""
    if omega <= 0:
        raise ParameterError("bose_occupation requires omega > 0")
    if T <= 0:
        raise ParameterError("bose_occupation requires T > 0")
    return float(_nbar(np.array([omega / T]))[0])


# the SystemParams fields the kernel reads, as the columns of its input
_FIELDS = operator.attrgetter(
    "omega_L", "omega_M", "g", "T_L", "T_M", "T_R",
    "gamma_L", "gamma_M", "gamma_R", "lambda1", "lambda2", "lambda3",
)

# flat indices into a row-major 8x8 W: transfer j -> i sits at W[i, j] and
# i -> j at W[j, i]; the 24 pairs are distinct, so each entry is set once
_DOWN = ROW_I * 8 + ROW_J
_UP = ROW_J * 8 + ROW_I
_DIAGONAL = np.arange(8) * 9
# (24, 8) incidence of the rows: row r takes its flow out of state ROW_I[r]
# (-1) into state ROW_J[r] (+1)
_INCIDENCE = np.eye(8)[ROW_J] - np.eye(8)[ROW_I]


def _inputs(params: Sequence[SystemParams]) -> np.ndarray:
    """(N, 12) kernel input, columns in _FIELDS order."""
    return np.array([_FIELDS(p) for p in params], dtype=float).reshape(len(params), 12)


class _Table(NamedTuple):
    """Transition table of N points: (N, 24) arrays, rows as channels.TRANSITIONS.

    omega is the Bohr frequency eps_j - eps_i of row (i, j), rate = gamma a^2
    (0 where |a| <= AMPLITUDE_TOL, the amplitudes channels_analytic drops),
    T and nbar the temperature and Bose occupation of the row's reservoir
    at omega.  down = rate (nbar + 1) and up = rate nbar are the transfer
    rates j -> i and i -> j.
    """

    omega: np.ndarray
    rate: np.ndarray
    T: np.ndarray
    nbar: np.ndarray
    down: np.ndarray
    up: np.ndarray


_NBAR_UNDEFINED = "bose_occupation requires omega > 0"


# the last single-point table built: (x.tobytes() of its input, (table,
# undefined)), always replaced whole, so a reader sees a complete entry or none
_last_table: tuple[bytes, tuple[_Table, np.ndarray]] | None = None


def _table(x: np.ndarray) -> tuple[_Table, np.ndarray]:
    """Transition table of the input rows x, and where it is undefined.

    Eigenvalues and mixing angles come from model.closed_forms and the
    occupations from _nbar, which the scalar helpers call on one row, so
    a row's amplitude and nbar equal channels_analytic's and
    bose_occupation's bit for bit.  The second result flags the points
    with a kept row at omega <= 0, where nbar does not exist
    (bose_occupation raises there); temperatures are positive by
    SystemParams' own checks.

    The result depends on nothing but the values in x, so the last
    single-point one (only single points are asked for twice in a row:
    steady_state then heat_currents) is kept and returned again, read-only,
    while x holds the same bytes: a repeated call gets exactly what a
    rebuild would give.
    """
    global _last_table
    key = x.tobytes() if len(x) == 1 else None
    last = _last_table
    if last is not None and last[0] == key:
        return last[1]
    eps, beta = closed_forms(x)
    a = transition_amplitudes(np.cos(beta), np.sin(beta), x[:, 9:12])
    kept = np.abs(a) > AMPLITUDE_TOL
    omega = eps[:, ROW_J] - eps[:, ROW_I]
    T = x[:, 3 + ROW_RESERVOIR]
    rate = np.where(kept, x[:, 6 + ROW_RESERVOIR] * a * a, 0.0)
    defined = kept & (omega > 0.0)
    # the two rows of a channel share omega bit for bit (the same sum or
    # difference of two eigenvalue magnitudes) and T, so nbar is evaluated
    # once per channel
    z = np.where(defined[:, ::2] | defined[:, 1::2], omega[:, ::2] / T[:, ::2], np.inf)
    nbar = np.repeat(_nbar(z), 2, axis=1)
    result = (_Table(omega, rate, T, nbar, rate * (nbar + 1.0), rate * nbar),
              np.any(kept & ~defined, axis=1))
    for array in (*result[0], result[1]):
        array.flags.writeable = False
    if key is not None:
        _last_table = (key, result)
    return result


def _point_table(params: SystemParams) -> _Table:
    """The N = 1 table of one point; raises where nbar is undefined."""
    t, undefined = _table(_inputs([params]))
    if undefined[0]:
        raise ParameterError(_NBAR_UNDEFINED)
    return t


def _generator(down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """(N, 8, 8) generators with transfer j -> i at down and i -> j at up; columns sum to 0."""
    W = np.zeros((len(down), 64))
    W[:, _DOWN] = down
    W[:, _UP] = up
    W[:, _DIAGONAL] -= W.reshape(-1, 8, 8).sum(axis=1)
    return W.reshape(-1, 8, 8)


def _flow(down: np.ndarray, up: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(N, 24) net population flow i -> j along each row for populations p (N, 8)."""
    return up * p[:, ROW_I] - down * p[:, ROW_J]


def _row_heat(t: _Table, flow: np.ndarray) -> np.ndarray:
    """(N, 3, 8) heat omega * flow each row delivers, grouped by reservoir.

    channels.TRANSITIONS lists the 8 rows of L, then of M, then of R.
    """
    return (t.omega * flow).reshape(-1, 3, 8)


def _currents(t: _Table, flow: np.ndarray) -> np.ndarray:
    """(N, 3) heat currents (Q_L, Q_M, Q_R): the row heats summed per reservoir."""
    return _row_heat(t, flow).sum(axis=2)


def _rate_of_change(flow: np.ndarray) -> np.ndarray:
    """(N, 8) W p from the row flows: each flows out of state i into state j."""
    return flow @ _INCIDENCE


def rate_matrix(params: SystemParams) -> np.ndarray:
    """Population-transfer generator W of the rate equation p' = W p.

    For every channel amplitude a on the pair (i, j) with eps_i < eps_j at
    Bohr frequency w: downward transfer j -> i at W[i, j] = gamma (nbar+1) a^2
    and upward transfer i -> j at W[j, i] = gamma nbar a^2.  Diagonal entries
    close each column to zero sum.  At lambda = (1,1,1) every amplitude
    touching state 3 (0-based) is exactly zero, so its row and column vanish
    identically and the dark state decouples.
    """
    t = _point_table(params)
    return _generator(t.down, t.up)[0]


def _gth(A: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Stationary vectors of the off-diagonal rates A[n, i, j] (j -> i).

    Grassmann-Taksar-Heyman state reduction: states are censored from the
    top down, their flows folded into the rates among the states below, and
    the populations follow by back substitution.  Only non-negative numbers
    are added, multiplied and divided, so no component can come out negative
    and each has a small relative error (O'Cinneide 1993).  A is reduced in
    place.  Also returns, per point, the highest state with no outflow to
    the states below it, or -1; such a point's populations are meaningless.
    That second result is None when no point has such a state.
    """
    n_points, n = A.shape[:2]
    out, p = np.ones((2, n_points, n, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            column = A[:, :k, k:k + 1]
            np.add.reduce(column, axis=1, keepdims=True, out=out[:, k:k + 1])
            if k > 1:  # below state 1 only the unread diagonal A[0, 0] is left
                block = A[:, :k, :k]
                np.add(block, column / out[:, k:k + 1] * A[:, k:k + 1, :k], out=block)
        for k in range(1, n):
            np.divide(np.matmul(A[:, k:k + 1, :k], p[:, :k]), out[:, k:k + 1],
                      out=p[:, k:k + 1])
    stuck = None
    if not out.all():
        dead = out[:, :, 0] == 0.0
        stuck = np.where(dead.any(axis=1), n - 1 - np.argmax(dead[:, ::-1], axis=1), -1)
    p = p[:, :, 0]
    return p / p.sum(axis=1, keepdims=True), stuck


def _steady_derivative(W: np.ndarray, dWp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """First-order change p' of steady states p when W changes by dW.

    Solves W p' = -dW p with sum(p') = 0 for each point of the batch
    (dWp = dW p).  One balance row is redundant (the columns of W sum to
    zero) and gives way to the normalisation: the row of the most populated
    state, so that every small population keeps its own balance equation.
    A drained dark state (see `_steady`) has the row -p'_3 = 0; should it
    be the row replaced, the seven others still force p'_3 = 0, as they
    sum to p'_3 by the zero column sums.
    """
    A = W.copy()
    b = -dWp
    r = np.argmax(p, axis=1)
    points = np.arange(len(p))
    A[points, r] = 1.0
    b[points, r] = 0.0
    return np.linalg.solve(A, b[:, :, None])[:, :, 0]


class _Failures:
    """Typed domain errors of the points of a batch; a point keeps its first."""

    def __init__(self, n_points: int):
        self.errors: list[Exception | None] = [None] * n_points
        self.ok = np.ones(n_points, dtype=bool)

    def record(self, mask: np.ndarray, error: type[Exception], message: str) -> None:
        if mask.any():
            mask = mask & self.ok
            for n in np.flatnonzero(mask):
                self.errors[n] = error(message)
            self.ok &= ~mask


def _raise_first(errors: Sequence[Exception | None]) -> None:
    """Raise the first error of a batch, if there is one."""
    for error in errors:
        if error is not None:
            raise error


class _Steady(NamedTuple):
    """The first stage of `solve`: tables, generators (dark states drained) and steady states."""

    table: _Table
    W: np.ndarray
    populations: np.ndarray
    failures: _Failures


def _steady(params: Sequence[SystemParams], rho44_init: Sequence[float | None]) -> _Steady:
    """Steady states of N points by one GTH pass over their generators.

    A dark state (fully common coupling) has no rates; drained 3 -> 0 at
    unit rate it holds no population and leaves the other seven balances
    as they are, which are then scaled to 1 - rho44, with rho44 at state 3.
    """
    n_points = len(params)
    x = _inputs(params)
    failures = _Failures(n_points)
    dark = (x[:, 9:] == 1.0).all(axis=1)
    pinned = np.array([r is not None for r in rho44_init], dtype=bool)
    rho44 = np.array([0.0 if r is None else r for r in rho44_init], dtype=float)
    if dark.any() or pinned.any():  # else no pin can be missing, superfluous or out of range
        failures.record(dark & ~pinned, UnderdeterminedError,
                        "fully common coupling leaves the dark-state population free; "
                        "supply rho44_init")
        failures.record(pinned & ~dark, OverdeterminedError,
                        "steady state is unique; rho44_init must not be supplied")
        failures.record(pinned & ~((rho44 >= 0.0) & (rho44 <= 1.0)), ParameterError,
                        "rho44_init must lie in [0, 1]")
    t, undefined = _table(x)
    failures.record(undefined, ParameterError, _NBAR_UNDEFINED)
    W = _generator(t.down, t.up)
    W[dark, 0, DARK_STATE] = 1.0
    W[dark, DARK_STATE, DARK_STATE] = -1.0

    p = np.full((n_points, 8), np.nan)
    points = np.flatnonzero(failures.ok)
    q, stuck = _gth(W[points])
    if stuck is not None:
        for n, k in zip(points[stuck >= 0], stuck[stuck >= 0]):
            failures.record(np.arange(n_points) == n, SteadyStateError,
                            f"state {k} has no outflow to the states below it")
        points, q = points[stuck < 0], q[stuck < 0]
    # rho44 is 0 where no pin is set, so this leaves lit points as they are
    p[points] = q * (1.0 - rho44[points, None])
    p[points, DARK_STATE] += rho44[points]
    return _Steady(t, W, p, failures)


class Solution(NamedTuple):
    """Results of one `solve` call; row n belongs to the n-th operating point.

    populations: (N, 8) steady populations, NaN rows where the steady state
    failed.  currents: (N, 3) heat currents (Q_L, Q_M, Q_R) of those
    populations, and residual: (N,) their max|W p|.  alpha: (N, 2)
    amplification factors (alpha_L, alpha_R), NaN where not requested or
    failed.  errors: per point None, or the typed domain error that stopped
    it (only alpha, where the populations are finite).
    """

    populations: np.ndarray
    currents: np.ndarray
    residual: np.ndarray
    alpha: np.ndarray
    errors: list[Exception | None]


def solve(
    params: Sequence[SystemParams],
    rho44_init: Sequence[float | None] | None = None,
    control: str | None = None,
) -> Solution:
    """Steady states, heat currents and amplification factors of N points.

    rho44_init[n] pins the dark-state population of point n; it must be
    given exactly where params[n] has fully common coupling (default: no
    pins).  With a control terminal, alpha_{L,R} = (dQ_{L,R}/dT) /
    (dQ_M/dT) for T = T_control by linear response: dnbar/dT =
    nbar (nbar + 1) w / T^2 on that reservoir's rows gives dW/dT, and the
    steady-state derivative p' solves W p' = -(dW/dT) p with sum(p') = 0.
    Dark-pinned points share both solves: their drained dark state (see
    `_steady`) gets p'_3 = 0.  Each dQ_nu/dT sums the row heats of p' and
    of dW/dT.  As dQ_L + dQ_M + dQ_R = 0, one whose terms outweigh those of
    the other two together in absolute sum is taken as minus their sum:
    the route with the least cancellation, so a cold point's dQ_M is not
    left as the tiny difference of large row heats.

    A point that fails records its typed error, in the order the checks
    run: UnderdeterminedError or OverdeterminedError for a missing or
    superfluous pin, ParameterError for a pin outside [0, 1] or an
    undefined nbar, SteadyStateError for a state without outflow,
    DegenerateControlError where dQ_M/dT == 0.  The other points are solved
    as if it were absent.  Only an unknown control terminal raises.
    """
    if control is not None and control not in RESERVOIRS:
        raise ParameterError("control terminal must be one of 'L', 'M', 'R'")
    if rho44_init is None:
        rho44_init = [None] * len(params)
    if len(rho44_init) != len(params):
        raise ValueError("rho44_init needs one entry (a pin or None) per parameter set")
    t, W, p, failures = _steady(params, rho44_init)
    flow = _flow(t.down, t.up, p)
    currents = _currents(t, flow)
    residual = np.max(np.abs(_rate_of_change(flow)), axis=1)

    alpha = np.full((len(p), 2), np.nan)
    if control is not None:
        on = ROW_RESERVOIR == RESERVOIRS.index(control)
        d_rate = np.where(on, t.rate * t.nbar * (t.nbar + 1.0) * t.omega / (t.T * t.T), 0.0)
        d_flow = _flow(d_rate, d_rate, p)
        points = np.flatnonzero(failures.ok)
        dp = np.zeros_like(p)
        dp[points] = _steady_derivative(W[points], _rate_of_change(d_flow)[points], p[points])
        heat = np.concatenate([_row_heat(t, _flow(t.down, t.up, dp)), _row_heat(t, d_flow)],
                              axis=2)
        dQ, size = heat.sum(axis=2), np.abs(heat).sum(axis=2)
        others, others_size = (np.roll(v, 1, axis=1) + np.roll(v, 2, axis=1) for v in (dQ, size))
        dQ = np.where(size > others_size, -others, dQ)
        failures.record(dQ[:, 1] == 0.0, DegenerateControlError,
                        f"dQ_M/dT_{control} vanishes at this operating point")
        ok = failures.ok
        alpha[ok] = dQ[ok][:, [0, 2]] / dQ[ok, 1:2]
    return Solution(p, currents, residual, alpha, failures.errors)


def _solve_point(
    params: SystemParams,
    rho44_init: float | None = None,
    control: str | None = None,
) -> Solution:
    """`solve` for one point; its domain error, if any, is raised."""
    sol = solve([params], [rho44_init], control)
    _raise_first(sol.errors)
    return sol


def steady_state(params: SystemParams, rho44_init: float | None = None) -> np.ndarray:
    """Stationary population vector of the rate equation.

    GTH state reduction on the off-diagonal rates of W keeps populations as
    small as 1e-30 to full relative precision.  For a unique steady state
    rho44_init must be absent.  At fully common coupling the dark state 3
    (0-based) decouples and its conserved population must be pinned: with
    the dark state drained into the ground state the reduction leaves it
    empty, the other seven states are scaled to 1 - rho44_init and state 3
    gets rho44_init.  This is the first stage of `solve` for one point.
    """
    steady = _steady([params], [rho44_init])
    _raise_first(steady.failures.errors)
    return steady.populations[0]


def _check_populations(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (8,):
        raise ParameterError("population vector must have 8 components")
    if p.min() < -1e-10 or abs(p.sum() - 1.0) > 1e-8:
        raise ParameterError("population vector must be non-negative and sum to 1")
    return p


def _check_times(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ParameterError("t_grid must be a strictly increasing 1-d array")
    return t_grid


def evolve_populations(
    params: SystemParams,
    p0: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Integrate p' = W p adaptively; row n is the state at t_grid[n]."""
    p0 = _check_populations(p0)
    t_grid = _check_times(t_grid)
    if t_grid.size == 1:
        return p0[None, :].copy()
    from scipy.integrate import solve_ivp  # only the two oracle integrators load SciPy

    W = rate_matrix(params)
    sol = solve_ivp(
        lambda t, p: W @ p,
        (t_grid[0], t_grid[-1]),
        p0,
        t_eval=t_grid,
        method="DOP853",
        rtol=ODE_RTOL,
        atol=ODE_ATOL,
    )
    if not sol.success:
        raise IntegrationError(f"population integration failed: {sol.message}")
    return sol.y.T


def _superop(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # rho -> A rho B on row-major flattened rho
    return np.kron(A, B.T)


def _dissipator_term(X: np.ndarray) -> np.ndarray:
    XtX = X.T @ X
    I8 = np.eye(8)
    return _superop(X, X.T) - 0.5 * (_superop(XtX, I8) + _superop(I8, XtX))


def dissipator_superoperator(
    params: SystemParams,
    reservoir: str | None = None,
    eig: EigenSystem | None = None,
) -> np.ndarray:
    """64x64 dissipative generator in the energy eigenbasis (row-major vec).

    Sums gamma (nbar+1) D[S_k] + gamma nbar D[S_k^T] over the channels of
    one reservoir (or all three).  The Hamiltonian commutator is not
    included: in the eigenbasis it only attaches phases to coherences and
    is applied analytically by evolve_density_matrix.
    """
    if eig is None:
        eig = analytic_eigensystem(params)
    D = np.zeros((64, 64))
    for ch in channels_analytic(params, eig):
        if reservoir is not None and ch.reservoir != reservoir:
            continue
        if not ch.amplitudes:
            continue
        gamma = params.decay_rate(ch.reservoir)
        n = bose_occupation(ch.frequency, params.temperature(ch.reservoir))
        D += gamma * (n + 1.0) * _dissipator_term(ch.operator)
        D += gamma * n * _dissipator_term(ch.operator.T)
    return D


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ParameterError("density matrix must be 8x8")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ParameterError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-10:
        raise ParameterError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ParameterError("density matrix must be positive semidefinite")
    return rho


def evolve_density_matrix(
    params: SystemParams,
    rho0: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Full master-equation trajectory including coherences (oracle path).

    rho0 and the returned states live in the energy eigenbasis.  The
    generator splits into the dissipator plus the Hamiltonian commutator;
    the latter commutes with the secular dissipator, so the stiff unitary
    phases exp(-i (eps_i - eps_j) t) are attached exactly after adaptively
    integrating the dissipative part alone.
    """
    rho0 = _check_density_matrix(rho0)
    t_grid = _check_times(t_grid)
    eig = analytic_eigensystem(params)
    if t_grid.size == 1:
        traj = rho0[None, :, :].copy()
    else:
        from scipy.integrate import solve_ivp

        D = dissipator_superoperator(params, eig=eig)
        sol = solve_ivp(
            lambda t, y: D @ y,
            (t_grid[0], t_grid[-1]),
            rho0.reshape(64),
            t_eval=t_grid,
            method="DOP853",
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
        )
        if not sol.success:
            raise IntegrationError(f"density-matrix integration failed: {sol.message}")
        traj = sol.y.T.reshape(-1, 8, 8)
    phase = np.exp(-1j * (eig.eigenvalues[:, None] - eig.eigenvalues[None, :])
                   * (t_grid - t_grid[0])[:, None, None])
    return traj * phase


@dataclass(frozen=True)
class DriveSpec:
    """Resonant two-level drive between a pair of eigenstates.

    Omega is the driving strength, delta_t the pulse duration; the drive is
    treated as instantaneous on dissipative timescales and therefore as a
    pure Rabi rotation of the driven pair.
    """

    Omega: float
    delta_t: float
    pair: tuple[int, int] = (3, 7)

    def __post_init__(self):
        if not self.Omega > 0:
            raise ParameterError("driving strength Omega must be positive")
        if self.delta_t < 0:
            raise ParameterError("drive duration must be non-negative")
        a, b = self.pair
        if not (0 <= a < 8 and 0 <= b < 8 and a != b):
            raise ParameterError("driven pair must be two distinct indices in 0..7")


def drive_unitary(drive: DriveSpec) -> np.ndarray:
    """8x8 unitary exp(i Omega delta_t (|a><b| + |b><a|)) on the driven pair."""
    a, b = drive.pair
    theta = drive.Omega * drive.delta_t
    U = np.eye(8, dtype=complex)
    U[a, a] = U[b, b] = math.cos(theta)
    U[a, b] = U[b, a] = 1j * math.sin(theta)
    return U


def apply_drive(state: np.ndarray, drive: DriveSpec) -> np.ndarray:
    """Rabi-rotate the driven pair of a population vector or density matrix.

    Populations mix as p_a' = p_a cos^2 + p_b sin^2 (and symmetrically);
    a density matrix is conjugated by the full pair unitary.
    """
    state = np.asarray(state)
    a, b = drive.pair
    if state.ndim == 1:
        p = _check_populations(state).copy()
        c2 = math.cos(drive.Omega * drive.delta_t) ** 2
        s2 = math.sin(drive.Omega * drive.delta_t) ** 2
        pa, pb = p[a], p[b]
        p[a] = pa * c2 + pb * s2
        p[b] = pb * c2 + pa * s2
        return p
    if state.ndim == 2:
        rho = _check_density_matrix(state)
        U = drive_unitary(drive)
        return U @ rho @ U.conj().T
    raise ParameterError("state must be a population vector or a density matrix")


def slowest_relaxation_rate(W: np.ndarray) -> float:
    """Smallest decay rate |Re eigenvalue| of the rate matrix W.

    W has one stationary mode, plus one more for every state whose row and
    column are identically zero (the dark state at fully common coupling).
    Exactly those smallest rates are dropped, however close to zero the
    next one is: near the dark state the slow mode falls as (1 - lambda)^2.
    """
    isolated = np.all(W == 0.0, axis=0) & np.all(W == 0.0, axis=1)
    rates = np.sort(np.abs(np.linalg.eigvals(W).real))
    stationary = 1 + int(np.count_nonzero(isolated))
    if stationary >= rates.size or not rates[stationary] > 0.0:
        raise SteadyStateError("rate matrix has no relaxing mode")
    return float(rates[stationary])


def relaxation_horizon(W: np.ndarray, decades: float = 18.0) -> float:
    """Integration time after which transients have decayed by ~10^-decades."""
    return decades * math.log(10.0) / slowest_relaxation_rate(W)
