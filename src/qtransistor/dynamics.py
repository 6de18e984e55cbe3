"""Master-equation dynamics: rate equations, steady states, full evolution.

In the energy eigenbasis the populations close on themselves: they obey a
classical rate equation p' = W p.  One transition table (a row per channel
amplitude) is the single source of W, of its temperature derivatives and of
the heat currents; steady states come from GTH state reduction, their
derivatives from one linear-response solve.  Coherences decay independently,
so the steady state is diagonal; a full density-matrix propagator is kept as
an oracle for that claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .channels import channels_analytic
from .model import RESERVOIRS, EigenSystem, ParameterError, SystemParams, analytic_eigensystem

# relaxation rates below KERNEL_RTOL * max|W| count as the stationary mode
KERNEL_RTOL = 1e-10

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


class IntegrationError(RuntimeError):
    """Time integration failed to reach the requested horizon."""


def bose_occupation(omega: float, T: float) -> float:
    """Mean photon number 1 / (exp(omega/T) - 1).

    Evaluated as exp(-x)/(-expm1(-x)) with x = omega/T, which neither
    overflows for x >> 1 (hard underflow to 0 is accepted) nor cancels for
    x << 1.
    """
    if omega <= 0:
        raise ParameterError("bose_occupation requires omega > 0")
    if T <= 0:
        raise ParameterError("bose_occupation requires T > 0")
    x = omega / T
    return math.exp(-x) / (-math.expm1(-x))


class _Transitions(NamedTuple):
    """Transition table, one row per channel amplitude a on a pair i < j.

    Each row holds its reservoir (index into RESERVOIRS), the Bohr
    frequency omega = eps_j - eps_i, rate = gamma a^2 and the reservoir's
    Bose occupation nbar at omega.  down = rate (nbar + 1) and
    up = rate nbar are the transfer rates j -> i and i -> j.
    """

    i: np.ndarray
    j: np.ndarray
    reservoir: np.ndarray
    omega: np.ndarray
    rate: np.ndarray
    nbar: np.ndarray

    @property
    def down(self) -> np.ndarray:
        return self.rate * (self.nbar + 1.0)

    @property
    def up(self) -> np.ndarray:
        return self.rate * self.nbar


def _transitions(params: SystemParams) -> _Transitions:
    eig = analytic_eigensystem(params)
    rows = []
    for ch in channels_analytic(params, eig):
        gamma = params.decay_rate(ch.reservoir)
        T = params.temperature(ch.reservoir)
        for i, j, a in ch.amplitudes:
            w = eig.eigenvalues[j] - eig.eigenvalues[i]
            rows.append((i, j, RESERVOIRS.index(ch.reservoir), w, gamma * a * a,
                         bose_occupation(w, T)))
    return _Transitions(*(np.array(column) for column in zip(*rows)))


def _generator(t: _Transitions, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Generator with transfer j -> i at down and i -> j at up; columns sum to 0."""
    W = np.zeros((8, 8))
    np.add.at(W, (t.i, t.j), down)
    np.add.at(W, (t.j, t.i), up)
    W[np.diag_indices(8)] -= W.sum(axis=0)
    return W


def _currents(t: _Transitions, down: np.ndarray, up: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(Q_L, Q_M, Q_R): each row delivers omega * (upward - downward flux)."""
    flux = t.omega * (up * p[t.i] - down * p[t.j])
    return np.bincount(t.reservoir, weights=flux, minlength=3)


def rate_matrix(params: SystemParams) -> np.ndarray:
    """Population-transfer generator W of the rate equation p' = W p.

    For every channel amplitude a on the pair (i, j) with eps_i < eps_j at
    Bohr frequency w: downward transfer j -> i at W[i, j] = gamma (nbar+1) a^2
    and upward transfer i -> j at W[j, i] = gamma nbar a^2.  Diagonal entries
    close each column to zero sum.  At lambda = (1,1,1) every amplitude
    touching state 3 (0-based) is exactly zero, so its row and column vanish
    identically and the dark state decouples.
    """
    t = _transitions(params)
    return _generator(t, t.down, t.up)


def _gth(W: np.ndarray) -> np.ndarray:
    """Stationary vector of the off-diagonal rates W[i, j] (j -> i).

    Grassmann-Taksar-Heyman state reduction: states are censored from the
    top down, their flows folded into the rates among the states below, and
    the populations follow by back substitution.  Only non-negative numbers
    are added, multiplied and divided, so no component can come out negative
    and each has a small relative error (O'Cinneide 1993).
    """
    A = np.array(W, dtype=float)
    out = np.empty(len(A))
    for k in range(len(A) - 1, 0, -1):
        out[k] = A[:k, k].sum()
        if out[k] == 0.0:
            raise SteadyStateError(f"state {k} has no outflow to the states below it")
        A[:k, :k] += np.outer(A[:k, k] / out[k], A[k, :k])
    p = np.ones(len(A))
    for k in range(1, len(A)):
        p[k] = A[k, :k] @ p[:k] / out[k]
    return p / p.sum()


def _solved_states(params: SystemParams) -> list[int]:
    """All eight states, or the seven left when the dark population is pinned."""
    return [k for k in range(8) if k != DARK_STATE or not params.fully_common]


def steady_state(
    params: SystemParams,
    rho44_init: float | None = None,
    W: np.ndarray | None = None,
) -> np.ndarray:
    """Stationary population vector of the rate equation.

    GTH state reduction on the off-diagonal rates of W keeps populations as
    small as 1e-30 to full relative precision.  For a unique steady state
    rho44_init must be absent.  At fully common coupling the dark state 3
    (0-based) decouples and its conserved population must be pinned: the
    other seven states are solved and scaled to 1 - rho44_init.
    """
    if params.fully_common and rho44_init is None:
        raise UnderdeterminedError("fully common coupling leaves the dark-state "
                                   "population free; supply rho44_init")
    if not params.fully_common and rho44_init is not None:
        raise OverdeterminedError("steady state is unique; rho44_init must not be supplied")
    if rho44_init is not None and not (0.0 <= rho44_init <= 1.0):
        raise ParameterError("rho44_init must lie in [0, 1]")
    if W is None:
        W = rate_matrix(params)
    keep = _solved_states(params)
    p = np.zeros(8)
    p[keep] = _gth(W[np.ix_(keep, keep)])
    if rho44_init is not None:
        p *= 1.0 - rho44_init
        p[DARK_STATE] = rho44_init
    return p


def _steady_derivative(params: SystemParams, W: np.ndarray, dW: np.ndarray,
                       p: np.ndarray) -> np.ndarray:
    """First-order change p' of the steady state p when W changes by dW.

    Solves W p' = -dW p with sum(p') = 0 on the solved states.  One balance
    row is redundant (the columns of W sum to zero) and gives way to the
    normalisation: the row of the most populated state, so that every small
    population keeps its own balance equation.
    """
    keep = _solved_states(params)
    A = W[np.ix_(keep, keep)]
    b = -(dW @ p)[keep]
    r = int(np.argmax(p[keep]))
    A[r] = 1.0
    b[r] = 0.0
    dp = np.zeros(8)
    dp[keep] = np.linalg.solve(A, b)
    return dp


def _check_populations(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (8,):
        raise ParameterError("population vector must have 8 components")
    if p.min() < -1e-10 or abs(p.sum() - 1.0) > 1e-8:
        raise ParameterError("population vector must be non-negative and sum to 1")
    return p


def evolve_populations(
    params: SystemParams,
    p0: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Integrate p' = W p adaptively; row n is the state at t_grid[n]."""
    p0 = _check_populations(p0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ParameterError("t_grid must be a strictly increasing 1-d array")
    if t_grid.size == 1:
        return p0[None, :].copy()
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
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ParameterError("t_grid must be a strictly increasing 1-d array")
    eig = analytic_eigensystem(params)
    if t_grid.size == 1:
        traj = rho0[None, :, :].copy()
    else:
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
    """Smallest nonzero decay rate |Re eigenvalue| of the rate matrix."""
    ev = np.linalg.eigvals(W)
    rates = np.abs(ev.real)
    rates = rates[rates > KERNEL_RTOL * np.max(np.abs(W))]
    if rates.size == 0:
        raise SteadyStateError("rate matrix has no relaxing mode")
    return float(rates.min())


def relaxation_horizon(W: np.ndarray, decades: float = 18.0) -> float:
    """Integration time after which transients have decayed by ~10^-decades."""
    return decades * math.log(10.0) / slowest_relaxation_rate(W)
