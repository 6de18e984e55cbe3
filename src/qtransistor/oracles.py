"""Independent references the kernel is checked against.

Each route here recomputes, by another construction, numbers that
channels, dynamics and observables compute, and serves only to test that
the two agree.  No other module of the package imports this one, so
neither `import qtransistor` nor a command loads it; its names are reached
as qtransistor.oracles.*.

* jump_operators builds the collective operators S_nu in the computational
  basis, and decompose_numeric regroups their eigenbasis entries by Bohr
  frequency numerically; the channels must match channels_analytic
  entrywise.  The eigenbasis transform of S_nu also contains small raising
  entries at negative Bohr frequencies (counter-rotating admixtures of
  order sin(beta)).  The master equation never uses them: under the
  rotating-wave system-bath coupling the bath spectral function has no
  weight at negative frequencies.  Channels therefore reconstruct exactly
  the positive-frequency (lowering) part of S_nu, positive_frequency_part,
  not the full operator.
* dissipator_superoperator is the full 64x64 Lindblad generator, and
  evolve_populations and evolve_density_matrix propagate the rate equation
  and the master equation exactly, one matrix exponential per time step.
  Coherences decay independently, so the steady state is diagonal; the
  density-matrix propagator checks that claim.  drive_density_matrix
  conjugates a density matrix by the drive's pair unitary, against the
  population rotation of apply_drive.
* heat_currents_trace takes the currents as Tr(H L_nu[rho]) instead of the
  pairwise transition sum of heat_currents.
* closed_form_populations solves the fully common coupling reduction in
  closed form, against steady_state.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channels import DissipationChannel, channels_analytic
from .dynamics import (
    DRIVEN_PAIR,
    DriveSpec,
    SteadyStateError,
    _check_populations,
    bose_occupation,
    rate_matrix,
    steady_state,
)
from .model import (
    RESERVOIRS,
    EigenSystem,
    ParameterError,
    SystemParams,
    analytic_eigensystem,
    min_distinct_bohr_gap,
)
from .observables import HeatCurrentTriple

# decompose_numeric's floor for the rounding noise of a numerically
# transformed V^T S V: smaller entries count as zero
AMPLITUDE_TOL = 1e-12

# default Bohr-frequency grouping tolerance, in units of omega_0
FREQUENCY_TOL = 1e-9


class FrequencyAmbiguityError(ValueError):
    """Grouping tolerance cannot separate distinct Bohr frequencies."""


def _lower() -> np.ndarray:
    # sigma^- = |0><1| with ordering (|0>, |1>)
    return np.array([[0.0, 1.0], [0.0, 0.0]])


def jump_operators(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective jump operators (S_L, S_M, S_R) in the computational basis.

    S_L = sigma_L^- + lambda1 sigma_R^- sigma_M^+
    S_M = sigma_M^- + lambda2 sigma_L^+ sigma_R^-
    S_R = sigma_R^- + lambda3 sigma_L^- sigma_M^-
    """
    sm = _lower()
    sp = sm.T
    I2 = np.eye(2)

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    S_L = kron3(sm, I2, I2) + params.lambda1 * kron3(I2, sp, sm)
    S_M = kron3(I2, sm, I2) + params.lambda2 * kron3(sp, I2, sm)
    S_R = kron3(I2, I2, sm) + params.lambda3 * kron3(sm, sm, I2)
    return S_L, S_M, S_R


def positive_frequency_part(S: np.ndarray, eig: EigenSystem) -> np.ndarray:
    """Lowering part of S in the eigenbasis: entries with eps_j > eps_i."""
    Se = eig.eigenvectors.T @ S @ eig.eigenvectors
    mask = eig.eigenvalues[None, :] > eig.eigenvalues[:, None]
    return np.where(mask, Se, 0.0)


def decompose_numeric(
    S: np.ndarray,
    eig: EigenSystem,
    tol: float = FREQUENCY_TOL,
    reservoir: str = "?",
) -> list[DissipationChannel]:
    """Group the eigenbasis entries of S by positive Bohr frequency.

    Channels come back sorted by ascending frequency with index k = 1..n.
    tol must resolve the spectrum: it is validated against the smallest gap
    between distinct Bohr frequencies so that genuinely different channels
    are never merged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gap = min_distinct_bohr_gap(eig.eigenvalues)
    if tol >= gap:
        raise FrequencyAmbiguityError(
            f"grouping tolerance {tol:g} is not below the smallest distinct "
            f"Bohr-frequency gap {gap:g}"
        )
    Se = positive_frequency_part(S, eig)
    entries = []
    for i in range(8):
        for j in range(8):
            freq = eig.eigenvalues[j] - eig.eigenvalues[i]
            if freq > tol and abs(Se[i, j]) > AMPLITUDE_TOL:
                entries.append((freq, i, j, Se[i, j]))
    entries.sort(key=lambda e: e[0])

    groups: list[list[tuple]] = []
    for e in entries:
        if groups and e[0] - groups[-1][-1][0] <= tol:
            groups[-1].append(e)
        else:
            groups.append([e])

    channels = []
    for k, group in enumerate(groups, start=1):
        freq = float(np.mean([e[0] for e in group]))
        op = np.zeros((8, 8))
        amps = []
        for _, i, j, a in group:
            op[i, j] = a
            amps.append((i, j, float(a)))
        channels.append(DissipationChannel(
            reservoir=reservoir, index=k, frequency=freq,
            operator=op, amplitudes=tuple(amps),
        ))
    return channels


def _check_times(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size and np.all(np.abs(t_grid) < math.inf)
            and np.all(np.diff(t_grid) > 0)):
        raise ParameterError("t_grid must be a strictly increasing 1-d array of finite times")
    return t_grid


def _expm_minus_identity(A: np.ndarray) -> np.ndarray:
    """exp(A) - I by scaling and squaring (Moler & Van Loan, SIAM Rev. 45
    (2003) 3; Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).

    A / 2^s has 1-norm below 1/2, where the degree-18 Taylor series is exact
    to double precision.  The squaring keeps X = E - I and runs
    X <- 2 X + X X: squaring E itself rounds the small entries of X against
    the 1 on its diagonal, which near the dark state loses whole digits.
    """
    s = max(0, math.frexp(np.linalg.norm(A, 1))[1] + 1)
    A = A * 2.0 ** -s
    X = A / 18.0
    for k in range(17, 0, -1):  # Horner: X = A/k (I + X)
        X = (A + A @ X) / k
    for _ in range(s):
        X = 2.0 * X + X @ X
    return X


def _propagate(G: np.ndarray, y0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact solution of y' = G y for constant G: y_{n+1} = exp(G (t_{n+1} - t_n)) y_n;
    row n is the state at t_grid[n]."""
    y = [y0]
    for dt in np.diff(t_grid):
        y.append(y[-1] + _expm_minus_identity(G * dt) @ y[-1])
    return np.array(y)


def evolve_populations(
    params: SystemParams,
    p0: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Propagate p' = W p exactly; row n is the state at t_grid[n]."""
    p0 = _check_populations(p0)
    t_grid = _check_times(t_grid)
    return _propagate(rate_matrix(params), p0, t_grid)


def _superop(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # rho -> A rho B on row-major flattened rho
    return np.kron(A, B.T)


def _dissipator_term(X: np.ndarray) -> np.ndarray:
    XtX = X.T @ X
    I8 = np.eye(8)
    return _superop(X, X.T) - 0.5 * (_superop(XtX, I8) + _superop(I8, XtX))


def dissipator_superoperator(params: SystemParams, reservoir: str | None = None) -> np.ndarray:
    """64x64 dissipative generator in the energy eigenbasis (row-major vec).

    Sums gamma (nbar+1) D[S_k] + gamma nbar D[S_k^T] over the channels of
    one reservoir (or all three), as channels_analytic builds them from the
    transition rows the kernel's table reads; empty channels add nothing.
    The Hamiltonian commutator is not included: in the eigenbasis it only
    attaches phases to coherences and is applied analytically by
    evolve_density_matrix.
    """
    D = np.zeros((64, 64))
    for ch in channels_analytic(params):
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
    if not np.all(np.abs(rho) < math.inf):  # also rejects nan
        raise ParameterError("density matrix entries must be finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ParameterError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-10:
        raise ParameterError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ParameterError("density matrix must be positive semidefinite")
    return rho


def drive_density_matrix(rho: np.ndarray, drive: DriveSpec) -> np.ndarray:
    """Conjugate the density matrix rho by the drive's pair unitary.

    U = exp(i theta (|a><b| + |b><a|)) on DRIVEN_PAIR (a, b), theta = Omega
    delta_t; the diagonal of U rho U^dagger is what dynamics.apply_drive
    gives for the populations diag(rho).
    """
    rho = _check_density_matrix(rho)
    a, b = DRIVEN_PAIR
    theta = drive.Omega * drive.delta_t
    U = np.eye(8, dtype=complex)
    U[a, a] = U[b, b] = math.cos(theta)
    U[a, b] = U[b, a] = 1j * math.sin(theta)
    return U @ rho @ U.conj().T


def evolve_density_matrix(
    params: SystemParams,
    rho0: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Full master-equation trajectory including coherences (oracle path).

    rho0 and the returned states live in the energy eigenbasis.  The
    generator splits into the dissipator plus the Hamiltonian commutator;
    the latter commutes with the secular dissipator, so the stiff unitary
    phases exp(-i (eps_i - eps_j) t) are attached exactly after propagating
    the dissipative part alone.
    """
    rho0 = _check_density_matrix(rho0)
    t_grid = _check_times(t_grid)
    eig = analytic_eigensystem(params)
    traj = _propagate(dissipator_superoperator(params), rho0.reshape(64),
                      t_grid).reshape(-1, 8, 8)
    phase = np.exp(-1j * (eig.eigenvalues[:, None] - eig.eigenvalues[None, :])
                   * (t_grid - t_grid[0])[:, None, None])
    return traj * phase


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
    """Time after which transients have decayed by ~10^-decades."""
    return decades * math.log(10.0) / slowest_relaxation_rate(W)


def heat_currents_trace(params: SystemParams, p: np.ndarray) -> HeatCurrentTriple:
    """Heat currents as Tr(H L_nu[rho]) with rho = diag(p); oracle route.

    Built from the full per-reservoir Lindblad superoperator instead of the
    pairwise transition sum; must match heat_currents to solver precision.
    The residual max|W p| is in units of the largest gamma, as there.
    """
    p = np.asarray(p, dtype=float)
    eig = analytic_eigensystem(params)
    W = rate_matrix(params)
    residual = float(np.max(np.abs(W @ p))) / max(params.gamma_L, params.gamma_M, params.gamma_R)
    rho_vec = np.diag(p).reshape(64)
    drho = [(dissipator_superoperator(params, nu) @ rho_vec).reshape(8, 8) for nu in RESERVOIRS]
    return HeatCurrentTriple(*(float(np.sum(eig.eigenvalues * np.diag(d))) for d in drho),
                             steady_residual=residual)


class SingularDenominatorError(ArithmeticError):
    """Closed-form population denominator vanished."""


# closed-form reduction: active states (0-based) once the dark state 3 is
# frozen and the two highest doublet states 6, 7 are neglected
_ACTIVE = (0, 1, 2, 4, 5)
_BALANCE_ROWS = (0, 1, 2, 4)


def closed_form_populations(params: SystemParams, rho44: float) -> np.ndarray:
    """Closed-form steady populations for fully common coupling.

    Valid only at lambda = (1, 1, 1).  The two highest states are dropped
    (their occupations are negligible in the operating regime) and the five
    remaining active states are solved in closed form: four balance
    equations plus normalisation to 1 - rho44, the bordered 5x5 system
    whose Cramer's-rule solution the closed forms spell out, here taken by
    one LU solve once its determinant D is checked to be nonzero.  Every
    component is proportional to (1 - rho44).
    """
    if not params.fully_common:
        raise ParameterError("closed forms require lambda1 = lambda2 = lambda3 = 1")
    if not (0.0 <= rho44 <= 1.0):
        raise ParameterError("rho44 must lie in [0, 1]")
    M = np.ones((5, 5))
    M[:4] = rate_matrix(params)[np.ix_(_BALANCE_ROWS, _ACTIVE)]
    scale = np.max(np.abs(M[:4]))
    if scale == 0:
        raise SingularDenominatorError("all reduced rates vanish")
    M[:4] /= scale

    D = float(np.linalg.det(M))
    if abs(D) < 1e-14:
        raise SingularDenominatorError(f"closed-form denominator D = {D:.3e}")
    x = np.linalg.solve(M, np.eye(5)[4])

    p = np.zeros(8)
    p[list(_ACTIVE)] = (1.0 - rho44) * x / x.sum()
    p[3] = rho44
    return p


CLOSED_FORM_VALIDITY_TOL = 1e-3


def closed_form_discrepancy(params: SystemParams, rho44: float) -> tuple[float, float]:
    """(max |closed form - full solve|, rho77 + rho88 of the full solve).

    The second number bounds the validity of the closed form; agreement
    claims are only meaningful while it stays small (the reduction neglects
    exactly those two populations).  Outside that regime a warning is
    issued instead of an error: the numbers are still returned, they just
    no longer support an agreement claim.
    """
    approx = closed_form_populations(params, rho44)
    full = steady_state(params, rho44_init=rho44)
    neglected = float(full[6] + full[7])
    if neglected > CLOSED_FORM_VALIDITY_TOL:
        warnings.warn(
            f"closed-form reduction outside its validity regime: "
            f"rho77 + rho88 = {neglected:.3e} exceeds {CLOSED_FORM_VALIDITY_TOL:g}",
            stacklevel=2,
        )
    return float(np.max(np.abs(approx - full))), neglected
