"""Three-qubit transistor Hamiltonian and its exact eigensystem.

Conventions used throughout the package (hbar = k_B = 1, frequencies in
units of omega_0):

* tensor order (L, M, R); basis label |q_L q_M q_R> with |1> the excited
  state, so sigma^z |1> = +|1>; basis index = 4 q_L + 2 q_M + q_R.
* the right qubit frequency is always the sum omega_R = omega_L + omega_M
  (resonance condition); it is derived, never stored.
* eigenstates are indexed 0..7 in the pairing order (R, L, M, 4 | 4, M, L, R),
  i.e. eigenvalues -+sqrt(omega_R^2+g^2), -+sqrt(omega_L^2+g^2),
  -+sqrt(omega_M^2+g^2), -+g.  This coincides with ascending energy order
  whenever omega_L > omega_M (every operating regime in this package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

RESERVOIRS = ("L", "M", "R")


class ParameterError(ValueError):
    """A physical parameter is outside its allowed domain."""


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs of the model.

    lambda1..lambda3 are the dimensionless common-coupling strengths of the
    collective jump operators; lambda = 0 means fully independent
    reservoirs, lambda = 1 completely correlated transitions.
    """

    omega_L: float
    omega_M: float
    g: float
    T_L: float
    T_M: float
    T_R: float
    gamma_L: float
    gamma_M: float
    gamma_R: float
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0

    def __post_init__(self):
        if not (self.omega_L > 0 and self.omega_M > 0):
            raise ParameterError("qubit frequencies must be positive")
        if self.g < 0:
            raise ParameterError("coupling g must be non-negative")
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} = {v} outside [0, 1]")
        for name in ("T_L", "T_M", "T_R"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("gamma_L", "gamma_M", "gamma_R"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")

    @property
    def omega_R(self) -> float:
        return self.omega_L + self.omega_M

    def temperature(self, reservoir: str) -> float:
        return {"L": self.T_L, "M": self.T_M, "R": self.T_R}[reservoir]

    def decay_rate(self, reservoir: str) -> float:
        return {"L": self.gamma_L, "M": self.gamma_M, "R": self.gamma_R}[reservoir]

    @property
    def fully_common(self) -> bool:
        """True when lambda1 = lambda2 = lambda3 = 1 (dark state present)."""
        return self.lambda1 == 1.0 and self.lambda2 == 1.0 and self.lambda3 == 1.0

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


class MixingAngles(NamedTuple):
    beta_R: float
    beta_L: float
    beta_M: float
    beta_4: float


@dataclass(frozen=True)
class EigenSystem:
    """Exact eigensystem of the three-qubit Hamiltonian.

    eigenvalues[i] and eigenvectors[:, i] belong together; columns are
    orthonormal and real.
    """

    eigenvalues: np.ndarray   # shape (8,)
    mixing_angles: MixingAngles
    eigenvectors: np.ndarray  # shape (8, 8), column i = |eps_i>


def basis_index(q_L: int, q_M: int, q_R: int) -> int:
    return 4 * q_L + 2 * q_M + q_R


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """8x8 Hamiltonian (1/2) sum_nu omega_nu sigma_nu^z + g sx sx sx.

    Real symmetric and traceless; the three-body coupling g sits on the
    anti-diagonal (it flips all three qubits).
    """
    omega = (params.omega_L, params.omega_M, params.omega_R)
    H = np.zeros((8, 8))
    for i in range(8):
        bits = ((i >> 2) & 1, (i >> 1) & 1, i & 1)
        H[i, i] = 0.5 * sum(w * (2 * b - 1) for w, b in zip(omega, bits))
        H[i, 7 - i] += params.g
    return H


def closed_forms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and mixing angles of the rows x = (omega_L, omega_M, g, ...).

    Returns the (N, 8) eigenvalues in the pairing order (R, L, M, 4 | 4, M, L, R)
    and the (N, 3) angles (beta_R, beta_L, beta_M).  For each doublet
    w = omega_R, omega_L, omega_M: e = sqrt(w^2 + g^2) and
    sin(beta) = g / sqrt((e + w)^2 + g^2), so beta lies in (0, pi/4] for g > 0
    and is 0 at g = 0 (w > 0).
    """
    w = np.concatenate([x[:, :1] + x[:, 1:2], x[:, :2]], axis=1)
    g = x[:, 2:3]
    gg = g * g
    e = np.sqrt(w * w + gg)
    ew = e + w
    eigenvalues = np.concatenate([-e, -g, g, e[:, ::-1]], axis=1)
    return eigenvalues, np.arcsin(g / np.sqrt(ew * ew + gg))


def mixing_angle(omega_i: float, g: float) -> float:
    """Rotation angle beta_i of one eigenstate doublet (see closed_forms).

    The decoupled limit g = 0 returns 0, except at omega_i = 0 where the
    formula limit pi/4 is kept as the convention for the degenerate central
    doublet.
    """
    if omega_i < 0:
        raise ParameterError("omega_i must be non-negative")
    if g < 0:
        raise ParameterError("g must be non-negative")
    if g == 0.0:
        return 0.25 * math.pi if omega_i == 0.0 else 0.0
    return float(closed_forms(np.array([[omega_i, omega_i, g]]))[1][0, 1])


def _ket(label: str) -> np.ndarray:
    v = np.zeros(8)
    v[basis_index(int(label[0]), int(label[1]), int(label[2]))] = 1.0
    return v


def _row(params: SystemParams) -> np.ndarray:
    return np.array([[params.omega_L, params.omega_M, params.g]])


def analytic_eigenvalues(params: SystemParams) -> np.ndarray:
    """Closed-form eigenvalues in the pairing order (R, L, M, 4 | 4, M, L, R)."""
    return closed_forms(_row(params))[0][0]


def analytic_eigensystem(params: SystemParams) -> EigenSystem:
    """Closed-form eigenvalues, mixing angles and eigenvectors.

    Each eigenvector is a superposition of exactly two computational basis
    states related by flipping all three qubits.
    """
    eigenvalues, beta = closed_forms(_row(params))
    angles = MixingAngles(*beta[0].tolist(), beta_4=mixing_angle(0.0, params.g))
    (cR, cL, cM, c4), (sR, sL, sM, s4) = np.cos(angles), np.sin(angles)

    V = np.column_stack([
        cR * _ket("000") - sR * _ket("111"),
        cL * _ket("010") - sL * _ket("101"),
        sM * _ket("011") - cM * _ket("100"),
        s4 * _ket("001") - c4 * _ket("110"),
        s4 * _ket("110") + c4 * _ket("001"),
        sM * _ket("100") + cM * _ket("011"),
        cL * _ket("101") + sL * _ket("010"),
        cR * _ket("111") + sR * _ket("000"),
    ])
    return EigenSystem(eigenvalues=eigenvalues[0], mixing_angles=angles, eigenvectors=V)


def bohr_frequencies(eigenvalues: np.ndarray) -> np.ndarray:
    """All positive eigenvalue differences, sorted ascending."""
    diffs = eigenvalues[None, :] - eigenvalues[:, None]
    pos = diffs[diffs > 0]
    return np.sort(pos)


def min_distinct_bohr_gap(eigenvalues: np.ndarray, zero_tol: float = 1e-12) -> float:
    """Smallest gap between distinct positive Bohr frequencies.

    Frequencies closer than zero_tol count as one; returns inf when fewer
    than two distinct frequencies exist.
    """
    freqs = bohr_frequencies(eigenvalues)
    if freqs.size == 0:
        return math.inf
    scale = max(freqs[-1], 1.0)
    distinct = [freqs[0]]
    for f in freqs[1:]:
        if f - distinct[-1] > zero_tol * scale:
            distinct.append(f)
    if len(distinct) < 2:
        return math.inf
    d = np.asarray(distinct)
    return float(np.min(np.diff(d)))


@dataclass(frozen=True)
class SecularReport:
    """Advisory check of the regime assumptions behind the master equation."""

    ratio_2g_max_gamma: float
    min_omega_over_g: float
    min_bohr_gap: float
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.warnings


# WARN thresholds are policy choices: the asymptotic requirement is
# 2g >> gamma with omega_nu > g.
SECULAR_RATIO_THRESHOLD = 50.0


def validate_secular(params: SystemParams) -> SecularReport:
    """Report how comfortably the secular / weak-damping regime holds."""
    max_gamma = max(params.gamma_L, params.gamma_M, params.gamma_R)
    min_omega = min(params.omega_L, params.omega_M, params.omega_R)
    ratio = 2.0 * params.g / max_gamma
    omega_over_g = math.inf if params.g == 0 else min_omega / params.g
    gap = min_distinct_bohr_gap(analytic_eigenvalues(params))

    warns = []
    if ratio < SECULAR_RATIO_THRESHOLD:
        warns.append(
            f"2g/max(gamma) = {ratio:.3g} below {SECULAR_RATIO_THRESHOLD:g}; "
            "channel frequencies are not well separated from the decay rates"
        )
    if params.g > 0 and min_omega <= params.g:
        warns.append(
            f"min(omega_nu)/g = {omega_over_g:.3g} <= 1; "
            "qubit splittings do not dominate the internal coupling"
        )
    return SecularReport(
        ratio_2g_max_gamma=ratio,
        min_omega_over_g=omega_over_g,
        min_bohr_gap=gap,
        warnings=tuple(warns),
    )
