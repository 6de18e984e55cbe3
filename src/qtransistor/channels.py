"""Collective jump operators and their Bohr-frequency decomposition.

Each reservoir nu couples through one collective operator S_nu combining a
single-qubit lowering with a lambda-weighted two-qubit transition.  In the
energy eigenbasis S_nu splits into channels S_{nu,k}, one per positive Bohr
frequency, each holding at most two transition amplitudes.  Two
constructions are provided: closed-form coefficients (channels_analytic)
and a generic numerical regrouping (decompose_numeric); they must agree
entrywise.

Note the eigenbasis transform of S_nu also contains small raising entries
at negative Bohr frequencies (counter-rotating admixtures of order
sin(beta)).  The master equation never uses them: under the rotating-wave
system-bath coupling the bath spectral function has no weight at negative
frequencies.  Channels therefore reconstruct exactly the positive-frequency
(lowering) part of S_nu, not the full operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    RESERVOIRS,
    EigenSystem,
    SystemParams,
    analytic_eigensystem,
    min_distinct_bohr_gap,
)

# matrix elements smaller than this count as zero (double-precision noise
# in the analytic coefficients)
AMPLITUDE_TOL = 1e-12

# default Bohr-frequency grouping tolerance, in units of omega_0
FREQUENCY_TOL = 1e-9


class FrequencyAmbiguityError(ValueError):
    """Grouping tolerance cannot separate distinct Bohr frequencies."""


@dataclass(frozen=True)
class DissipationChannel:
    """One (reservoir, k) dissipation channel.

    amplitudes holds (i, j, a) with 0-based eigenstate indices, eps_i < eps_j
    and a = <eps_i|S_nu|eps_j>; operator is the same data as an 8x8 matrix in
    the energy eigenbasis.
    """

    reservoir: str
    index: int
    frequency: float
    operator: np.ndarray
    amplitudes: tuple[tuple[int, int, float], ...]


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


def _channel(reservoir, index, eigenvalues, entries) -> DissipationChannel:
    kept = tuple((i, j, a) for (i, j, a) in entries if abs(a) > AMPLITUDE_TOL)
    op = np.zeros((8, 8))
    freq = 0.0
    for i, j, a in kept:
        op[i, j] = a
        freq = eigenvalues[j] - eigenvalues[i]
    if not kept:
        # empty channel (possible only at g = 0); keep the nominal frequency
        i, j, _ = entries[0]
        freq = eigenvalues[j] - eigenvalues[i]
    return DissipationChannel(
        reservoir=reservoir, index=index, frequency=float(freq),
        operator=op, amplitudes=kept,
    )


# One row per channel amplitude a = <eps_i|S_nu|eps_j>, two rows per channel
# in channel order L1..L4, M1..M4, R1..R4: (i, j, reservoir, sign, x, y,
# over_rt2) with a = sign * x * y, divided by sqrt(2) where over_rt2 is set.
# x and y name columns of the factor table built by transition_amplitudes.
# The pairs involving the central doublet carry (1 +- lambda)/sqrt(2)
# weights, which is why state 3 (0-based) decouples completely at lambda = 1.
FACTORS = ("cR", "cL", "cM", "sM", "sL", "1-l1", "1-l2", "1-l3", "1+l1", "1+l2", "1+l3")
TRANSITIONS = (
    (0, 2, "L", -1, "cR", "cM", False), (5, 7, "L", 1, "cR", "cM", False),
    (0, 5, "L", 1, "cR", "sM", False), (2, 7, "L", 1, "cR", "sM", False),
    (1, 3, "L", -1, "cL", "1-l1", True), (4, 6, "L", 1, "cL", "1+l1", True),
    (1, 4, "L", 1, "cL", "1+l1", True), (3, 6, "L", 1, "cL", "1-l1", True),
    (2, 3, "M", 1, "cM", "1-l2", True), (4, 5, "M", 1, "cM", "1+l2", True),
    (2, 4, "M", -1, "cM", "1+l2", True), (3, 5, "M", 1, "cM", "1-l2", True),
    (0, 1, "M", 1, "cR", "cL", False), (6, 7, "M", 1, "cR", "cL", False),
    (0, 6, "M", 1, "cR", "sL", False), (1, 7, "M", -1, "cR", "sL", False),
    (0, 3, "R", 1, "cR", "1-l3", True), (4, 7, "R", 1, "cR", "1+l3", True),
    (0, 4, "R", 1, "cR", "1+l3", True), (3, 7, "R", -1, "cR", "1-l3", True),
    (1, 2, "R", 1, "cL", "sM", False), (5, 6, "R", 1, "cL", "sM", False),
    (1, 5, "R", 1, "cL", "cM", False), (2, 6, "R", -1, "cL", "cM", False),
)
# the table as index arrays: row r moves population between states
# ROW_I[r] < ROW_J[r] through reservoir RESERVOIRS[ROW_RESERVOIR[r]]
ROW_I, ROW_J, ROW_RESERVOIR = (np.array(column) for column in zip(*(
    (i, j, RESERVOIRS.index(nu)) for i, j, nu, *_ in TRANSITIONS)))
_SIGN = np.array([float(row[3]) for row in TRANSITIONS])
_X = np.array([FACTORS.index(row[4]) for row in TRANSITIONS])
_Y = np.array([FACTORS.index(row[5]) for row in TRANSITIONS])
_DIVISOR = np.array([math.sqrt(2.0) if row[6] else 1.0 for row in TRANSITIONS])


def transition_amplitudes(cos: np.ndarray, sin: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """(N, 24) channel amplitudes in TRANSITIONS row order.

    cos and sin are (N, 3) cosines and sines of the mixing angles
    (beta_R, beta_L, beta_M), lambdas the (N, 3) common-coupling strengths.
    """
    F = np.concatenate([cos, sin[:, 2:0:-1], 1.0 - lambdas, 1.0 + lambdas], axis=1)
    return _SIGN * (F[:, _X] * F[:, _Y]) / _DIVISOR


def channels_analytic(params: SystemParams, eig: EigenSystem | None = None) -> list[DissipationChannel]:
    """All 12 channels with closed-form amplitudes (the TRANSITIONS table).

    Transition pairs are fixed by the doublet structure; amplitudes combine
    cos(beta) factors with the common-coupling strengths.
    """
    if eig is None:
        eig = analytic_eigensystem(params)
    beta = np.array([eig.mixing_angles[:3]])
    a = transition_amplitudes(
        np.cos(beta), np.sin(beta), np.array([[params.lambda1, params.lambda2, params.lambda3]]),
    )[0].tolist()
    rows = [(i, j, a[r]) for r, (i, j, *_) in enumerate(TRANSITIONS)]
    return [
        _channel(TRANSITIONS[2 * c][2], c % 4 + 1, eig.eigenvalues, rows[2 * c:2 * c + 2])
        for c in range(12)
    ]


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
    Se = eig.eigenvectors.T @ S @ eig.eigenvectors
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


def channel_table(channels: list[DissipationChannel]) -> list[tuple]:
    """Flat rows (reservoir, k, frequency, i, j, amplitude), 1-based states."""
    rows = []
    for ch in channels:
        for i, j, a in ch.amplitudes:
            rows.append((ch.reservoir, ch.index, ch.frequency, i + 1, j + 1, a))
    return rows
