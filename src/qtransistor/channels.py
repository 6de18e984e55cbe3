"""Collective dissipation channels from the 24 transition rows.

Each reservoir nu couples through one collective operator S_nu combining a
single-qubit lowering with a lambda-weighted two-qubit transition.  In the
energy eigenbasis the lowering part of S_nu splits into channels S_{nu,k},
one per positive Bohr frequency, each holding at most two transition
amplitudes.  Their closed forms are stated once, as the 24 rows of
TRANSITIONS evaluated by transition_rows: the kernel table of dynamics and
the channels-dump command read the rows as they are, and channels_analytic
groups them into DissipationChannel objects for the references in oracles
and the tests; a row carries a rate exactly where its amplitude is
nonzero, with no cut-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RESERVOIRS, SystemParams, closed_forms, input_rows


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
_SIGN = np.array([[float(row[3])] for row in TRANSITIONS])
_X = np.array([FACTORS.index(row[4]) for row in TRANSITIONS])
_Y = np.array([FACTORS.index(row[5]) for row in TRANSITIONS])
_DIVISOR = np.array([[math.sqrt(2.0) if row[6] else 1.0] for row in TRANSITIONS])


def transition_amplitudes(cos: np.ndarray, sin: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """(24, N) channel amplitudes in TRANSITIONS row order, points on the last axis.

    cos and sin are (3, N) cosines and sines of the mixing angles
    (beta_R, beta_L, beta_M), lambdas the (3, N) common-coupling strengths;
    dynamics._solve passes at most dynamics.CHUNK points.
    """
    F = np.concatenate([cos, sin[2:0:-1], 1.0 - lambdas, 1.0 + lambdas])
    return _SIGN * (F[_X] * F[_Y]) / _DIVISOR


def transition_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(24, N) arrays omega and a of N points, rows in TRANSITIONS order.

    x holds the points' input rows as columns, (12, N) with rows in
    model.FIELD_NAMES order; row r of a result is TRANSITIONS[r] for every
    point (dynamics._solve passes at most dynamics.CHUNK points).  omega
    is the Bohr frequency eps_j - eps_i of row (i, j) from
    model.closed_forms, a the amplitude <eps_i|S_nu|eps_j> from its
    cosines and sines of the mixing angles; a row carries a rate exactly
    where a != 0.  The two rows of a channel share omega bit for bit (the
    same sum or difference of two eigenvalue magnitudes).
    """
    eps, cos, sin = closed_forms(x)
    a = transition_amplitudes(cos, sin, x[9:12])
    return eps[ROW_J] - eps[ROW_I], a


def channels_analytic(params: SystemParams) -> list[DissipationChannel]:
    """All 12 channels of one point, from its transition rows.

    Channel c holds rows 2c and 2c + 1; its frequency is their shared
    omega, and only rows with a nonzero amplitude enter its amplitudes and
    operator, so a channel can be empty (possible only at g = 0).
    """
    omega, a = (column[:, 0].tolist() for column in
                transition_rows(input_rows([params]).T))
    channels = []
    for c in range(12):
        amplitudes = tuple((*TRANSITIONS[r][:2], a[r]) for r in (2 * c, 2 * c + 1) if a[r])
        op = np.zeros((8, 8))
        for i, j, amplitude in amplitudes:
            op[i, j] = amplitude
        channels.append(DissipationChannel(TRANSITIONS[2 * c][2], c % 4 + 1, omega[2 * c],
                                           op, amplitudes))
    return channels
