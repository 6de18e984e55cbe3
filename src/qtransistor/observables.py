"""Steady-state observables: heat currents and amplification.

Sign convention: a positive heat current means energy flowing from the
reservoir into the system, so the three currents sum to zero at steady
state.  Currents carry units of omega_0^2 (the decay rates are
frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _heat, _point_table, _solve_point
from .model import ParameterError, SystemParams

STEADY_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class HeatCurrentTriple:
    """Steady heat currents into the system from the three reservoirs.

    steady_residual records max|W p| of the population vector the currents
    were computed from, in units of the point's largest gamma, so that
    STEADY_RESIDUAL_TOL means the same at every rate scale; transient
    states are allowed (is_steady then flags the result) and the currents
    are still meaningful as instantaneous flows.
    """

    Q_L: float
    Q_M: float
    Q_R: float
    steady_residual: float = 0.0

    @property
    def total(self) -> float:
        return self.Q_L + self.Q_M + self.Q_R

    @property
    def is_steady(self) -> bool:
        return self.steady_residual < STEADY_RESIDUAL_TOL

    def as_array(self) -> np.ndarray:
        return np.array([self.Q_L, self.Q_M, self.Q_R])


@dataclass(frozen=True)
class AmplificationResult:
    """Amplification factors at one operating point.

    alpha_L = dQ_L/dQ_M and alpha_R = dQ_R/dQ_M under a variation of the
    control temperature, from the linear response of the steady state.
    """

    alpha_L: float
    alpha_R: float
    control: str


def heat_currents(params: SystemParams, p: np.ndarray) -> HeatCurrentTriple:
    """Transition-sum heat currents for populations p.

    Per channel pair (i, j) at Bohr frequency w the reservoir delivers
    w * (upward flux - downward flux); summing a reservoir's eight pairs
    gives its current.  p holds the 8 populations, as an array or a
    sequence; the table steady_state built for the same params is reused.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (8,):
        raise ParameterError("population vector must have 8 components")
    currents, residual = _heat(_point_table(params), p[:, None])
    return HeatCurrentTriple(*currents[:, 0].tolist(), steady_residual=float(residual[0]))


def amplification_factor(
    params: SystemParams,
    control: str = "M",
    rho44_init: float | None = None,
) -> AmplificationResult:
    """Amplification factors for one control terminal by linear response.

    alpha_{L,R} = (dQ_{L,R}/dT) / (dQ_M/dT) with T = T_control, the
    steady-state derivative taken on the factors of the GTH reduction that
    gave the steady state (see dynamics.solve).  rho44_init pins the
    dark-state population when fully common coupling makes it free.
    """
    alpha_L, alpha_R = _solve_point(params, rho44_init, control).alpha[0]
    return AmplificationResult(float(alpha_L), float(alpha_R), control)
