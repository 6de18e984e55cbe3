"""Steady-state observables: heat currents, amplification, closed forms.

Sign convention: a positive heat current means energy flowing from the
reservoir into the system, so the three currents sum to zero at steady
state.  Currents carry units of omega_0^2 (the decay rates are
frequencies).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _heat,
    _point_table,
    _solve_point,
    dissipator_superoperator,
    rate_matrix,
    steady_state,
)
from .model import RESERVOIRS, ParameterError, SystemParams, analytic_eigensystem

STEADY_RESIDUAL_TOL = 1e-8


class SingularDenominatorError(ArithmeticError):
    """Closed-form population denominator vanished."""


@dataclass(frozen=True)
class HeatCurrentTriple:
    """Steady heat currents into the system from the three reservoirs.

    steady_residual records max|W p| of the population vector the currents
    were computed from; transient states are allowed (is_steady then flags
    the result) and the currents are still meaningful as instantaneous
    flows.
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
    currents, residual = _heat(_point_table(params), p[None])
    return HeatCurrentTriple(*currents[0].tolist(), steady_residual=float(residual[0]))


def heat_currents_trace(params: SystemParams, p: np.ndarray) -> HeatCurrentTriple:
    """Heat currents as Tr(H L_nu[rho]) with rho = diag(p); oracle route.

    Built from the full per-reservoir Lindblad superoperator instead of the
    pairwise transition sum; must match heat_currents to solver precision.
    """
    p = np.asarray(p, dtype=float)
    eig = analytic_eigensystem(params)
    W = rate_matrix(params)
    residual = float(np.max(np.abs(W @ p)))
    rho_vec = np.diag(p).reshape(64)
    drho = [(dissipator_superoperator(params, nu) @ rho_vec).reshape(8, 8) for nu in RESERVOIRS]
    return HeatCurrentTriple(*(float(np.sum(eig.eigenvalues * np.diag(d))) for d in drho),
                             steady_residual=residual)


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
