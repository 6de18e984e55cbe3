"""Master-equation dynamics: rate equations, steady states, drives.

In the energy eigenbasis the populations close on themselves: they obey a
classical rate equation p' = W p.  One batched kernel, `_solve`, computes
every per-point number of the package from the (N, 12) input rows of N
operating points (the SystemParams fields in order) and dark-state pins;
`solve` is its adapter for a list of SystemParams.  It solves CHUNK points
at a time (N = 1 runs the same code) with the points on the last axis, the
kernel's only layout: (12, n) inputs, the transition table as (24, n)
arrays (a row per channel amplitude, in the order of channels.TRANSITIONS),
W's off-diagonal rates and GTH's factors as (8, 8, n), populations and
their derivatives as (8, n), so each numpy call runs one contiguous loop
over the points.  Each point's rates are taken in units of 2^e, e the
exponent of its largest gamma, so no rate underflows for being small in
absolute terms.  One GTH state reduction gives every steady state,
dark-pinned ones included, and its factors also give the steady-state
derivatives behind the amplification factors; currents and the residual
max|W p| come from the table's rows.  Nothing in it loops over points or
channels, and a failed point goes through the same pass: its result rows
are NaN.  Every sum that feeds p, Q, alpha or the residual has an order
the code states, none BLAS's: 8 terms add by `_tree`, fewer from the first
to the last, as np.add.reduce adds them at every N (8 terms it would add
pairwise at N = 1 only).
rate_matrix, steady_state and (in observables) heat_currents and
amplification_factor are its N = 1 calls.  The table reads its rows from
channels.transition_rows, as channels_analytic does, and its Bose
occupations from _nbar, which bose_occupation calls on one value, so one
point's table equals their numbers bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ROW_I, ROW_J, ROW_RESERVOIR, transition_rows
from .model import RESERVOIRS, ParameterError, SystemParams, input_rows

# 0-based index of the eigenstate that decouples at lambda = (1, 1, 1)
DARK_STATE = 3
# the eigenstates a DriveSpec rotates: the dark state and the top state 7
DRIVEN_PAIR = (DARK_STATE, 7)


class SteadyStateError(ValueError):
    """Steady-state problem is mis-specified for the given parameters."""


class UnderdeterminedError(SteadyStateError):
    """Rate matrix has a multi-dimensional kernel and no rho44_init given."""


class OverdeterminedError(SteadyStateError):
    """rho44_init supplied although the steady state is unique."""


class DegenerateControlError(ArithmeticError):
    """The control current does not respond to the control temperature."""


def _nbar(z: np.ndarray) -> np.ndarray:
    """Bose occupation 1 / (exp(z) - 1) of z = omega / T, elementwise.

    Evaluated as exp(-z)/(-expm1(-z)), which neither overflows for z >> 1
    (hard underflow to 0 is accepted, and z = inf gives 0) nor cancels for
    z << 1.
    """
    minus_z = -z
    return np.exp(minus_z) / -np.expm1(minus_z)


_NBAR_UNDEFINED = "bose_occupation requires omega > 0"


def bose_occupation(omega: float, T: float) -> float:
    """Mean photon number 1 / (exp(omega/T) - 1), by _nbar."""
    if not omega > 0:  # also rejects nan
        raise ParameterError(_NBAR_UNDEFINED)
    if not 0 < T < math.inf:
        raise ParameterError("bose_occupation requires a finite T > 0")
    return float(_nbar(np.array([omega / T]))[0])


# flat indices into a row-major 8x8 W: transfer j -> i sits at W[i, j] and
# i -> j at W[j, i]; the 24 pairs are distinct, so each entry is set once
_DOWN = ROW_I * 8 + ROW_J
_UP = ROW_J * 8 + ROW_I
# the (8, 6) rows each state takes part in, in row order, and their signs:
# row r takes its flow out of state ROW_I[r] (-1) into state ROW_J[r] (+1)
_TOUCH = np.array([np.flatnonzero((ROW_I == k) | (ROW_J == k)) for k in range(8)])
_TOUCH_SIGN = np.where(ROW_J[_TOUCH] == np.arange(8)[:, None], 1.0, -1.0)[:, :, None]
# the input row of each table row's reservoir temperature
_T_COLUMN = 3 + ROW_RESERVOIR
# points per chunk of `_solve`: an (8, 8, n) array of a chunk is 256 kB, so
# its stages run in cache and peak memory stays flat in N
CHUNK = 512


def _dark(x: np.ndarray) -> np.ndarray:
    """Which of the (12, N) input columns x have fully common coupling, lambda = (1, 1, 1)."""
    return (x[9:] == 1.0).all(axis=0)


def _pins(rho44_init: Sequence[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """Kernel form of per-point pins: which points are pinned, and rho44 (0 where not)."""
    pinned = np.array([r is not None for r in rho44_init], dtype=bool)
    return pinned, np.array([0.0 if r is None else r for r in rho44_init], dtype=float)


class _Table(NamedTuple):
    """Transition table of N points: (24, N) arrays, row r as channels.TRANSITIONS[r].

    `_solve` builds one per chunk, so there N <= CHUNK.
    omega is the Bohr frequency eps_j - eps_i of row (i, j), rate = gamma a^2
    in units of 2^scale, T and nbar the temperature and Bose occupation of
    the row's reservoir at omega (nbar 0 on rows with a = 0, and where it is
    undefined).  down = rate (nbar + 1) and up = rate nbar are the transfer
    rates j -> i and i -> j in those units.  scale (N,) is the np.frexp
    exponent of the point's largest gamma, and unit its largest gamma in
    units of 2^scale, in [0.5, 1): rates, p and alpha do not change when
    every gamma is multiplied by a power of two.
    """

    omega: np.ndarray
    rate: np.ndarray
    T: np.ndarray
    nbar: np.ndarray
    down: np.ndarray
    up: np.ndarray
    unit: np.ndarray
    scale: np.ndarray


def _table(x: np.ndarray) -> tuple[_Table, np.ndarray]:
    """Transition table of the (12, N) input columns x, and where it is undefined.

    `_solve` passes one chunk, N <= CHUNK, as a C-ordered copy.
    The rows come from channels.transition_rows and the occupations from
    _nbar, which bose_occupation calls on one value.  The second result
    flags the points with a row of nonzero amplitude at omega <= 0, where
    nbar does not exist (bose_occupation raises there); temperatures are
    positive by SystemParams' own checks.  The gammas are divided by
    2^scale exactly, unless two of a point's gammas lie more than ~1e308
    apart, where the smaller one would underflow.
    """
    omega, a = transition_rows(x)
    T = x[_T_COLUMN]
    unit, scale = np.frexp(x[6:9].max(axis=0))  # rows gamma_L, gamma_M, gamma_R
    rate = np.ldexp(x[6:9], -scale)[ROW_RESERVOIR] * a * a
    coupled = a != 0.0
    defined = coupled & (omega > 0.0)
    z = np.full(omega.shape, np.inf)
    np.divide(omega, T, out=z, where=defined)
    nbar = _nbar(z)
    return (_Table(omega, rate, T, nbar, rate * (nbar + 1.0), rate * nbar, unit, scale),
            (coupled & ~defined).any(axis=0))


@functools.lru_cache(maxsize=1)
def _cached_table(params: SystemParams) -> tuple[_Table, np.ndarray]:
    """`_table` of one point, read-only, kept for the next call with equal params.

    Only single points are asked for twice in a row (steady_state, then
    heat_currents), so one entry serves; a table depends on nothing but the
    values of params, so a hit returns exactly what a rebuild would.
    """
    result = _table(input_rows([params]).T)
    for array in (*result[0], result[1]):
        array.flags.writeable = False
    return result


def _point_table(params: SystemParams) -> _Table:
    """The N = 1 table of one point; raises where nbar is undefined."""
    t, undefined = _cached_table(params)
    if undefined[0]:
        raise ParameterError(_NBAR_UNDEFINED)
    return t


def _rates(down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """(8, 8, N) off-diagonal generator rates W[i, j, n]: transfer j -> i at down, i -> j at up.

    down and up are (24, N) table rows, N <= CHUNK in `_solve`.
    """
    W = np.zeros((64, down.shape[1]))
    W[_DOWN] = down
    W[_UP] = up
    return W.reshape(8, 8, -1)


def _flow(down: np.ndarray, up: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(24, N) net population flow i -> j along each row for populations p (8, N)."""
    return up * p[ROW_I] - down * p[ROW_J]


def _row_heat(t: _Table, flow: np.ndarray) -> np.ndarray:
    """(3, 8, N) heat omega * flow each row delivers, grouped by reservoir.

    channels.TRANSITIONS lists the 8 rows of L, then of M, then of R.
    """
    return (t.omega * flow).reshape(3, 8, -1)


def _tree(h: np.ndarray) -> np.ndarray:
    """(m, N) sums of (m, 8, N) terms h0..h7, as ((h0+h1)+(h2+h3))+((h4+h5)+(h6+h7))."""
    h = h[:, 0::2] + h[:, 1::2]
    h = h[:, 0::2] + h[:, 1::2]
    return h[:, 0] + h[:, 1]


def _currents(t: _Table, flow: np.ndarray) -> np.ndarray:
    """(3, N) heat currents (Q_L, Q_M, Q_R): the row heats summed per reservoir by `_tree`."""
    return _tree(_row_heat(t, flow))


def _rate_of_change(flow: np.ndarray) -> np.ndarray:
    """(8, N) W p from the (24, N) row flows: each flows out of state i into state j.

    State k adds the signed flows of its 6 rows `_TOUCH[k]` from the first
    row to the last.
    """
    return np.add.reduce(flow[_TOUCH] * _TOUCH_SIGN, axis=1)


def _heat(t: _Table, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) heat currents of populations p (8, N) on table t, and (N,) their max|W p|.

    The currents are scaled back to the true rates, the residual is in
    units of the point's largest gamma.
    """
    flow = _flow(t.down, t.up, p)
    residual = np.abs(_rate_of_change(flow)).max(axis=0) / t.unit
    return np.ldexp(_currents(t, flow), t.scale), residual


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
    W = np.ldexp(_rates(t.down, t.up).reshape(8, 8), t.scale)
    W.flat[::9] -= W.sum(axis=0)  # the diagonal
    return W


# index tuples built once: slicing inline cost ~5 us per N = 1 steady state and
# ~13 us per alpha solve on a 2-vCPU host.  Step k = 1 .. 7 of GTH and of the
# substitutions: k, A[k, :k], A[:k, k], A[k, k] and A[:k, :k] (None at k = 1:
# below state 1 only the unread A[0, 0] is left) of (8, 8, N) factors
_STEPS = [(k, np.s_[k, :k], np.s_[:k, k], np.s_[k, k], np.s_[:k, :k] if k > 1 else None)
          for k in range(1, 8)]


def _gth(A: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Stationary vectors of the (8, 8, N) off-diagonal rates A[i, j, n] (j -> i), N <= CHUNK.

    Grassmann-Taksar-Heyman state reduction: states are censored from the
    top down, their flows folded into the rates among the states below, and
    the populations follow by back substitution from p_0 = 1.  Only
    non-negative numbers are added, multiplied and divided, so no component
    can come out negative and each has a small relative error (O'Cinneide
    1993).  A's own diagonal is ignored; A is reduced in place to the factors
    `_derivative` reuses.  Below the diagonal, row k ends as the rates into
    state k once the states above it are censored; A[k, k] as its outflow
    out_k to the states below, added from state 0 up; above the diagonal,
    column k as the fractions (non-negative, summing to 1) in which out_k
    returns to them.  Returns the (8, N) stationary vectors, divided by
    their `_tree` sums, and per point the highest state without outflow to
    those below it, or -1 (None if no point has one): that point's p is
    meaningless.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, row, column, diagonal, block in reversed(_STEPS):
            column, out = A[column], A[diagonal]
            np.add.reduce(column, axis=0, out=out)
            np.divide(column, out, out=column)
            if block is not None:
                block = A[block]
                np.add(block, column[:, None] * A[row], out=block)
        p = _back_substitute(A, 1.0)
    outflow = A.reshape(64, -1)[9::9]  # A[k, k], k = 1 .. 7
    stuck = None
    if np.count_nonzero(outflow) < outflow.size:
        dead = outflow == 0.0
        stuck = np.where(dead.any(axis=0), 7 - np.argmax(dead[::-1], axis=0), -1)
    return p / _tree(p[None])[0], stuck


def _back_substitute(A: np.ndarray, first: float, b: np.ndarray | None = None) -> np.ndarray:
    """(8, N) x: x_0 = first, x_k = (A[k, :k] x[:k] - b_k) / A[k, k], k = 1 .. 7; no b is b = 0.

    A holds `_gth`'s (8, 8, N) factors, b is (8, N); each dot adds from j = 0 up.
    """
    x = np.empty(A.shape[1:])
    x[0] = first
    for k, row, _, diagonal, _ in _STEPS:
        s = np.add.reduce(A[row] * x[:k], axis=0)
        if b is not None:
            s -= b[k]
        np.divide(s, A[diagonal], out=x[k])
    return x


def _derivative(A: np.ndarray, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(8, N) solutions p' of W p' = b with sum(p') = 0 from `_gth`'s factors of W.

    A holds `_gth`'s (8, 8, N) factors of N <= CHUNK points and p the
    (8, N) stationary vectors; b (8, N) must sum to zero, as -dW p does,
    and is overwritten.  The censoring that reduced W is applied to b: for
    k = 7 .. 2, b_k goes to the states below in the fractions of column k.
    These are non-negative and sum to 1, so ||b||_1 cannot grow; as b has
    mixed signs, GTH's subtraction-free argument does not carry over, but
    each step adds at most a rounding error of that norm.  Back substitution
    from x_0 = 0 (b_0 is left unread) gives a solution x, and
    p' = x - sum(x) p with sum(x) by `_tree`.  A drained dark state (see
    `_steady`) has b_3 = 0 and no rate into it, so its p'_3 is exactly 0.
    """
    for k, _, column, _, _ in reversed(_STEPS[1:]):
        b[:k] += A[column] * b[k]
    x = _back_substitute(A, 0.0, b)
    return x - _tree(x[None])[0] * p


class _Failures:
    """Typed domain errors of the points of a batch; a point keeps its first."""

    def __init__(self, n_points: int):
        self.errors: list[Exception | None] = [None] * n_points
        self.ok = np.ones(n_points, dtype=bool)

    def record(self, mask: np.ndarray, error: type[Exception], message: str) -> None:
        if np.count_nonzero(mask):
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
    """The first stage of `solve` on a chunk of N <= CHUNK points; point n is column n."""

    populations: np.ndarray  # (8, N)
    failures: _Failures
    factors: np.ndarray      # (8, 8, N) `_gth`'s factors of the generators
    stationary: np.ndarray   # (8, N) `_gth`'s stationary vectors, before any dark pin


def _steady(t: _Table, undefined: np.ndarray, dark: np.ndarray, pinned: np.ndarray,
            rho44: np.ndarray) -> _Steady:
    """Steady states of N points by one GTH pass, from `_table`'s results t and undefined.

    dark[n] says whether point n has fully common coupling, pinned[n]
    whether it has a dark-state pin and rho44[n] its value (0 where none).
    A dark state is solved only where it is pinned; it has no rates and is
    drained 3 -> 0 at unit rate, as steady_state describes (its rate there
    is exactly 0.0, so adding dark sets it to 1.0 and adds +0.0 elsewhere).
    Every point goes through `_gth`, failed ones included, so point n keeps
    its place in every array; each point's arithmetic is its own.  One count
    finds any missing, superfluous or out-of-range pin and any undefined
    nbar; only then, or where a state has no outflow, are the errors
    recorded, in that order, and a failed point's column set to NaN.  The
    pins are restored on whole arrays, a NaN column staying NaN; where no
    point is pinned, `_gth`'s results are the populations: the pins would
    scale them by 1 - 0 and add 0, which changes no bit.
    """
    failures = _Failures(len(dark))
    W = _rates(t.down, t.up)
    pins = np.count_nonzero(pinned)
    invalid = dark != pinned  # a pin missing or superfluous
    if pins:  # rho44 is 0 where no pin is set
        out_of_range = ~((rho44 >= 0.0) & (rho44 <= 1.0))
        invalid |= out_of_range
        W[0, DARK_STATE] += dark
    q, stuck = _gth(W)
    if np.count_nonzero(invalid | undefined) or stuck is not None:
        failures.record(dark & ~pinned, UnderdeterminedError,
                        "fully common coupling leaves the dark-state population free; "
                        "supply rho44_init")
        failures.record(pinned & ~dark, OverdeterminedError,
                        "steady state is unique; rho44_init must not be supplied")
        if pins:
            failures.record(pinned & out_of_range, ParameterError,
                            "rho44_init must lie in [0, 1]")
        failures.record(undefined, ParameterError, _NBAR_UNDEFINED)
        if stuck is not None:
            for k in np.unique(stuck[stuck >= 0]):
                failures.record(stuck == k, SteadyStateError,
                                f"state {k} has no outflow to the states below it")
        q = np.where(failures.ok, q, np.nan)
    p = q
    if pins:
        p = q * (1.0 - rho44)
        p[DARK_STATE] += rho44
    return _Steady(p, failures, W, q)


class Solution(NamedTuple):
    """Results of one `solve` call; row n belongs to the n-th operating point.

    populations: (N, 8) steady populations, NaN rows where the steady state
    failed.  currents: (N, 3) heat currents (Q_L, Q_M, Q_R) of those
    populations, and residual: (N,) their max|W p| in units of the point's
    largest gamma, so one threshold means the same at every rate scale
    (about 1e-16 at a steady state, of order 1 far from it).  alpha: (N, 2)
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
    steady-state derivative p' solves W p' = -(dW/dT) p with sum(p') = 0
    on the factors of the GTH reduction that gave p (`_derivative`); a
    drained dark state (see `_steady`) gets p'_3 = 0.  Each dQ_nu/dT sums
    the row heats of p' and of dW/dT.  As dQ_L + dQ_M + dQ_R = 0, one whose
    terms outweigh those of the other two together in absolute sum is taken
    as minus their sum: the route with the least cancellation, so a cold
    point's dQ_M is not left as the tiny difference of large row heats.

    A point that fails records its typed error, in the order the checks
    run: UnderdeterminedError or OverdeterminedError for a missing or
    superfluous pin, ParameterError for a pin outside [0, 1] or an
    undefined nbar, SteadyStateError for a state without outflow,
    DegenerateControlError where dQ_M/dT == 0.  The other points are solved
    as if it were absent.  Only an unknown control terminal raises.
    """
    if rho44_init is None:
        rho44_init = [None] * len(params)
    if len(rho44_init) != len(params):
        raise ValueError("rho44_init needs one entry (a pin or None) per parameter set")
    return _solve(input_rows(params), *_pins(rho44_init), control)


def _response(t: _Table, steady: _Steady, control: str) -> np.ndarray:
    """(6, 8, N) row heats of dQ/dT_control per reservoir, then their sizes.

    Row r's heat is hp + hw, the heats it delivers for p' and for dW/dT, and
    its size |hp| + |hw|: `_tree` over them adds a reservoir's 16 heats as
    numpy's pairwise sum of its 8 hp followed by its 8 hw would.
    """
    on = (ROW_RESERVOIR == RESERVOIRS.index(control))[:, None]
    d_rate = np.where(on, t.rate * t.nbar * (t.nbar + 1.0) * t.omega / (t.T * t.T), 0.0)
    d_flow = _flow(d_rate, d_rate, steady.populations)
    dp = _derivative(steady.factors, steady.stationary, -_rate_of_change(d_flow))
    hp, hw = _row_heat(t, _flow(t.down, t.up, dp)), _row_heat(t, d_flow)
    terms = np.empty((6, 8, dp.shape[1]))
    np.add(hp, hw, out=terms[:3])
    np.add(np.abs(hp, out=hp), np.abs(hw, out=hw), out=terms[3:])
    return terms


def _solve(
    x: np.ndarray,
    pinned: np.ndarray,
    rho44: np.ndarray,
    control: str | None = None,
) -> Solution:
    """`solve` on (N, 12) input rows x, columns in model.FIELD_NAMES order.

    The rows must lie in the SystemParams domain (see model.check_rows);
    pinned and rho44 are the pins in the form `_steady` takes them.  The
    points are solved CHUNK at a time, each chunk's rows taken as (12, n)
    columns, and its results written into the (N, ...) arrays: beyond
    those, memory holds one chunk's arrays whatever N is.
    """
    if control is not None and control not in RESERVOIRS:
        raise ParameterError("control terminal must be one of 'L', 'M', 'R'")
    n_points = len(x)
    sol = Solution(np.empty((n_points, 8)), np.empty((n_points, 3)), np.empty(n_points),
                   np.full((n_points, 2), np.nan), [None] * n_points)
    for start in range(0, n_points, CHUNK):
        chunk = slice(start, start + CHUNK)
        sol.errors[chunk] = _solve_chunk(x[chunk], pinned[chunk], rho44[chunk], control,
                                         [result[chunk] for result in sol[:4]])
    return sol


def _solve_chunk(x: np.ndarray, pinned: np.ndarray, rho44: np.ndarray, control: str | None,
                 out: list[np.ndarray]) -> list[Exception | None]:
    """`_solve` on at most CHUNK rows x; returns their errors.

    out holds views of `_solve`'s populations, currents, residual and alpha
    for these rows.  The chunk's own arrays are freed on return, before the
    next chunk is built.
    """
    populations, currents, residual, alpha = out
    columns = np.ascontiguousarray(x.T)
    t, undefined = _table(columns)
    steady = _steady(t, undefined, _dark(columns), pinned, rho44)
    p, failures = steady.populations, steady.failures
    q, residual[...] = _heat(t, p)
    populations[...], currents[...] = p.T, q.T
    if control is not None:
        terms = _tree(_response(t, steady, control))
        dQ, size = terms[:3], terms[3:]
        others, others_size = (v[[2, 0, 1]] + v[[1, 2, 0]] for v in (dQ, size))
        dQ = np.where(size > others_size, -others, dQ)
        failures.record(dQ[1] == 0.0, DegenerateControlError,
                        f"dQ_M/dT_{control} vanishes at this operating point")
        ok = failures.ok
        alpha[ok] = (dQ[::2, ok] / dQ[1, ok]).T
    return failures.errors


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
    steady = _steady(*_cached_table(params), np.array([params.fully_common]),
                     *_pins([rho44_init]))
    _raise_first(steady.failures.errors)
    return steady.populations[:, 0]


def _check_populations(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (8,):
        raise ParameterError("population vector must have 8 components")
    if not (p.min() >= -1e-10 and abs(p.sum() - 1.0) <= 1e-8):
        raise ParameterError("population vector must be non-negative and sum to 1")
    return p


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


@dataclass(frozen=True)
class DriveSpec:
    """Resonant two-level drive between the eigenstates of DRIVEN_PAIR.

    Omega is the driving strength, delta_t the pulse duration; the drive is
    treated as instantaneous on dissipative timescales and therefore as a
    pure Rabi rotation of the driven pair.
    """

    Omega: float
    delta_t: float

    def __post_init__(self):
        # each chained comparison is False for nan, so it also rejects nan
        if not 0 < self.Omega < math.inf:
            raise ParameterError(f"driving strength Omega = {self.Omega} "
                                 "must be positive and finite")
        if not 0 <= self.delta_t < math.inf:
            raise ParameterError(f"drive duration delta_t = {self.delta_t} "
                                 "must be non-negative and finite")


def drive_unitary(drive: DriveSpec) -> np.ndarray:
    """8x8 unitary exp(i Omega delta_t (|a><b| + |b><a|)) on the driven pair."""
    a, b = DRIVEN_PAIR
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
    a, b = DRIVEN_PAIR
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
