import ast
import dataclasses
import inspect
import math
import os
import subprocess
import sys
import traceback
import tracemalloc
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransistor import (
    DegenerateControlError,
    DriveSpec,
    OverdeterminedError,
    ParameterError,
    SteadyStateError,
    SystemParams,
    UnderdeterminedError,
    analytic_eigensystem,
    apply_drive,
    bose_occupation,
    mixing_angle,
    rate_matrix,
    steady_state,
)
import qtransistor
from qtransistor import dynamics, heat_currents
from qtransistor.channels import ROW_I, ROW_J, ROW_RESERVOIR, channels_analytic
from qtransistor.dynamics import solve
from qtransistor.experiments import run_modulation
from qtransistor.model import input_rows
from qtransistor.oracles import (
    _propagate,
    dissipator_superoperator,
    drive_density_matrix,
    evolve_density_matrix,
    evolve_populations,
    jump_operators,
    relaxation_horizon,
    slowest_relaxation_rate,
)

from conftest import COLD, DARK_CROSSOVER_U, near_dark, random_params


def eq13_rate_matrix(params):
    """Independent re-evaluation of the rate equation generator.

    Built directly from the eigenbasis matrix elements of the jump
    operators, bypassing the closed-form channel coefficients entirely.
    """
    eig = analytic_eigensystem(params)
    V, eps = eig.eigenvectors, eig.eigenvalues
    W = np.zeros((8, 8))
    for nu, S in zip("LMR", jump_operators(params)):
        gamma = params.decay_rate(nu)
        T = params.temperature(nu)
        Se = V.T @ S @ V
        for i in range(8):
            for j in range(8):
                w = eps[j] - eps[i]
                if w <= 0 or abs(Se[i, j]) < 1e-12:
                    continue
                n = bose_occupation(w, T)
                W[i, j] += gamma * (n + 1.0) * Se[i, j] ** 2
                W[j, i] += gamma * n * Se[i, j] ** 2
    W[np.diag_indices(8)] -= W.sum(axis=0)
    return W


def mp_steady_state(W, rho44_init=None, digits=50):
    """Oracle: steady populations of the off-diagonal rates W[i, j] (j -> i).

    Grassmann-Taksar-Heyman reduction in `digits`-digit arithmetic, one
    scalar at a time.  With rho44_init the dark state 3 is pinned and the
    other seven states share the rest.
    """
    keep = [k for k in range(8) if rho44_init is None or k != 3]
    n = len(keep)
    with mpmath.workdps(digits):
        A = [[mpmath.mpf(float(W[a, b])) for b in keep] for a in keep]
        out = [None] * n
        for k in range(n - 1, 0, -1):
            out[k] = mpmath.fsum(A[i][k] for i in range(k))
            for i in range(k):
                for j in range(k):
                    if j != i:
                        A[i][j] += A[i][k] * A[k][j] / out[k]
        q = [mpmath.mpf(1)]
        for k in range(1, n):
            q.append(mpmath.fsum(q[i] * A[k][i] for i in range(k)) / out[k])
        scale = (1 - mpmath.mpf(rho44_init or 0)) / mpmath.fsum(q)
        p = np.zeros(8)
        p[keep] = [float(x * scale) for x in q]
    if rho44_init is not None:
        p[3] = rho44_init
    return p


# GTH adds, multiplies and divides non-negative numbers only, so each
# population picks up a few ulps of relative error per state it passes
# through (O'Cinneide, Numer. Math. 65, 1993): 4 ulps x 8 states
POPULATION_RTOL = 4 * 8 * np.finfo(float).eps


class TestBoseOccupation:
    def test_ln2_gives_one(self):
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_stable_in_deep_quantum_regime(self):
        # against a 50-digit decimal evaluation of 1/(e^62 - 1)
        getcontext().prec = 50
        x = Decimal(31) / Decimal("0.5")
        expected = float(1 / (x.exp() - 1))
        value = bose_occupation(31.0, 0.5)
        assert value == pytest.approx(expected, rel=1e-13)
        assert value == pytest.approx(1.185064864233981e-27, rel=1e-12)

    def test_hard_underflow_is_clean_zero(self):
        assert bose_occupation(1.0, 1e-6) == 0.0

    def test_rayleigh_jeans_limit(self):
        for ratio in (50.0, 200.0, 1e4):
            assert bose_occupation(1.0, ratio) == pytest.approx(ratio, rel=1e-2)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ParameterError):
            bose_occupation(1.0, 0.0)


class TestRateMatrix:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_columns_sum_to_zero(self, seed):
        params = random_params(np.random.default_rng(seed))
        W = rate_matrix(params)
        assert np.max(np.abs(W.sum(axis=0))) < 1e-12 * max(1.0, np.abs(W).max())
        off = W - np.diag(np.diagonal(W))
        assert off.min() >= 0.0

    def test_dark_state_row_and_column_identically_zero(self, dark_params):
        W = rate_matrix(dark_params)
        assert np.all(W[3, :] == 0.0)
        assert np.all(W[:, 3] == 0.0)

    def test_detailed_balance_at_equal_temperature(self, fig2_params):
        params = fig2_params.replace(T_L=2.0, T_M=2.0, T_R=2.0)
        eps = analytic_eigensystem(params).eigenvalues
        W = rate_matrix(params)
        for i in range(8):
            for j in range(i + 1, 8):
                if W[i, j] == 0.0:
                    assert W[j, i] == 0.0
                    continue
                assert W[i, j] / W[j, i] == pytest.approx(
                    math.exp((eps[j] - eps[i]) / 2.0), rel=1e-12)

    def test_matches_direct_transition_rates(self):
        # oracle: rates recomputed entrywise from <eps_i|S_nu|eps_j>
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = random_params(rng)
            np.testing.assert_allclose(
                rate_matrix(params), eq13_rate_matrix(params),
                rtol=1e-10, atol=1e-18)

    def test_independent_bath_case_matches_oracle(self, fig2_params):
        params = fig2_params.replace(lambda1=0.0, lambda2=0.0, lambda3=0.0)
        np.testing.assert_allclose(
            rate_matrix(params), eq13_rate_matrix(params), rtol=1e-12, atol=1e-20)


def without_outflow(params):
    """params with state 3 stuck: at lambda1 = 1 its L rows have amplitude 0,
    and at gamma_M = gamma_R = 1e-300 and lambda2 = lambda3 = 1 - 2^-53 its
    M and R rates, gamma (1 - lambda)^2 cos(beta)^2 / 2 ~ 1e-333, underflow
    to 0, also in units of the largest gamma, gamma_L = 1: nothing leaves it."""
    lam = 1.0 - 2.0 ** -53
    return params.replace(gamma_L=1.0, gamma_M=1e-300, gamma_R=1e-300,
                          lambda1=1.0, lambda2=lam, lambda3=lam)


def dark_limit(params):
    """rho44 as lambda1 = lambda2 = lambda3 -> 1 from below, by the 50-digit GTH.

    The rows of state 3 have amplitudes (1 - lambda) cos(beta) / sqrt(2), and
    cos(beta) does not depend on lambda, so its rates are (1 - lambda)^2 K,
    with K = 4 W(lambda = 1/2) exactly (halving 1 - lambda quarters a rate).
    The other rows tend to those of W(1).  The limit is the steady state of
    W(1) + eps K as eps -> 0+; eps = 1e-40 moves it by O(eps).
    """
    W = rate_matrix(params.replace(lambda1=1.0, lambda2=1.0, lambda3=1.0))
    K = 4.0 * rate_matrix(params.replace(lambda1=0.5, lambda2=0.5, lambda3=0.5))
    W[3], W[:, 3] = 1e-40 * K[3], 1e-40 * K[:, 3]
    return mp_steady_state(W, digits=80)[3]


class TestSteadyState:
    def test_gibbs_at_equal_temperatures(self, fig2_params):
        T = 1.3
        params = fig2_params.replace(T_L=T, T_M=T, T_R=T)
        p = steady_state(params)
        eps = analytic_eigensystem(params).eigenvalues
        gibbs = np.exp(-eps / T)
        gibbs /= gibbs.sum()
        np.testing.assert_allclose(p, gibbs, atol=1e-10)

    def test_equilibrium_independent_of_lambda_and_gamma(self, fig2_params):
        T = 0.9
        a = fig2_params.replace(T_L=T, T_M=T, T_R=T, lambda1=0.2, lambda2=0.9,
                                lambda3=0.5, gamma_L=1e-3)
        b = fig2_params.replace(T_L=T, T_M=T, T_R=T, lambda1=0.8, lambda2=0.1,
                                lambda3=0.0, gamma_M=4e-3)
        np.testing.assert_allclose(steady_state(a), steady_state(b), atol=1e-12)

    def test_unique_kernel_for_generic_lambda(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            params = random_params(rng)
            W = rate_matrix(params)
            s = np.linalg.svd(W, compute_uv=False)
            assert np.sum(s < 1e-10 * s[0]) == 1

    def test_dark_pinned_to_one_isolates_reservoirs(self, dark_params):
        from qtransistor import heat_currents

        p = steady_state(dark_params, rho44_init=1.0)
        np.testing.assert_allclose(p, np.eye(8)[3], atol=1e-15)
        q = heat_currents(dark_params, p)
        assert q.Q_L == q.Q_M == q.Q_R == 0.0

    def test_state_without_outflow_raises(self, fig2_params):
        params = without_outflow(fig2_params)
        assert np.all(rate_matrix(params)[:, 3] == 0.0)
        with pytest.raises(SteadyStateError, match="no outflow"):
            steady_state(params)

    def test_dark_case_requires_rho44(self, dark_params):
        with pytest.raises(UnderdeterminedError):
            steady_state(dark_params)

    def test_unique_case_rejects_rho44(self, fig2_params):
        with pytest.raises(OverdeterminedError):
            steady_state(fig2_params, rho44_init=0.3)

    def test_dark_rho44_out_of_range(self, dark_params):
        with pytest.raises(ParameterError):
            steady_state(dark_params, rho44_init=1.5)

    def test_cold_case_relative_accuracy(self, fig2_params):
        # populations span 1 down to ~1e-30; every one must carry full
        # relative precision, not just a small absolute error
        cold = fig2_params.replace(T_L=1.0, T_M=0.05, T_R=0.05)
        ref = mp_steady_state(rate_matrix(cold))
        assert ref.min() < 1e-29
        np.testing.assert_allclose(steady_state(cold), ref, rtol=POPULATION_RTOL, atol=0)

    @pytest.mark.parametrize("u", [2, 5, 8, *DARK_CROSSOVER_U])
    def test_near_dark_state_is_unique(self, fig2_params, u):
        # the rates of state 3 fall as 10^-2u, to 1e-32 of the others at
        # u = 15.9, and nothing cuts them off: every point solves
        params = near_dark(fig2_params, u)
        ref = mp_steady_state(rate_matrix(params))
        np.testing.assert_allclose(steady_state(params), ref, rtol=POPULATION_RTOL, atol=0)

    @pytest.mark.parametrize("u", DARK_CROSSOVER_U)
    def test_near_dark_cold_state(self, fig2_params, u):
        params = near_dark(fig2_params.replace(**COLD), u)
        ref = mp_steady_state(rate_matrix(params))
        np.testing.assert_allclose(steady_state(params), ref, rtol=POPULATION_RTOL, atol=0)

    @pytest.mark.parametrize("cold", [False, True], ids=["fig2", "cold"])
    def test_rho44_runs_into_its_dark_limit(self, fig2_params, cold):
        # rho44 = lim (1 + s (1 - lambda)) to first order: the other rows carry
        # (1 + lambda) weights.  The slope s comes from the 50-digit reference
        # at 1 - lambda = 1e-8, where its second-order error is ~1e-8 s; below
        # that the linear term is all the kernel must reproduce to 32 ulps
        base = fig2_params.replace(**COLD) if cold else fig2_params
        lim = dark_limit(base)
        steep = near_dark(base, 8)
        s = (mp_steady_state(rate_matrix(steep))[3] / lim - 1.0) / (1.0 - steep.lambda1)
        for u in DARK_CROSSOVER_U:
            params = near_dark(base, u)
            expected = lim * (1.0 + s * (1.0 - params.lambda1))
            assert steady_state(params)[3] == pytest.approx(expected, rel=POPULATION_RTOL, abs=0)

    def test_dark_pinned_relative_accuracy(self, dark_params):
        ref = mp_steady_state(rate_matrix(dark_params), rho44_init=0.3)
        np.testing.assert_allclose(steady_state(dark_params, rho44_init=0.3), ref,
                                   rtol=POPULATION_RTOL, atol=0)

    def test_populations_clean(self, fig2_params):
        p = steady_state(fig2_params)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= 0.0


def scalar_rate_matrix(params):
    """W assembled one channel amplitude at a time from channels_analytic
    and bose_occupation, the scalar closed forms the kernel vectorises."""
    eig = analytic_eigensystem(params)
    W = np.zeros((8, 8))
    for ch in channels_analytic(params):
        gamma = params.decay_rate(ch.reservoir)
        for i, j, a in ch.amplitudes:
            w = eig.eigenvalues[j] - eig.eigenvalues[i]
            n = bose_occupation(w, params.temperature(ch.reservoir))
            W[i, j] = gamma * a * a * (n + 1.0)
            W[j, i] = gamma * a * a * n
    W[np.diag_indices(8)] -= W.sum(axis=0)
    return W


def tree(h):
    """The sum of 8 Python floats in `dynamics._tree`'s order."""
    return ((h[0] + h[1]) + (h[2] + h[3])) + ((h[4] + h[5]) + (h[6] + h[7]))


def sequential(terms):
    """The sum of Python floats from the first term to the last."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def mixed_draws(n=200, seed=2031):
    """Validated-regime draws, every tenth dark-pinned with a seeded rho44."""
    rng = np.random.default_rng(seed)
    params, pins = [], []
    for k in range(n):
        if k % 10 == 0:
            params.append(random_params(rng, lambdas=(1.0, 1.0, 1.0)))
            pins.append(float(rng.uniform(0.0, 0.98)))
        else:
            params.append(random_params(rng))
            pins.append(None)
    return params, pins


def straddling_batch(fig2_params, dark_params):
    """CHUNK + 3 mixed draws with a failing point of each kind at the chunk boundary.

    The first chunk ends with an unpinned dark point and one without
    outflow, the second starts with a superfluous pin, a pin outside
    [0, 1] and a frozen control bath (which fails only alpha, for control M).
    """
    params, pins = mixed_draws(dynamics.CHUNK + 3)
    failing = [(dark_params, None), (without_outflow(fig2_params), None), (fig2_params, 0.3),
               (dark_params, 1.5), (fig2_params.replace(T_M=0.001), None)]
    for n, (point, pin) in enumerate(failing, start=dynamics.CHUNK - 2):
        params[n], pins[n] = point, pin
    return params, pins


class TestBatchedKernel:
    def test_table_matches_scalar_closed_forms_bit_for_bit(self):
        for params in mixed_draws(40)[0]:
            assert np.array_equal(rate_matrix(params), scalar_rate_matrix(params))

    def test_rows_are_grouped_by_reservoir(self):
        # the heat currents are a reshape-sum of the rows: 8 of L, 8 of M, 8 of R
        assert ROW_RESERVOIR.tolist() == [0] * 8 + [1] * 8 + [2] * 8

    def test_batch_holds_no_array_memory(self):
        # array data (numpy's tracemalloc domain) still allocated after a
        # batch is kept by the kernel; anything kept per point would hold at
        # least one double per point.  Python's own free lists are not counted.
        rng = np.random.default_rng(43)
        params = [random_params(rng) for _ in range(2000)]
        solve(params[:3], control="M")
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(arrays)
            solve(params, control="M")
            after = tracemalloc.take_snapshot().filter_traces(arrays)
        finally:
            tracemalloc.stop()
        held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert held < 8 * len(params), held

    def test_batch_matches_single_point_calls(self):
        params, pins = mixed_draws()
        batch = solve(params, pins, control="M")
        assert batch.populations.shape == (200, 8)
        for n, (point, pin) in enumerate(zip(params, pins)):
            single = solve([point], [pin], control="M")
            assert batch.errors[n] is None and single.errors[0] is None
            # bit for bit: a batch changes neither the arithmetic nor the order of any sum
            for got, expected in zip(batch[:4], single[:4]):
                assert got[n].tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("control", [None, "M"])
    def test_batch_across_chunks_matches_single_point_calls(self, fig2_params, dark_params,
                                                             control):
        # a batch longer than a chunk, failed points on both sides of the
        # chunk boundary: each point comes out as it does alone, bit for bit
        params, pins = straddling_batch(fig2_params, dark_params)
        batch = solve(params, pins, control=control)
        assert sum(error is not None for error in batch.errors) == 4 + (control == "M")
        for n, (point, pin) in enumerate(zip(params, pins)):
            single = solve([point], [pin], control=control)
            assert repr(batch.errors[n]) == repr(single.errors[0])
            for got, expected in zip(batch[:4], single[:4]):
                assert got[n].tobytes() == expected[0].tobytes()

    def test_input_row_order_changes_no_bit(self, fig2_params, dark_params):
        params, pins = straddling_batch(fig2_params, dark_params)
        x = input_rows(params)
        pins = dynamics._pins(pins)
        c_rows = dynamics._solve(x, *pins, "M")
        f_rows = dynamics._solve(np.asfortranarray(x), *pins, "M")
        for got, expected in zip(f_rows[:4], c_rows[:4]):
            assert got.tobytes() == expected.tobytes()
        assert list(map(repr, f_rows.errors)) == list(map(repr, c_rows.errors))

    def test_unpinned_points_keep_the_stationary_vectors(self, fig2_params, dark_params):
        # `_steady` restores the pins at every point, as p (1 - rho44) and
        # + rho44 at state 3; a lit point's rho44 is 0, so its populations
        # are `_gth`'s stationary vector bit for bit
        params, pins = straddling_batch(fig2_params, dark_params)
        x = input_rows(params).T
        pinned, rho44 = dynamics._pins(pins)
        checked = 0
        for start in range(0, len(params), dynamics.CHUNK):
            chunk = slice(start, start + dynamics.CHUNK)
            columns = np.ascontiguousarray(x[:, chunk])
            dark = dynamics._dark(columns)
            steady = dynamics._steady(*dynamics._table(columns), dark, pinned[chunk],
                                      rho44[chunk])
            lit = ~dark & steady.failures.ok
            assert steady.populations[:, lit].tobytes() == steady.stationary[:, lit].tobytes()
            checked += np.count_nonzero(lit)
        # all lit points but the one without outflow and the superfluous pin
        assert checked == sum(not point.fully_common for point in params) - 2

    def test_peak_memory_does_not_grow_with_the_batch(self):
        # beyond its results a solve holds one chunk's arrays, whatever N is
        params, pins = mixed_draws(4 * dynamics.CHUNK)
        x = input_rows(params)
        pinned, rho44 = dynamics._pins(pins)
        dynamics._solve(x[:3], pinned[:3], rho44[:3], "M")

        def peak(n):
            tracemalloc.start()
            try:
                sol = dynamics._solve(x[:n], pinned[:n], rho44[:n], "M")
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return top, sum(a.nbytes for a in sol[:4]) + sys.getsizeof(sol.errors)

        # 2 kB for the interpreter's own objects (slices, views, loop counters):
        # less than any array of a chunk, the smallest of which is CHUNK doubles
        (one, one_out), (four, four_out) = peak(dynamics.CHUNK), peak(4 * dynamics.CHUNK)
        assert four - one <= four_out - one_out + 2048, (four - one, four_out - one_out)

    def test_currents_and_responses_add_in_the_stated_order(self):
        # the kernel's currents and dQ/dT, summed again in Python floats from
        # its own row heats, in the order the code states; alpha follows
        params, pins = mixed_draws()
        x = input_rows(params).T
        t, undefined = dynamics._table(x)
        steady = dynamics._steady(t, undefined, dynamics._dark(x), *dynamics._pins(pins))
        heat = dynamics._row_heat(t, dynamics._flow(t.down, t.up, steady.populations))
        terms = dynamics._response(t, steady, "M")
        sol = solve(params, pins, control="M")

        for n in range(len(params)):
            # summed in units of 2^scale, then scaled back
            currents = [math.ldexp(tree(h[:, n].tolist()), int(t.scale[n])) for h in heat]
            assert np.array(currents).tobytes() == sol.currents[n].tobytes()
            dQ, size = ([tree(h[:, n].tolist()) for h in part] for part in (terms[:3], terms[3:]))
            others = [dQ[2] + dQ[1], dQ[0] + dQ[2], dQ[1] + dQ[0]]
            others_size = [size[2] + size[1], size[0] + size[2], size[1] + size[0]]
            dQ = [-o if s > os else q for q, s, o, os in zip(dQ, size, others, others_size)]
            assert np.array([dQ[0] / dQ[1], dQ[2] / dQ[1]]).tobytes() == sol.alpha[n].tobytes()

    def test_residual_and_steady_states_add_in_the_stated_order(self):
        # W p, GTH's back substitution and its normalisation, recomputed in
        # Python floats from the kernel's own arrays in the order the code
        # states: a state's 6 signed row flows and each dot from the first
        # term to the last, the normalising sum by `_tree`
        params, pins = mixed_draws()
        x = input_rows(params).T
        t, undefined = dynamics._table(x)
        steady = dynamics._steady(t, undefined, dynamics._dark(x), *dynamics._pins(pins))
        A = steady.factors
        unscaled = dynamics._back_substitute(A, 1.0)
        flow = dynamics._flow(t.down, t.up, steady.populations)
        sol = solve(params, pins)
        touch = [[(r, -1.0 if ROW_I[r] == k else 1.0) for r in range(24)
                  if k in (ROW_I[r], ROW_J[r])] for k in range(8)]
        for n in range(len(params)):
            f = flow[:, n].tolist()
            rates = [sequential([sign * f[r] for r, sign in rows]) for rows in touch]
            residual = max(abs(v) for v in rates) / float(t.unit[n])
            assert np.float64(residual).tobytes() == sol.residual[n].tobytes()
            a = A[:, :, n].tolist()
            q = [1.0]
            for k in range(1, 8):
                q.append(sequential([a[k][j] * q[j] for j in range(k)]) / a[k][k])
            assert np.array(q).tobytes() == unscaled[:, n].tobytes()
            total = tree(q)
            assert np.array([v / total for v in q]).tobytes() == steady.stationary[:, n].tobytes()

    def test_currents_do_not_follow_the_table_layout(self):
        # the row heats of a table laid out column-major are summed in the same order
        params, pins = mixed_draws(400)
        t, _ = dynamics._table(input_rows(params).T)
        p = solve(params, pins).populations.T
        fortran = dynamics._Table(*map(np.asfortranarray, t))
        for got, expected in zip(dynamics._heat(fortran, p), dynamics._heat(t, p)):
            assert got.tobytes() == expected.tobytes()

    def test_failed_points_do_not_disturb_the_batch(self, fig2_params, dark_params):
        # a superfluous pin outside [0, 1] is reported as superfluous
        points = [fig2_params, dark_params, without_outflow(fig2_params),
                  fig2_params, dark_params, fig2_params.replace(T_M=0.001),
                  fig2_params, dark_params]
        pins = [None, None, None, 0.3, 1.5, None, 1.5, math.nan]
        sol = solve(points, pins, control="M")
        expected = [None, UnderdeterminedError, SteadyStateError, OverdeterminedError,
                    ParameterError, DegenerateControlError, OverdeterminedError, ParameterError]
        assert [type(e) if e is not None else None for e in sol.errors] == expected
        assert np.all(np.isnan(sol.populations[[1, 2, 3, 4, 6, 7]]))
        np.testing.assert_array_equal(sol.populations[0], steady_state(fig2_params))
        # only alpha failed at the frozen control bath
        np.testing.assert_array_equal(sol.populations[5],
                                      steady_state(fig2_params.replace(T_M=0.001)))
        assert np.all(np.isnan(sol.alpha[5]))

    @pytest.mark.parametrize("control", [None, "M", "L", "R"])
    def test_survivors_match_a_batch_without_failures(self, fig2_params, dark_params, control):
        # row n of every kernel array is point n: interleaved with the five
        # failing kinds above, the ok points go through the one GTH pass
        # beside them and only the failed rows are set to NaN.  Solved by
        # themselves, the ok points take `_steady`'s no-failure path, the
        # lit ones alone also its no-pin path: every number of theirs must
        # come out the same, bit for bit
        ok = [fig2_params, dark_params, fig2_params.replace(T_L=1.0, T_M=0.05, T_R=0.05),
              fig2_params.replace(T_M=2.0)]
        ok_pins = [None, 0.3, None, None]
        failing = [dark_params, without_outflow(fig2_params),
                   fig2_params, dark_params, fig2_params.replace(T_M=0.001)]
        failing_pins = [None, None, 0.3, 1.5, None]
        mixed = solve([x for pair in zip(failing, ok) for x in pair] + failing[4:],
                      [x for pair in zip(failing_pins, ok_pins) for x in pair] + failing_pins[4:],
                      control=control)
        # the frozen control bath fails only alpha, and only for control M
        survivors = [1, 3, 5, 7] + ([] if control == "M" else [8])
        assert [n for n, error in enumerate(mixed.errors) if error is None] == survivors
        for subset in ([0, 1, 2, 3], [0, 2, 3]):
            alone = solve([ok[k] for k in subset], [ok_pins[k] for k in subset], control=control)
            assert alone.errors == [None] * len(subset)
            for n, k in enumerate(subset):
                for got, expected in zip(alone[:4], mixed[:4]):
                    assert got[n].tobytes() == expected[2 * k + 1].tobytes()

        # with no pin anywhere the dark state is not drained: the unpinned
        # dark point is stuck at state 3 in `_gth`, but reports its first error
        lit = [ok[0], ok[2], ok[3]]
        unpinned = solve([dark_params, lit[0], without_outflow(fig2_params), *lit[1:]],
                         control=control)
        assert type(unpinned.errors[0]) is UnderdeterminedError
        assert type(unpinned.errors[2]) is SteadyStateError
        assert str(unpinned.errors[2]) == "state 3 has no outflow to the states below it"
        assert [n for n, error in enumerate(unpinned.errors) if error is None] == [1, 3, 4]
        assert np.all(np.isnan(unpinned.populations[[0, 2]]))
        alone = solve(lit, control=control)
        for n, k in enumerate([1, 3, 4]):
            for got, expected in zip(alone[:4], unpinned[:4]):
                assert got[n].tobytes() == expected[k].tobytes()

    def test_malformed_call_raises(self, fig2_params):
        with pytest.raises(ParameterError):
            solve([fig2_params], control="X")
        with pytest.raises(ValueError, match="one entry"):
            solve([fig2_params, fig2_params], [None])

    def test_mp_reference_cases_in_one_batch(self, fig2_params, dark_params):
        # the 32-ulp cases of TestSteadyState, solved together
        cold = fig2_params.replace(T_L=1.0, T_M=0.05, T_R=0.05)
        near = [fig2_params.replace(lambda1=1.0 - 10.0 ** -u, lambda2=1.0 - 10.0 ** -u,
                                    lambda3=1.0 - 10.0 ** -u) for u in (2, 5, 8)]
        points = [cold, *near, dark_params]
        pins = [None, None, None, None, 0.3]
        sol = solve(points, pins)
        for n, (point, pin) in enumerate(zip(points, pins)):
            ref = mp_steady_state(rate_matrix(point), rho44_init=pin)
            np.testing.assert_allclose(sol.populations[n], ref, rtol=POPULATION_RTOL, atol=0)


class TestRateScale:
    def test_power_of_two_gammas_scale_only_the_currents(self, fig2_params, dark_params):
        # every gamma times 2^k: the kernel's rates, in units of the power of two
        # below the largest gamma, are the same numbers, so p, alpha, the
        # residual (in units of the largest gamma) and the errors keep their
        # bytes and Q is multiplied by exactly 2^k, for every k that keeps
        # the gammas and the currents normal
        params, pins = mixed_draws(40)
        failing = [(dark_params, None), (without_outflow(fig2_params), None), (fig2_params, 0.3),
                   (dark_params, 1.5), (fig2_params.replace(T_M=0.001), None),
                   (fig2_params.replace(omega_M=30.0), None)]
        params += [point for point, _ in failing]
        pins += [pin for _, pin in failing]
        x = input_rows(params)
        pinned, rho44 = dynamics._pins(pins)
        base = dynamics._solve(x, pinned, rho44, "M")
        assert sum(error is None for error in base.errors) == 40
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max

        def normal(v):
            return (v == 0.0) | ((np.abs(v) >= tiny) & (np.abs(v) <= huge))

        checked = 0
        for k in range(-1100, 1101):
            if k == 0:
                continue
            with np.errstate(over="ignore", under="ignore"):
                gammas = np.ldexp(x[:, 6:9], k)
                Q = np.ldexp(base.currents, k)
            keep = np.flatnonzero(((gammas >= tiny) & (gammas <= huge)).all(axis=1))
            if not keep.size:
                continue
            scaled = x[keep].copy()
            scaled[:, 6:9] = gammas[keep]
            sol = dynamics._solve(scaled, pinned[keep], rho44[keep], "M")
            for got, expected in zip(sol[:4], base[:4]):
                if got is not sol.currents:
                    assert got.tobytes() == expected[keep].tobytes(), k
            assert list(map(repr, sol.errors)) == [repr(base.errors[n]) for n in keep], k
            Q = Q[keep]
            exact = (normal(Q) & normal(base.currents[keep])).all(axis=1)
            assert sol.currents[exact].tobytes() == Q[exact].tobytes(), k
            checked += np.count_nonzero(exact)
        assert checked > 40 * 1500

    @pytest.mark.parametrize("gamma", [1e-200, 1e-290, 1e-300])
    def test_tiny_rates_keep_their_steady_state(self, fig2_params, gamma):
        # at lambda = 1 - 2^-53 the rates of state 3 are ~1e-32 of the others:
        # in absolute terms they underflowed below gamma ~ 1e-276
        lam = 1.0 - 2.0 ** -53
        near = fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam)
        p = steady_state(near.replace(gamma_L=gamma, gamma_M=gamma, gamma_R=gamma))
        assert p[3] > 4e-4
        np.testing.assert_allclose(p, steady_state(near), rtol=POPULATION_RTOL, atol=0)


def fresh(call, *args, **kwargs):
    """call(*args) with no transition table kept from an earlier call."""
    dynamics._point_table.cache_clear()
    return call(*args, **kwargs)


def query(params, rho44_init=None):
    """steady_state then heat_currents, as arrays: p, (Q_L, Q_M, Q_R, residual)."""
    p = steady_state(params, rho44_init=rho44_init)
    q = heat_currents(params, p)
    return p, np.array([q.Q_L, q.Q_M, q.Q_R, q.steady_residual])


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the transition tables built from scratch, from an empty memo.

    Each table, a query's float table or a chunk's arrays, takes its
    occupations from one `_nbar` call.
    """
    builds = []
    nbar = dynamics._nbar

    def counted(z):
        builds.append(1)
        return nbar(z)

    monkeypatch.setattr(dynamics, "_nbar", counted)
    dynamics._point_table.cache_clear()
    return builds


class TestTableMemo:
    def test_interleaved_points_match_fresh_calls(self, fig2_params, dark_params):
        cases = [(fig2_params, None), (dark_params, 0.25)]
        expected = [(fresh(rate_matrix, x), *fresh(query, x, pin)) for x, pin in cases]
        for k in (0, 1, 0, 1, 0):
            (x, pin), (W, p, q) = cases[k], expected[k]
            assert rate_matrix(x).tobytes() == W.tobytes()
            got_p, got_q = query(x, pin)
            assert got_p.tobytes() == p.tobytes() and got_q.tobytes() == q.tobytes()

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
    def test_one_ulp_in_any_input_misses(self, fig2_params, table_builds, field):
        rate_matrix(fig2_params)
        nudged = fig2_params.replace(
            **{field: float(np.nextafter(getattr(fig2_params, field), np.inf))})
        W = rate_matrix(nudged)
        assert len(table_builds) == 2
        assert W.tobytes() == scalar_rate_matrix(nudged).tobytes()

    def test_hit_returns_the_stored_table(self, fig2_params, table_builds):
        first = dynamics._point_table(fig2_params)
        again = dynamics._point_table(fig2_params.replace())  # equal, not the same object
        assert again is first and len(table_builds) == 1
        p = steady_state(fig2_params)
        heat_currents(fig2_params, p)
        assert len(table_builds) == 1

    def test_kept_arrays_are_read_only(self, fig2_params):
        # the kept table holds tuples of floats and numbers: nothing in it can change
        table = dynamics._point_table(fig2_params)
        for rows in (table.omega, table.down, table.up):
            assert type(rows) is tuple and len(rows) == 24
            assert all(type(v) is float for v in rows)
            with pytest.raises(TypeError):
                rows[0] = 0.0
        assert (type(table.unit), type(table.scale), type(table.undefined)) == (float, int, bool)
        with pytest.raises(AttributeError):
            table.unit = 0.0

    def test_batch_leaves_the_kept_table(self, fig2_params, dark_params, table_builds):
        kept = dynamics._point_table(fig2_params)
        solve([fig2_params, dark_params], [None, 0.3])
        solve([dark_params], [0.3])
        assert len(table_builds) == 3
        assert dynamics._point_table(fig2_params) is kept and len(table_builds) == 3

    def test_signed_zero_g_shares_the_entry_and_its_table(self, fig2_params):
        # g = -0.0 passes SystemParams and equals g = 0.0, so both hit one memo
        # entry: their tables must be the same bytes
        plus, minus = fig2_params.replace(g=0.0), fig2_params.replace(g=-0.0)
        (t_plus, u_plus), (t_minus, u_minus) = (dynamics._table(input_rows([x]).T)
                                                for x in (plus, minus))
        for a, b in zip((*t_plus, u_plus), (*t_minus, u_minus)):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(*(fresh(dynamics._point_table, x) for x in (plus, minus))):
            assert np.array(a).tobytes() == np.array(b).tobytes()
        assert fresh(dynamics._point_table, minus) is dynamics._point_table(plus)
        for got, expected in zip(fresh(query, minus), fresh(query, plus)):
            assert got.tobytes() == expected.tobytes()

    def test_numpy_scalar_field_solves_as_its_float(self, fig2_params):
        # a 0-d array passes SystemParams' checks; stored as a float, it keys
        # the memo and solves as the float-field point does
        point = fig2_params.replace(omega_L=np.array(fig2_params.omega_L))
        assert type(point.omega_L) is float
        for got, expected in zip(fresh(query, point), fresh(query, fig2_params)):
            assert got.tobytes() == expected.tobytes()
        assert fresh(rate_matrix, point).tobytes() == fresh(rate_matrix, fig2_params).tobytes()

    def test_undefined_nbar_leaves_the_next_call_correct(self, fig2_params):
        expected = fresh(query, fig2_params)
        bad = fig2_params.replace(omega_M=30.0)  # omega_M > omega_L: a row at omega < 0
        for _ in range(2):
            with pytest.raises(ParameterError, match="omega > 0"):
                steady_state(bad)
            with pytest.raises(ParameterError, match="omega > 0"):
                heat_currents(bad, expected[0])
            p, q = query(fig2_params)
            assert p.tobytes() == expected[0].tobytes() and q.tobytes() == expected[1].tobytes()

    def test_query_equals_the_kernel(self, fig2_params, dark_params):
        # a query runs on Python floats, `solve` on arrays: the same operations
        # in the same order give the same bytes, and the same typed errors
        cases = list(zip(*mixed_draws(seed=77)))
        batch, pins = straddling_batch(fig2_params, dark_params)
        errors = solve(batch, pins).errors
        failing = range(dynamics.CHUNK - 2, dynamics.CHUNK + 3)
        for n in failing:
            assert assert_query_is_the_kernel(batch[n], pins[n]) == repr(errors[n])
        assert sum(error is not None for error in errors) == 4  # the fifth fails alpha only
        # a pin error comes before an undefined nbar
        undefined = fig2_params.replace(omega_M=30.0)
        cases += [(dark_params, math.nan), (fig2_params, math.nan), (undefined, None),
                  (undefined, 0.3), (undefined.replace(lambda1=1.0, lambda2=1.0, lambda3=1.0), None)]
        # Q_L and Q_R overflow: both paths end in the overflow error
        cases.append((fig2_params.replace(omega_L=1e4, T_L=1e4, gamma_L=1e308, gamma_M=1e308,
                                          gamma_R=1e308), None))
        # cold baths: the rows' omega / T run through 700-745, where nbar is
        # subnormal, and beyond, where it is 0
        cold = [fig2_params.replace(T_L=30.0 / z, T_M=1.0 / z, T_R=31.0 / z)
                for z in np.linspace(700.0, 750.0, 11)]
        nbar = np.concatenate([t.nbar[t.down != 0.0] for t, _ in
                               (dynamics._table(input_rows([x]).T) for x in cold)])
        assert np.count_nonzero(nbar == 0.0) and np.count_nonzero((nbar > 0.0) & (nbar < TINY))
        cases += [(x, None) for x in cold]
        lam = 1.0 - 2.0 ** -53
        for base in (fig2_params, fig2_params.replace(**COLD)):
            cases.append((base.replace(lambda1=lam, lambda2=lam, lambda3=lam), None))
            cases += [(near_dark(base, u), None) for u in DARK_CROSSOVER_U]
        for params, pin in cases:
            assert_query_is_the_kernel(params, pin)

    def test_query_equals_the_kernel_at_every_rate_scale(self, fig2_params, dark_params):
        # `TestRateScale`'s points, failing kinds included, with every gamma times 2^k
        params, pins = mixed_draws(40)
        failing = [(dark_params, None), (without_outflow(fig2_params), None), (fig2_params, 0.3),
                   (dark_params, 1.5), (fig2_params.replace(omega_M=30.0), None)]
        params += [point for point, _ in failing]
        pins += [pin for _, pin in failing]
        checked = 0
        for k in range(-1100, 1101, 50):
            for x, pin in zip(params, pins):
                with np.errstate(over="ignore"):
                    gammas = np.ldexp([x.gamma_L, x.gamma_M, x.gamma_R], k).tolist()
                if all(0.0 < v < math.inf for v in gammas):
                    assert_query_is_the_kernel(
                        x.replace(gamma_L=gammas[0], gamma_M=gammas[1], gamma_R=gammas[2]), pin)
                    checked += 1
        assert checked > 40 * 30

    def test_queries_build_no_array_table(self, fig2_params, dark_params, monkeypatch):
        built = []
        table = dynamics._table
        monkeypatch.setattr(dynamics, "_table", lambda x: built.append(x) or table(x))
        dynamics._point_table.cache_clear()
        for x, pin in ((fig2_params, None), (dark_params, 0.3)):
            heat_currents(x, steady_state(x, pin))
            rate_matrix(x)
        assert built == []
        solve([fig2_params])
        assert len(built) == 1

    def test_modulation_asks_float_queries(self, modulation_params, table_builds, monkeypatch):
        # both steady states of the protocol and their currents are float
        # queries on one params: one float table, no array table
        built = []
        table = dynamics._table
        monkeypatch.setattr(dynamics, "_table", lambda x: built.append(x) or table(x))
        run_modulation(modulation_params, DriveSpec(Omega=0.3, delta_t=1.0), 0.99)
        assert built == [] and len(table_builds) == 1

    def test_overflowing_currents_are_a_typed_error(self, fig2_params):
        # at gamma = 1e308 and omega_L = T_L = 1e4, Q_L and Q_R lie beyond the
        # float range: both paths record the overflow error, with no numpy
        # warning, and keep the populations
        x = fig2_params.replace(omega_L=1e4, T_L=1e4, gamma_L=1e308, gamma_M=1e308,
                                gamma_R=1e308)
        sol = fresh(solve, [x], control="M")
        assert repr(sol.errors[0]) == repr(ParameterError(dynamics._OVERFLOW))
        assert np.isinf(sol.currents[0, ::2]).all() and np.isnan(sol.alpha[0]).all()
        p = fresh(steady_state, x)
        assert p.tobytes() == sol.populations[0].tobytes()
        for call in (lambda: heat_currents(x, p), lambda: rate_matrix(x)):
            with pytest.raises(ParameterError) as raised:
                call()
            assert repr(raised.value) == repr(sol.errors[0])

    def test_point_kernel_is_straight_line_code(self, fig2_params):
        # every sum of the generated kernel is written out with +, in the order
        # the arrays add it: it holds no loop and calls no sum() or math.fsum
        source = dynamics._point_source()
        nodes = list(ast.walk(ast.parse(source)))
        assert not [node for node in nodes if isinstance(node, (ast.For, ast.While,
                                                                  ast.comprehension))]
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in nodes if isinstance(node, ast.Call)}
        assert called == {"sqrt", "frexp", "ldexp", "max", "_nbar", "array", "tolist",
                          "_PointTable", "abs"}
        # its source is what inspect and tracebacks read
        kernel = dynamics._point_kernel()
        assert set(kernel) == {"point_table", "point_steady", "point_heat"}
        for name, function in kernel.items():
            assert inspect.getsource(function) in source
            assert inspect.getsource(function).startswith(f"def {name}(")
        with pytest.raises(ValueError) as raised:  # 8 populations, not 7
            dynamics._point_heat(fig2_params, [0.125] * 7)
        line = traceback.extract_tb(raised.tb)[-1]
        assert line.filename == dynamics._POINT_FILE and line.line.endswith("= p")

    def test_query_equals_the_kernel_below_avx512(self):
        # numpy picks its exp and expm1 kernels by CPU level, and their last
        # bits differ between levels; both paths take nbar from `_nbar`, so
        # they agree at each level, here at a host's without AVX-512 (where
        # numpy's float64 exp is libm's)
        features, dispatch = numpy_cpu()
        off = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        if not (features.get("X86_V4") and set(off) <= set(dispatch)):
            pytest.skip("the host or its numpy has no X86_V4 level to switch off")
        src = os.path.dirname(os.path.dirname(qtransistor.__file__))
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(off)}
        node = f"{__file__}::TestTableMemo::test_query_equals_the_kernel"
        code = f"""if True:
            import sys, pytest
            status = pytest.main(["-q", "-p", "no:cacheprovider", {node!r}])
            assert not sys.modules["test_dynamics"].numpy_cpu()[0]["X86_V4"]
            sys.exit(status)
        """
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=os.path.dirname(__file__))
        assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


TINY = np.finfo(float).tiny
# a population vector that is no steady state, and one that holds NaN
NOT_STEADY = [0.3, 0.2, 0.1, 0.05, 0.15, 0.1, 0.05, 0.05]
# (state 0, whose residual comes first, has no row to state 7)
WITH_NAN = [0.3, 0.2, 0.1, 0.05, 0.15, 0.1, 0.05, math.nan]


def numpy_cpu():
    """numpy's CPU features (True where its dispatch may use one) and its dispatch targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


def array_rate_matrix(t):
    """rate_matrix of one point as the array kernel builds it, from its `_table` t."""
    W = np.ldexp(dynamics._rates(t.down, t.up).reshape(8, 8), t.scale)
    W.flat[::9] -= W.sum(axis=0)
    return W


def assert_query_is_the_kernel(params, pin):
    """The float query of one point gives `solve`'s bytes or raises its error.

    steady_state then heat_currents, rate_matrix, heat_currents of
    NOT_STEADY and the float heat `_point_heat` of WITH_NAN (which
    heat_currents rejects), against `solve` and the arrays of `_table`;
    returns the repr of `solve`'s error (None where it has none).  Q and W
    overflow at the largest rate scales: where the arrays leave the float
    range, the query raises the overflow error.
    """
    with np.errstate(over="ignore"):
        sol = fresh(solve, [params], [pin])
        t, undefined = dynamics._table(input_rows([params]).T)
        error = sol.errors[0]
        if error is None:
            p, q = fresh(query, params, pin)
            assert p.tobytes() == sol.populations[0].tobytes()
            assert q.tobytes() == np.append(sol.currents[0], sol.residual).tobytes()
        else:
            with pytest.raises(type(error)) as raised:
                fresh(query, params, pin)
            assert repr(raised.value) == repr(error)
            if np.isfinite(sol.populations[0]).all():  # only the currents failed
                p = fresh(steady_state, params, pin)
                assert p.tobytes() == sol.populations[0].tobytes()
        if undefined[0]:
            for call in (rate_matrix, lambda x: heat_currents(x, NOT_STEADY)):
                with pytest.raises(ParameterError, match="omega > 0"):
                    fresh(call, params)
            return repr(error)
        W = array_rate_matrix(t)
        if np.isfinite(W).all():
            assert fresh(rate_matrix, params).tobytes() == W.tobytes()
        else:
            with pytest.raises(ParameterError, match="overflow the float range"):
                fresh(rate_matrix, params)
        Q, residual = dynamics._heat(t, np.array(NOT_STEADY)[:, None])
        if np.isfinite(Q).all():
            got = fresh(heat_currents, params, NOT_STEADY)
            assert (np.array([got.Q_L, got.Q_M, got.Q_R, got.steady_residual]).tobytes()
                    == np.append(Q, residual).tobytes())
        else:
            with pytest.raises(ParameterError, match="overflow the float range"):
                fresh(heat_currents, params, NOT_STEADY)
        # heat_currents rejects NaN; the float heat propagates it as `_heat` does
        Q, residual = dynamics._heat(t, np.array(WITH_NAN)[:, None])
        got, got_residual = fresh(dynamics._point_heat, params, WITH_NAN)
        assert np.array([*got, got_residual]).tobytes() == np.append(Q, residual).tobytes()
        with pytest.raises(ParameterError, match="must hold finite numbers"):
            heat_currents(params, WITH_NAN)
    return repr(error)


def mp_relaxation_rates(W, digits=50):
    """Oracle: |Re| of the eigenvalues of W in `digits`-digit arithmetic, ascending."""
    with mpmath.workdps(digits):
        ev = mpmath.eig(mpmath.matrix(W.tolist()), left=False, right=False)
        return [float(r) for r in sorted(abs(mpmath.re(e)) for e in ev)]


class TestRelaxation:
    @pytest.mark.parametrize("u", [2, 4, 6])
    def test_slow_near_dark_mode(self, fig2_params, u):
        # the slow mode falls as (1 - lambda)^2 (4.2e-15 at u = 6) and must
        # not be mistaken for the stationary one
        lam = 1.0 - 10.0 ** -u
        W = rate_matrix(fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam))
        slow = mp_relaxation_rates(W)[1]
        assert slowest_relaxation_rate(W) == pytest.approx(slow, rel=1e-3)

    def test_slow_mode_below_eigenvalue_resolution(self, fig2_params):
        # at u = 8 the slow mode (4e-19) is below what eigvals resolves; the
        # rate returned must still be a slow one, not the fast 2.9e-3
        lam = 1.0 - 1e-8
        W = rate_matrix(fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam))
        assert slowest_relaxation_rate(W) <= 1e-15

    def test_dark_state_mode_is_dropped(self, dark_params):
        # the decoupled dark state adds a second stationary mode
        W = rate_matrix(dark_params)
        rates = mp_relaxation_rates(W)
        assert rates[1] < 1e-15
        assert slowest_relaxation_rate(W) == pytest.approx(rates[2], rel=1e-9)


def test_oracle_propagators_run_without_scipy():
    # runtime needs numpy only: both propagators run with SciPy unimportable
    src = os.path.dirname(os.path.dirname(qtransistor.__file__))
    code = """if True:
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from qtransistor import SystemParams
        from qtransistor.oracles import evolve_density_matrix, evolve_populations
        fig2 = SystemParams(30.0, 1.0, 0.1, 5.0, 1.0, 0.5, 0.002, 0.002, 0.002, 0.7, 0.7, 0.7)
        t = np.array([0.0, 1.0, 2.0])
        p = evolve_populations(fig2, np.eye(8)[0], t)
        rho = evolve_density_matrix(fig2, np.diag(np.eye(8)[0]).astype(complex), t)
        print(p.shape, rho.shape)
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "(3, 8) (3, 8, 8)"


ORACLE_NAMES = (
    "FrequencyAmbiguityError", "SingularDenominatorError",
    "closed_form_discrepancy", "closed_form_populations", "decompose_numeric",
    "dissipator_superoperator", "evolve_density_matrix", "evolve_populations",
    "heat_currents_trace", "jump_operators", "positive_frequency_part",
    "drive_density_matrix",
)


def test_kernel_modules_do_not_import_the_oracles():
    # the references live in qtransistor.oracles, which imports the kernel, never the
    # reverse; the package root neither imports nor exports them
    from qtransistor import oracles

    package = os.path.dirname(qtransistor.__file__)
    kernel = [name for name in os.listdir(package)
              if name.endswith(".py") and name != "oracles.py"]
    assert {"__init__.py", "channels.py", "dynamics.py", "observables.py",
            "model.py"} <= set(kernel)
    for name in kernel:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # "from . import oracles" reads ".oracles"
                imported = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any("oracles" in module.split(".") for module in imported), name
    for name in ORACLE_NAMES:
        assert getattr(oracles, name).__module__ == "qtransistor.oracles", name
        assert name not in qtransistor.__all__, name


def test_the_runtime_does_not_load_the_oracles():
    # a fresh interpreter: neither the package root nor the command line loads the references
    src = os.path.dirname(os.path.dirname(qtransistor.__file__))
    code = """if True:
        import sys
        import qtransistor
        print("qtransistor.oracles" in sys.modules)
        import qtransistor.cli
        print("qtransistor.oracles" in sys.modules)
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]


def test_the_point_kernel_is_compiled_at_the_first_query():
    # a fresh interpreter: importing the command line and running a sweep leave
    # the one-point kernel uncompiled; queries compile it once
    src = os.path.dirname(os.path.dirname(qtransistor.__file__))
    code = """if True:
        import os
        import qtransistor.cli
        from qtransistor import SystemParams, dynamics, heat_currents, steady_state
        compiled = dynamics._point_kernel.cache_info
        print(compiled().misses)
        qtransistor.cli.main(["sweep", "--config", "fig9a", "--points", "3", "--out", os.devnull])
        print(compiled().misses)
        fig2 = SystemParams(30.0, 1.0, 0.1, 5.0, 1.0, 0.5, 0.002, 0.002, 0.002, 0.7, 0.7, 0.7)
        for x in (fig2, fig2.replace(T_M=2.0)):
            heat_currents(x, steady_state(x))
        print(compiled().misses)
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0", "1"]


class TestEvolvePopulations:
    def test_steady_state_is_fixed_point(self, fig2_params):
        p = steady_state(fig2_params)
        W = rate_matrix(fig2_params)
        t = np.linspace(0.0, relaxation_horizon(W, decades=4), 7)
        traj = evolve_populations(fig2_params, p, t)
        assert np.max(np.abs(traj - p)) < 1e-10

    def test_dark_population_conserved(self, dark_params):
        p0 = np.array([0.3, 0.1, 0.1, 0.25, 0.1, 0.05, 0.05, 0.05])
        W = rate_matrix(dark_params)
        t = np.linspace(0.0, relaxation_horizon(W, decades=6), 9)
        traj = evolve_populations(dark_params, p0, t)
        assert np.max(np.abs(traj[:, 3] - 0.25)) < 1e-12

    def test_converges_to_linear_solver(self, fig2_params):
        p0 = np.eye(8)[0]
        W = rate_matrix(fig2_params)
        horizon = relaxation_horizon(W, decades=12)
        traj = evolve_populations(fig2_params, p0, np.array([0.0, horizon]))
        np.testing.assert_allclose(traj[-1], steady_state(fig2_params), atol=1e-8)
        assert np.max(np.abs(traj.sum(axis=1) - 1.0)) < 1e-10

    def test_rejects_bad_grid(self, fig2_params):
        p0 = np.eye(8)[0]
        with pytest.raises(ParameterError):
            evolve_populations(fig2_params, p0, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("t", [[0.0, 0.0], [], [[0.0, 1.0]]])
    def test_rejects_flat_empty_or_2d_grid(self, fig2_params, t):
        with pytest.raises(ParameterError, match="t_grid"):
            evolve_populations(fig2_params, np.eye(8)[0], np.array(t))

    def test_rejects_bad_populations(self, fig2_params):
        with pytest.raises(ParameterError):
            evolve_populations(fig2_params, np.full(8, 0.25), np.array([0.0, 1.0]))


def mp_expm(A, digits=40):
    """exp(A) of the double matrix A, to `digits` significant digits."""
    with mpmath.workdps(digits):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


class TestPropagator:
    def test_exponential_matches_mpmath(self, fig2_params, dark_params):
        # 40-digit exp(W dt) of the same double matrix W dt; at the 12-decade
        # horizon |W dt|_1 reaches 4.8e3 on these points, where the largest
        # error is 5.2e-14, and at most 6.7e-14 on 200 draws of this seed
        rng = np.random.default_rng(11)
        for params in [fig2_params, dark_params, *(random_params(rng) for _ in range(10))]:
            W = rate_matrix(params)
            horizon = relaxation_horizon(W, decades=12)
            for dt in (horizon / 50, horizon):
                E = _propagate(W, np.eye(8), np.array([0.0, dt]))[-1]
                assert np.max(np.abs(E - mp_expm(W * dt))) < 2e-13

    def test_one_point_grid_returns_the_initial_state(self, fig2_params):
        p0 = np.eye(8)[2]
        np.testing.assert_array_equal(evolve_populations(fig2_params, p0, [3.0]), [p0])


class TestEvolveDensityMatrix:
    def test_diagonal_input_matches_population_path(self, fig2_params):
        p0 = np.array([0.4, 0.2, 0.1, 0.1, 0.08, 0.06, 0.04, 0.02])
        W = rate_matrix(fig2_params)
        t = np.linspace(0.0, relaxation_horizon(W, decades=8), 6)
        rho_traj = evolve_density_matrix(fig2_params, np.diag(p0).astype(complex), t)
        p_traj = evolve_populations(fig2_params, p0, t)
        diag = np.real(np.diagonal(rho_traj, axis1=1, axis2=2))
        assert np.max(np.abs(diag - p_traj)) < 1e-10
        off = rho_traj - np.einsum("tij,ij->tij", rho_traj, np.eye(8))
        assert np.max(np.abs(off)) < 1e-14

    def test_trace_preserved_and_coherences_decay(self, fig2_params):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho0 = A @ A.conj().T
        rho0 /= np.trace(rho0).real
        W = rate_matrix(fig2_params)
        t = np.linspace(0.0, relaxation_horizon(W, decades=12), 5)
        traj = evolve_density_matrix(fig2_params, rho0, t)
        traces = np.trace(traj, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) < 1e-10
        final = traj[-1]
        off = final - np.diag(np.diagonal(final))
        assert np.max(np.abs(off)) < 1e-8
        np.testing.assert_allclose(
            np.diagonal(final).real, steady_state(fig2_params), atol=1e-8)

    def test_population_block_of_dissipator_is_rate_matrix(self, fig2_params):
        D = dissipator_superoperator(fig2_params)
        idx = [9 * k for k in range(8)]
        np.testing.assert_allclose(
            D[np.ix_(idx, idx)], rate_matrix(fig2_params), atol=1e-16)

    @pytest.mark.parametrize("t", [[1.0, 0.5], [0.0, 0.0], [], [[0.0, 1.0]]])
    def test_rejects_bad_grid(self, fig2_params, t):
        with pytest.raises(ParameterError, match="t_grid"):
            evolve_density_matrix(fig2_params, np.diag(np.eye(8)[0]).astype(complex),
                                  np.array(t))

    def test_rejects_unphysical_state(self, fig2_params):
        t = np.array([0.0, 1.0])
        with pytest.raises(ParameterError):
            evolve_density_matrix(fig2_params, np.eye(8, dtype=complex), t)  # trace 8
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 0.9
        with pytest.raises(ParameterError):
            evolve_density_matrix(fig2_params, bad, t)  # not Hermitian


class TestApplyDrive:
    def test_half_period_full_transfer(self):
        p = np.eye(8)[3]
        drive = DriveSpec(Omega=0.3, delta_t=0.5 * math.pi / 0.3)
        out = apply_drive(p, drive)
        assert out[3] == pytest.approx(0.0, abs=1e-15)
        assert out[7] == pytest.approx(1.0, rel=1e-14)

    def test_full_period_identity(self):
        p = np.array([0.5, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2])
        drive = DriveSpec(Omega=0.5, delta_t=math.pi / 0.5)
        np.testing.assert_allclose(apply_drive(p, drive), p, atol=1e-14)

    def test_partial_rotation_value(self):
        p = np.zeros(8)
        p[3], p[0] = 0.99, 0.01
        drive = DriveSpec(Omega=0.3, delta_t=0.7 * math.pi / 0.3)
        out = apply_drive(p, drive)
        assert out[3] == pytest.approx(0.99 * math.cos(0.7 * math.pi) ** 2, rel=1e-12)

    def test_density_matrix_route_agrees(self):
        p = np.array([0.1, 0.05, 0.05, 0.5, 0.05, 0.05, 0.05, 0.15])
        drive = DriveSpec(Omega=0.4, delta_t=1.3)
        rho_out = drive_density_matrix(np.diag(p).astype(complex), drive)
        np.testing.assert_allclose(
            np.diagonal(rho_out).real, apply_drive(p, drive), atol=1e-14)
        assert np.trace(rho_out) == pytest.approx(1.0)

    def test_other_components_untouched(self):
        p = np.full(8, 0.125)
        drive = DriveSpec(Omega=1.0, delta_t=0.37)
        out = apply_drive(p, drive)
        np.testing.assert_allclose(np.delete(out, [3, 7]), 0.125, atol=1e-15)

    def test_drive_spec_validation(self):
        with pytest.raises(ParameterError):
            DriveSpec(Omega=0.0, delta_t=1.0)
        with pytest.raises(ParameterError):
            DriveSpec(Omega=1.0, delta_t=-1.0)

    @pytest.mark.parametrize("Omega, delta_t, field", [
        (math.inf, 1.0, "Omega"), (math.nan, 1.0, "Omega"),
        (1.0, math.inf, "delta_t"), (1.0, math.nan, "delta_t"),
    ])
    def test_drive_spec_rejects_non_finite(self, Omega, delta_t, field):
        with pytest.raises(ParameterError, match=f"{field} = .* finite"):
            DriveSpec(Omega=Omega, delta_t=delta_t)


# oracle-path inputs that a comparison test alone let through: nan and inf
# times never reached the horizon, and nan populations, density matrices,
# frequencies and temperatures came back as nan or an untyped LinAlgError;
# apply_drive takes a population vector only, a density matrix goes to the oracle
BAD_ORACLE_INPUTS = {
    "populations-nan-time": lambda x: evolve_populations(x, np.eye(8)[0], [0.0, math.nan]),
    "populations-inf-time": lambda x: evolve_populations(x, np.eye(8)[0], [0.0, math.inf]),
    "density-nan-time": lambda x: evolve_density_matrix(x, np.diag(np.eye(8)[0]),
                                                        [0.0, math.nan]),
    "density-inf-time": lambda x: evolve_density_matrix(x, np.diag(np.eye(8)[0]),
                                                        [0.0, math.inf]),
    "nan-time-only": lambda x: evolve_populations(x, np.eye(8)[0], [math.nan]),
    "two-inf-times": lambda x: evolve_populations(x, np.eye(8)[0], [0.0, math.inf, math.inf]),
    "nan-populations": lambda x: apply_drive(np.full(8, math.nan), DriveSpec(1.0, 0.1)),
    "nan-density-matrix": lambda x: drive_density_matrix(np.full((8, 8), math.nan),
                                                         DriveSpec(1.0, 0.1)),
    "inf-density-matrix": lambda x: drive_density_matrix(np.diag([math.inf] + [0.0] * 7),
                                                         DriveSpec(1.0, 0.1)),
    "density-matrix-to-apply-drive": lambda x: apply_drive(np.eye(8) / 8.0, DriveSpec(1.0, 0.1)),
    "nan-omega": lambda x: bose_occupation(math.nan, 1.0),
    "nan-T": lambda x: bose_occupation(1.0, math.nan),
    "inf-T": lambda x: bose_occupation(1.0, math.inf),
    "nan-omega_i": lambda x: mixing_angle(math.nan, 0.1),
    "nan-g": lambda x: mixing_angle(1.0, math.nan),
    "inf-g": lambda x: mixing_angle(1.0, math.inf),
}


@pytest.mark.parametrize("call", BAD_ORACLE_INPUTS.values(), ids=BAD_ORACLE_INPUTS.keys())
def test_non_finite_oracle_inputs_raise(fig2_params, call):
    with pytest.raises(ParameterError):
        call(fig2_params)
