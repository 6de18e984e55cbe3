import dataclasses
import math
import os
import subprocess
import sys
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
    dissipator_superoperator,
    evolve_density_matrix,
    evolve_populations,
    jump_operators,
    rate_matrix,
    steady_state,
)
import qtransistor
from qtransistor import dynamics, heat_currents
from qtransistor.channels import ROW_RESERVOIR, channels_analytic
from qtransistor.dynamics import relaxation_horizon, slowest_relaxation_rate, solve

from conftest import random_params


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
        # 1 - lambda = 1e-13 puts every amplitude of state 3 below the
        # channel amplitude cut-off, so nothing leaves it
        lam = 1.0 - 1e-13
        params = fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam)
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

    @pytest.mark.parametrize("u", [2, 5, 8])
    def test_near_dark_state_is_unique(self, fig2_params, u):
        lam = 1.0 - 10.0 ** -u
        params = fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam)
        ref = mp_steady_state(rate_matrix(params))
        np.testing.assert_allclose(steady_state(params), ref, rtol=POPULATION_RTOL, atol=0)

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
    for ch in channels_analytic(params, eig):
        gamma = params.decay_rate(ch.reservoir)
        for i, j, a in ch.amplitudes:
            w = eig.eigenvalues[j] - eig.eigenvalues[i]
            n = bose_occupation(w, params.temperature(ch.reservoir))
            W[i, j] = gamma * a * a * (n + 1.0)
            W[j, i] = gamma * a * a * n
    W[np.diag_indices(8)] -= W.sum(axis=0)
    return W


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
            np.testing.assert_allclose(batch.populations[n], single.populations[0],
                                       rtol=POPULATION_RTOL, atol=0)
            Q = single.currents[0]
            assert np.max(np.abs(batch.currents[n] - Q)) <= 1e-13 * np.max(np.abs(Q))
            np.testing.assert_allclose(batch.alpha[n], single.alpha[0], rtol=1e-12, atol=0)

    def test_failed_points_do_not_disturb_the_batch(self, fig2_params, dark_params):
        lam = 1.0 - 1e-13  # every amplitude of state 3 is cut: no outflow
        points = [fig2_params, dark_params, fig2_params.replace(lambda1=lam, lambda2=lam,
                                                                lambda3=lam),
                  fig2_params, dark_params, fig2_params.replace(T_M=0.001)]
        pins = [None, None, None, 0.3, 1.5, None]
        sol = solve(points, pins, control="M")
        expected = [None, UnderdeterminedError, SteadyStateError, OverdeterminedError,
                    ParameterError, DegenerateControlError]
        assert [type(e) if e is not None else None for e in sol.errors] == expected
        assert np.all(np.isnan(sol.populations[1:5]))
        np.testing.assert_array_equal(sol.populations[0], steady_state(fig2_params))
        # only alpha failed at the frozen control bath
        np.testing.assert_array_equal(sol.populations[5],
                                      steady_state(fig2_params.replace(T_M=0.001)))
        assert np.all(np.isnan(sol.alpha[5]))

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


def fresh(call, *args, **kwargs):
    """call(*args) with no transition table kept from an earlier call."""
    dynamics._last_table = None
    return call(*args, **kwargs)


def query(params, rho44_init=None):
    """steady_state then heat_currents, as arrays: p, (Q_L, Q_M, Q_R, residual)."""
    p = steady_state(params, rho44_init=rho44_init)
    q = heat_currents(params, p)
    return p, np.array([q.Q_L, q.Q_M, q.Q_R, q.steady_residual])


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the transition tables built from scratch (memo misses)."""
    builds = []
    amplitudes = dynamics.transition_amplitudes

    def counted(*args):
        builds.append(1)
        return amplitudes(*args)

    monkeypatch.setattr(dynamics, "transition_amplitudes", counted)
    monkeypatch.setattr(dynamics, "_last_table", None)
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
        x = dynamics._inputs([fig2_params])
        first = dynamics._table(x)
        again = dynamics._table(x.copy())
        assert again is first and len(table_builds) == 1
        p = steady_state(fig2_params)
        heat_currents(fig2_params, p)
        assert len(table_builds) == 1

    def test_kept_arrays_are_read_only(self, fig2_params):
        table, undefined = dynamics._table(dynamics._inputs([fig2_params]))
        for array in (*table, undefined):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_batch_leaves_the_kept_table(self, fig2_params, dark_params, table_builds):
        kept = dynamics._table(dynamics._inputs([fig2_params]))
        entry = dynamics._last_table
        solve([fig2_params, dark_params], [None, 0.3])
        assert dynamics._last_table is entry and len(table_builds) == 2
        assert dynamics._table(dynamics._inputs([fig2_params])) is kept

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

    def test_query_equals_the_kernel(self):
        for params, pin in zip(*mixed_draws(40, seed=77)):
            p, q = query(params, pin)
            sol = fresh(solve, [params], [pin])
            assert p.tobytes() == sol.populations[0].tobytes()
            assert q[:3].tobytes() == sol.currents[0].tobytes()
            assert q[3] == sol.residual[0]


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


def test_package_import_leaves_scipy_unloaded():
    # only the oracle integrators need SciPy, and they import it themselves
    src = os.path.dirname(os.path.dirname(qtransistor.__file__))
    code = "import sys, qtransistor, qtransistor.cli; print('scipy.integrate' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"


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
        rho_out = apply_drive(np.diag(p).astype(complex), drive)
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
        with pytest.raises(ParameterError):
            DriveSpec(Omega=1.0, delta_t=1.0, pair=(3, 9))
