import math

import mpmath
import numpy as np
import pytest

from qtransistor import (
    DegenerateControlError,
    ParameterError,
    amplification_factor,
    channels_analytic,
    heat_currents,
    optimize_lambda,
    rate_matrix,
    steady_state,
)

from qtransistor.dynamics import solve
from qtransistor.oracles import (
    closed_form_discrepancy,
    closed_form_populations,
    heat_currents_trace,
)

from conftest import COLD, DARK_CROSSOVER_U, near_dark, random_params


def central_difference_alpha_L(params, control, dT):
    """Oracle: alpha_L from steady-state re-solves at T_control +- dT."""
    field = f"T_{control}"
    T = getattr(params, field)

    def currents(value):
        point = params.replace(**{field: value})
        return heat_currents(point, steady_state(point)).as_array()

    dQ = currents(T + dT) - currents(T - dT)
    return dQ[0] / dQ[1]

# closed-form populations frozen from an independent transcription of the
# printed determinant expansion (bordered Cramer over the active states),
# evaluated at two fully-common-coupling operating points
FROZEN_CLOSED_FORM = {
    # omega_L=30, omega_M=1, g=0.3, T=(5,1,0.5), gamma=0.002, rho44=0
    "dark_fig7": np.array([
        7.29740058007315451e-01, 2.68206186294309756e-01, 1.58461103172798036e-03,
        0.0, 3.37075922371546702e-04, 1.32068744275275820e-04, 0.0, 0.0,
    ]),
    # omega_L=12, omega_M=1.5, g=0.6, T=(4,2,0.8), gamma=(3e-3,1e-3,2e-3), rho44=0.25
    "dark_alt": np.array([
        4.93310753563245719e-01, 2.24817302863830476e-01, 2.30077627784138414e-02,
        2.50000000000000000e-01, 5.87472068025180101e-03, 2.98946011425799824e-03,
        0.0, 0.0,
    ]),
}


class TestHeatCurrents:
    def test_equilibrium_currents_vanish(self, fig2_params):
        params = fig2_params.replace(T_L=1.7, T_M=1.7, T_R=1.7)
        q = heat_currents(params, steady_state(params))
        assert abs(q.Q_L) < 1e-12 and abs(q.Q_M) < 1e-12 and abs(q.Q_R) < 1e-12

    def test_fig2_regime_signs(self, fig2_params):
        for T_M in (0.2, 1.0, 2.0, 3.0):
            params = fig2_params.replace(T_M=T_M)
            q = heat_currents(params, steady_state(params))
            assert q.Q_L > 0 and q.Q_R < 0
            assert abs(q.Q_M) < 0.1 * abs(q.Q_L)
            assert q.is_steady

    def test_conservation_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            params = random_params(rng)
            q = heat_currents(params, steady_state(params))
            assert abs(q.total) < 1e-10 * max(abs(q.Q_L), abs(q.Q_M), abs(q.Q_R))

    def test_dark_currents_halve_with_rho44(self, dark_params):
        q0 = heat_currents(dark_params, steady_state(dark_params, rho44_init=0.0))
        q5 = heat_currents(dark_params, steady_state(dark_params, rho44_init=0.5))
        np.testing.assert_allclose(q5.as_array(), 0.5 * q0.as_array(), rtol=1e-12)

    def test_trace_form_agreement(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            params = random_params(rng)
            p = steady_state(params)
            a = heat_currents(params, p).as_array()
            b = heat_currents_trace(params, p).as_array()
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-22)

    def test_transient_state_flagged(self, fig2_params):
        q = heat_currents(fig2_params, np.eye(8)[0])
        assert not q.is_steady
        assert q.steady_residual > 1e-8

    # the residual is in units of the largest gamma, so one threshold holds at
    # every rate scale: in absolute terms the exact steady state's rounding
    # reads ~5e-5 at gamma_L = 1e12, and the ground state e_0 moves by ~3e-10
    # at gamma_L = 1e-9
    @pytest.mark.parametrize("gamma", [1e-9, 0.002, 1e12])
    def test_residual_is_in_units_of_the_largest_gamma(self, fig2_params, gamma):
        params = fig2_params.replace(gamma_L=gamma, gamma_M=gamma / 2, gamma_R=gamma / 3)
        steady = heat_currents(params, steady_state(params))
        assert steady.is_steady
        assert steady.Q_L > 0 and steady.Q_R < 0
        transient = heat_currents(params, np.eye(8)[0])
        assert not transient.is_steady
        assert transient.steady_residual > 1e-8
        assert heat_currents_trace(params, np.eye(8)[0]).steady_residual == pytest.approx(
            transient.steady_residual, rel=1e-12)

    @pytest.mark.parametrize("p", [[0.5, 0.5], np.full((1, 8), 0.125), np.ones(9) / 9])
    def test_rejects_population_vector_of_wrong_shape(self, fig2_params, p):
        with pytest.raises(ParameterError, match="must have 8 components"):
            heat_currents(fig2_params, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_population_vector_that_is_not_finite(self, fig2_params, bad):
        p = steady_state(fig2_params).tolist()
        p[7] = bad
        with pytest.raises(ParameterError, match="must hold finite numbers"):
            heat_currents(fig2_params, p)

    def test_accepts_a_list_of_populations(self, fig2_params):
        p = steady_state(fig2_params)
        assert heat_currents(fig2_params, p.tolist()) == heat_currents(fig2_params, p)


def entropy_production(params):
    """sigma = -sum_nu Q_nu / T_nu at the steady state of each point, Q
    counted positive into the system."""
    sol = solve(params)
    assert all(error is None for error in sol.errors)
    return -np.sum(sol.currents / np.array([[p.T_L, p.T_M, p.T_R] for p in params]), axis=1)


class TestSecondLaw:
    # each bath is in equilibrium, so the steady entropy production of the
    # global master equation is >= 0 (Spohn, J. Math. Phys. 19 (1978) 1227):
    # a check with no tolerance

    def test_validated_draws(self):
        # the smallest sigma / max|Q_nu / T_nu| here is 0.014
        rng = np.random.default_rng(11)
        assert np.all(entropy_production([random_params(rng) for _ in range(2000)]) >= 0.0)

    @pytest.mark.parametrize("cold", [False, True])
    def test_dark_crossover(self, fig2_params, cold):
        # the smallest sigma / max|Q_nu / T_nu| here is 0.89
        base = fig2_params.replace(**COLD) if cold else fig2_params
        assert np.all(entropy_production([near_dark(base, u) for u in DARK_CROSSOVER_U]) >= 0.0)


class TestAmplification:
    def test_fig2_magnitude_and_sum(self, fig2_params):
        res = amplification_factor(fig2_params)
        assert 20.0 < abs(res.alpha_L) < 45.0
        assert 20.0 < abs(res.alpha_R) < 45.0
        assert res.alpha_L + res.alpha_R == pytest.approx(-1.0, abs=1e-6)

    def test_alpha_sum_random_draws(self):
        rng = np.random.default_rng(57)
        checked = 0
        for _ in range(12):
            params = random_params(rng)
            try:
                res = amplification_factor(params)
            except DegenerateControlError:
                continue
            assert res.alpha_L + res.alpha_R == pytest.approx(-1.0, abs=1e-6)
            checked += 1
        assert checked >= 8

    def test_dark_state_invariance(self, dark_params):
        values = [amplification_factor(dark_params, rho44_init=r).alpha_L
                  for r in (0.0, 0.3, 0.6, 0.9)]
        assert max(values) - min(values) < 1e-8

    def test_linear_response_matches_finite_differences(self, fig2_params):
        # central differences of full re-solves at T_M +- dT carry an
        # O(dT^2) truncation error: small against 1e-5 at dT = 1e-3 T_M and
        # shrinking about fourfold when dT halves
        exact = amplification_factor(fig2_params).alpha_L
        gaps = [abs(central_difference_alpha_L(fig2_params, "M", s * fig2_params.T_M)
                    - exact) / abs(exact)
                for s in (1e-3, 5e-4)]
        assert gaps[0] <= 1e-5
        assert 3.0 < gaps[0] / gaps[1] < 5.0

    def test_degenerate_control_raises(self, fig2_params):
        # a control bath so cold that its occupations underflow to zero
        # leaves Q_M insensitive to T_M
        frozen = fig2_params.replace(T_M=0.001)
        with pytest.raises(DegenerateControlError):
            amplification_factor(frozen, control="M")

    def test_cold_control_still_responds(self, fig2_params):
        # at T_M = 0.005 nbar ~ e^-181 is tiny but not zero: the response is
        # small, yet alpha, a ratio of two responses, stays finite
        res = amplification_factor(fig2_params.replace(T_M=0.005), control="M")
        assert np.isfinite(res.alpha_L)
        assert abs(res.alpha_L + res.alpha_R + 1.0) <= 1e-9 * abs(res.alpha_L)

    def test_control_sign_change_region(self, fig2_params):
        # dQ_M/dT_R changes sign across T_R in the right-control regime and
        # alpha flips with it (alpha_L ~ -67 at T_R = 1, ~ +113.5 at T_R = 2)
        base = fig2_params.replace(g=0.7, lambda1=0.9, lambda2=0.1,
                                   lambda3=0.1, T_L=1.6, T_M=7.0)
        near = amplification_factor(base.replace(T_R=1.0), control="R")
        far = amplification_factor(base.replace(T_R=2.0), control="R")
        assert np.sign(near.alpha_L) != np.sign(far.alpha_L)
        for res in (near, far):
            assert abs(res.alpha_L + res.alpha_R + 1.0) <= 1e-9

    def test_control_validation(self, fig2_params):
        with pytest.raises(ParameterError):
            amplification_factor(fig2_params, control="X")

    def test_temperature_trend_without_common_coupling(self, fig2_params):
        # independent reservoirs: amplification falls as the control bath warms
        base = fig2_params.replace(g=0.7, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        values = [amplification_factor(base.replace(T_M=T)).alpha_L
                  for T in (0.5, 1.0, 2.0, 3.0)]
        assert all(b < a for a, b in zip(values, values[1:])), values

    def test_temperature_trend_fully_common(self, dark_params):
        # completely correlated transitions reverse the trend at higher T_M
        # (after a suppression dip at low temperature)
        values = [
            amplification_factor(dark_params.replace(T_M=T), rho44_init=0.0).alpha_L
            for T in (1.0, 2.0, 3.0)
        ]
        assert values[0] < values[1] < values[2], values


def mp_alpha(params, control, rho44_init=None, digits=50):
    """Oracle: linear-response (alpha_L, alpha_R) in `digits`-digit arithmetic.

    Built from rate_matrix's off-diagonal rates and channels_analytic's
    rows.  A control-reservoir row (i, j) at Bohr frequency w has
    W[i, j] = gamma a^2 (nbar + 1) and W[j, i] = gamma a^2 nbar, so both
    change with T at gamma a^2 nbar (nbar + 1) w / T^2
    = W[i, j] W[j, i] / (W[i, j] - W[j, i]) w / T^2.  The steady state and
    its derivative come from bordered solves (first balance row replaced
    by the normalisation) on the free states; a pinned dark state 3 keeps
    rho44_init and no derivative.  Also returns, for dQ_L, dQ_M and dQ_R,
    the cancellation sum|terms| / |sum| of their row sums.
    """
    W = rate_matrix(params)
    free = [k for k in range(8) if rho44_init is None or k != 3]
    with mpmath.workdps(digits):
        zero = mpmath.mpf(0)
        R = [[mpmath.mpf(float(W[i, j])) if i != j else zero for j in range(8)]
             for i in range(8)]
        dR = [[zero] * 8 for _ in range(8)]
        T = mpmath.mpf(params.temperature(control))
        rows = []
        for ch in channels_analytic(params):
            w = mpmath.mpf(ch.frequency)
            for i, j, _ in ch.amplitudes:
                rows.append((ch.reservoir, i, j, w))
                if ch.reservoir == control:
                    dR[i][j] = dR[j][i] = R[i][j] * R[j][i] / (R[i][j] - R[j][i]) * w / T ** 2

        def apply(X, p, i):  # row i of the generator with off-diagonal rates X, times p
            return mpmath.fsum(X[i][j] * p[j] - X[j][i] * p[i] for j in range(8))

        def bordered(rhs, total):
            A = mpmath.matrix([[R[a][b] if a != b else -mpmath.fsum(R[k][b] for k in range(8))
                                for b in free] for a in free])
            b = mpmath.matrix([rhs[a] for a in free])
            for c in range(len(free)):
                A[0, c] = 1
            b[0] = total
            x = mpmath.lu_solve(A, b)
            return {k: x[c] for c, k in enumerate(free)}

        pin = mpmath.mpf(rho44_init or 0)
        p = bordered([zero] * 8, 1 - pin)
        p = [p.get(k, pin) for k in range(8)]
        dp = bordered([-apply(dR, p, i) for i in range(8)], zero)
        dp = [dp.get(k, zero) for k in range(8)]
        terms = {nu: [] for nu in "LMR"}
        for nu, i, j, w in rows:
            terms[nu].append(w * (R[j][i] * dp[i] - R[i][j] * dp[j]))
            if nu == control:
                terms[nu].append(w * dR[i][j] * (p[i] - p[j]))
        dQ = {nu: mpmath.fsum(t) for nu, t in terms.items()}
        cancellation = [float(mpmath.fsum(abs(x) for x in terms[nu]) / abs(dQ[nu]))
                        for nu in "LMR"]
        return np.array([float(dQ["L"] / dQ["M"]), float(dQ["R"] / dQ["M"])]), cancellation


def assert_alpha_matches_mp(params, rho44_init=None):
    # The kernel gets p' by eliminating W from the top state down with GTH's
    # own factors (dynamics._derivative).  W is a column diagonally dominant
    # M-matrix, so that elimination needs no pivoting, its reduced rates
    # stay non-negative and do not grow, and the forward sweep cannot grow
    # the 1-norm of the right-hand side: its backward error is componentwise,
    # about n eps |W| (n = 8 states), as a pivoted LU solve's would be.  With
    # A the system bordered by sum(p') = 0 in the row of the most populated
    # state, a componentwise backward error n eps |A| gives p' a relative
    # error of at most n eps cond_S(A), Skeel's condition || |A^-1| |A| ||_inf
    # (J. ACM 26 (1979) 494).  Unlike the normwise cond_2(A) it ignores row
    # scaling: near the dark state cond_2 grows as 10^2u only because state
    # 3's row and column shrink, while cond_S stays below 45 in every case here.
    # Each dQ/dT sums row terms that are C = sum|terms| / |dQ/dT| times
    # larger than the sum, which multiplies that error by C, and
    # alpha_L = dQ_L / dQ_M adds the errors of numerator and denominator.
    # This is a first-order worst case; the
    # steady state's own few-ulp error is far below it.  The kernel takes
    # dQ_M as -(dQ_L + dQ_R) where that sums fewer row heats in absolute
    # value: its error is then C_L |dQ_L| + C_R |dQ_R|, relative to dQ_M
    # C_L |alpha_L| + C_R |alpha_R|, so dQ_M carries the smaller of the two.
    ref, (c_L, c_M, c_R) = mp_alpha(params, "M", rho44_init)
    c_M = min(c_M, c_L * abs(ref[0]) + c_R * abs(ref[1]))
    res = amplification_factor(params, "M", rho44_init=rho44_init)
    free = [k for k in range(8) if rho44_init is None or k != 3]
    A = rate_matrix(params)[np.ix_(free, free)]
    A[np.argmax(steady_state(params, rho44_init)[free])] = 1.0
    # both conditions in 50 digits: where cond_2(A) passes 1/eps a double
    # inverse or SVD turns either into noise (cond_S 1.1e14 for a true 44.3
    # at the cold point at lambda = 1 - 2^-53; cond_2 4e18 to 1e20 in double
    # for a true 1e25 to 1e35 at the near-dark points)
    with mpmath.workdps(50):
        M = mpmath.matrix(A.tolist())
        skeel = float(mpmath.mnorm((M ** -1).apply(abs) * M.apply(abs), "inf"))
        sigma = mpmath.svd_r(M, compute_uv=False)
        cond_2 = float(max(sigma) / min(sigma))
    terms = 8 * np.finfo(float).eps * np.array([c_L + c_M, c_R + c_M])
    bound, cond_2_bound = skeel * terms, cond_2 * terms
    error = np.abs(np.array([res.alpha_L, res.alpha_R]) - ref) / np.abs(ref)
    print(f"alpha error {error}, bound {bound} by cond_S = {skeel:.4g}, "
          f"{cond_2_bound} by cond_2 = {cond_2:.4g}")
    assert np.all(bound <= cond_2_bound), (bound, cond_2_bound)
    assert np.all(error <= bound), (error, bound)


class TestAlphaOracle:
    @pytest.mark.parametrize("T_M", [0.05, 0.5, 1.0, 2.0, 3.0])
    def test_fig2_across_control_temperature(self, fig2_params, T_M):
        # T_M = 0.05 is the cold point: omega_M / T_M = 20, nbar ~ 2e-9
        assert_alpha_matches_mp(fig2_params.replace(T_M=T_M))

    def test_cold_fig2(self, fig2_params):
        # dQ_M/dT sums row heats 3.8e13 times larger than itself, while
        # dQ_L and dQ_R hardly cancel: the direct sum kept ~3 digits of alpha
        assert_alpha_matches_mp(fig2_params.replace(T_L=1.0, T_M=0.05, T_R=0.05))

    @pytest.mark.parametrize("u", [1, 2, 4, 6, 8, *DARK_CROSSOVER_U])
    def test_near_dark_fig2(self, fig2_params, u):
        # lambda = 1 - 10^-u: the dark state's rates fall as 10^-2u and cond_2(A)
        # grows as 10^2u, but cond_S(A) stays near 38, so for every u the
        # bound stays near 4e-12
        lam = 1.0 - 10.0 ** -u
        assert_alpha_matches_mp(fig2_params.replace(lambda1=lam, lambda2=lam, lambda3=lam))

    @pytest.mark.parametrize("u", [2, 5, 8, *DARK_CROSSOVER_U])
    def test_near_dark_cold_fig2(self, fig2_params, u):
        lam = 1.0 - 10.0 ** -u
        assert_alpha_matches_mp(fig2_params.replace(T_L=1.0, T_M=0.05, T_R=0.05, lambda1=lam,
                                                    lambda2=lam, lambda3=lam))

    @pytest.mark.parametrize("rho44", [0.0, 0.3, 0.99])
    def test_dark_pinned_fig2(self, fig2_params, rho44):
        dark = fig2_params.replace(lambda1=1.0, lambda2=1.0, lambda3=1.0)
        if rho44 == 0.99:  # the pinned dark state holds the most population
            assert np.argmax(steady_state(dark, rho44)) == 3
        assert_alpha_matches_mp(dark, rho44)


class TestClosedForm:
    def test_frozen_fig7_point(self, dark_params):
        p = closed_form_populations(dark_params, 0.0)
        np.testing.assert_allclose(p, FROZEN_CLOSED_FORM["dark_fig7"],
                                   rtol=1e-10, atol=1e-15)

    def test_frozen_second_point(self):
        params = dark_alt_params()
        p = closed_form_populations(params, 0.25)
        np.testing.assert_allclose(p, FROZEN_CLOSED_FORM["dark_alt"],
                                   rtol=1e-10, atol=1e-15)

    def test_rho44_one_empties_active_states(self, dark_params):
        p = closed_form_populations(dark_params, 1.0)
        np.testing.assert_allclose(p, np.eye(8)[3], atol=1e-15)

    def test_linear_in_active_weight(self, dark_params):
        p0 = closed_form_populations(dark_params, 0.0)
        p5 = closed_form_populations(dark_params, 0.5)
        active = [0, 1, 2, 4, 5]
        np.testing.assert_allclose(p5[active], 0.5 * p0[active], rtol=1e-13)

    def test_matches_full_solver_within_validity(self, dark_params):
        diff, neglected = closed_form_discrepancy(dark_params, 0.0)
        assert diff < 1e-4
        assert diff <= neglected

    def test_warns_outside_validity_regime(self, dark_params):
        # hot baths populate the neglected top doublet; still returns numbers
        hot = dark_params.replace(omega_L=5.0, T_L=3.0, T_M=3.0, T_R=2.5)
        with pytest.warns(UserWarning, match="validity"):
            diff, neglected = closed_form_discrepancy(hot, 0.0)
        assert neglected > 1e-3
        assert diff > 0.0

    def test_requires_fully_common(self, fig2_params):
        with pytest.raises(ParameterError):
            closed_form_populations(fig2_params, 0.0)

    def test_rejects_bad_rho44(self, dark_params):
        with pytest.raises(ParameterError):
            closed_form_populations(dark_params, -0.1)


def dark_alt_params():
    from qtransistor import SystemParams

    return SystemParams(
        omega_L=12.0, omega_M=1.5, g=0.6,
        T_L=4.0, T_M=2.0, T_R=0.8,
        gamma_L=3e-3, gamma_M=1e-3, gamma_R=2e-3,
        lambda1=1.0, lambda2=1.0, lambda3=1.0,
    )


class TestOptimizeLambda:
    def test_single_point_matches_direct_call(self, fig2_params):
        scan = optimize_lambda(fig2_params, free=("lambda1",), resolution=1)
        direct = amplification_factor(fig2_params)
        assert scan.alpha_L[0] == pytest.approx(direct.alpha_L, rel=1e-12)

    def test_fig4_axis_trends(self, fig2_params):
        base = fig2_params.replace(g=0.3, T_M=3.0,
                                   lambda1=0.3, lambda2=0.3, lambda3=0.3)
        up = optimize_lambda(base, free=("lambda1",), resolution=5)
        assert up.monotonicity["lambda1"] == "increasing"
        assert up.argmax == (1.0,)
        down = optimize_lambda(base, free=("lambda3",), resolution=5)
        assert down.monotonicity["lambda3"] == "decreasing"
        assert down.argmax == (0.0,)

    def test_two_axis_scan_shape(self, fig2_params):
        base = fig2_params.replace(g=0.3, T_M=3.0, lambda2=0.3)
        scan = optimize_lambda(base, free=("lambda1", "lambda3"), resolution=3)
        assert scan.alpha_L.shape == (3, 3)
        assert scan.n_failed == 0
        assert scan.max_alpha_L == np.nanmax(scan.alpha_L)

    def test_rejects_bad_axis(self, fig2_params):
        with pytest.raises(ParameterError):
            optimize_lambda(fig2_params, free=("T_M",))

    @pytest.mark.parametrize("resolution", [2.5, 0, math.nan])
    def test_rejects_bad_resolution(self, fig2_params, resolution):
        with pytest.raises(ParameterError, match="resolution"):
            optimize_lambda(fig2_params, resolution=resolution)

    def test_integral_float_resolution(self, fig2_params):
        scan = optimize_lambda(fig2_params, resolution=3.0)
        np.testing.assert_array_equal(scan.alpha_L,
                                      optimize_lambda(fig2_params, resolution=3).alpha_L)

    def test_scan_through_dark_corner(self, dark_params):
        # the lambda1 = 1 endpoint needs the dark-state pin, the interior
        # points must not receive it; no grid point may fail
        scan = optimize_lambda(dark_params, free=("lambda1",), resolution=3,
                               rho44_init=0.0)
        assert scan.n_failed == 0
        assert np.all(np.isfinite(scan.alpha_L))
