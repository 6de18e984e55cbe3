import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransistor import (
    ParameterError,
    SystemParams,
    analytic_eigensystem,
    build_hamiltonian,
    mixing_angle,
    validate_secular,
)
from qtransistor.model import analytic_eigenvalues, basis_index, min_distinct_bohr_gap

from conftest import random_params

params_strategy = st.builds(
    lambda wL, wM, g, l1, l2, l3: SystemParams(
        omega_L=wL, omega_M=wM, g=g,
        T_L=5.0, T_M=1.0, T_R=0.5,
        gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        lambda1=l1, lambda2=l2, lambda3=l3,
    ),
    wL=st.floats(5.0, 50.0),
    wM=st.floats(0.5, 2.0),
    g=st.floats(0.05, 1.0),
    l1=st.floats(0.0, 1.0),
    l2=st.floats(0.0, 1.0),
    l3=st.floats(0.0, 1.0),
)


class TestSystemParams:
    def test_omega_R_is_derived(self, fig2_params):
        assert fig2_params.omega_R == 31.0

    def test_rejects_bad_lambda(self):
        with pytest.raises(ParameterError):
            SystemParams(omega_L=30, omega_M=1, g=0.1, T_L=5, T_M=1, T_R=0.5,
                         gamma_L=2e-3, gamma_M=2e-3, gamma_R=2e-3, lambda1=1.2)

    @pytest.mark.parametrize("field", ["omega_L", "omega_M", "T_M", "gamma_R"])
    def test_rejects_nonpositive(self, fig2_params, field):
        with pytest.raises(ParameterError):
            fig2_params.replace(**{field: 0.0})

    def test_rejects_negative_g(self, fig2_params):
        with pytest.raises(ParameterError):
            fig2_params.replace(g=-0.1)


class TestHamiltonian:
    def test_decoupled_spectrum(self, fig2_params):
        # free qubits at omega_L = omega_M = 1 (omega_R = 2): energies
        # (s1 + s2 + 2 s3) / 2 over all sign choices
        H = build_hamiltonian(fig2_params.replace(omega_L=1.0, g=0.0))
        assert np.allclose(H, np.diag(np.diagonal(H)))
        assert sorted(np.diagonal(H)) == [-2, -1, -1, 0, 0, 1, 1, 2]

    def test_fig2_matrix_elements(self, fig2_params):
        H = build_hamiltonian(fig2_params)
        i000, i111 = basis_index(0, 0, 0), basis_index(1, 1, 1)
        assert H[i000, i111] == pytest.approx(0.1)
        assert H[i000, i000] == pytest.approx(-31.0)

    @settings(max_examples=50, deadline=None)
    @given(params=params_strategy)
    def test_traceless_and_symmetric(self, params):
        H = build_hamiltonian(params)
        assert abs(np.trace(H)) < 1e-12 * max(1.0, abs(H).max())
        assert np.array_equal(H, H.T)


class TestMixingAngle:
    def test_central_doublet_angle(self):
        assert mixing_angle(0.0, 0.3) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_decoupled_limit(self):
        assert mixing_angle(2.0, 0.0) == 0.0
        assert mixing_angle(0.0, 0.0) == pytest.approx(math.pi / 4)

    def test_value_at_fig2_top_doublet(self):
        # independent evaluation of the defining formula
        w, g = 31.0, 0.1
        expected = g / math.sqrt((math.sqrt(w * w + g * g) + w) ** 2 + g * g)
        assert math.sin(mixing_angle(w, g)) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.61289693200161364e-03, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(w=st.floats(0.0, 100.0), g=st.floats(1e-6, 10.0))
    def test_range(self, w, g):
        beta = mixing_angle(w, g)
        assert 0.0 < beta <= math.pi / 4 + 1e-15

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            mixing_angle(-1.0, 0.1)
        with pytest.raises(ParameterError):
            mixing_angle(1.0, -0.1)


class TestEigensystem:
    def test_fig2_ground_energy(self, fig2_params):
        eig = analytic_eigensystem(fig2_params)
        assert eig.eigenvalues[0] == pytest.approx(-31.000161289902994, rel=1e-13)

    def test_decoupled_limit(self, fig2_params):
        eig = analytic_eigensystem(fig2_params.replace(g=1e-9))
        assert eig.eigenvalues[0] == pytest.approx(-31.0)
        assert eig.eigenvalues[1] == pytest.approx(-30.0)
        assert eig.eigenvalues[2] == pytest.approx(-1.0)
        assert abs(eig.eigenvalues[3]) < 1e-8

    def test_g_zero_degenerate_doublet(self, fig2_params):
        eig = analytic_eigensystem(fig2_params.replace(g=0.0))
        assert eig.eigenvalues[3] == eig.eigenvalues[4] == 0.0
        assert eig.mixing_angles.beta_4 == pytest.approx(math.pi / 4)
        assert eig.mixing_angles.beta_R == 0.0

    def test_spectrum_symmetric(self, fig2_params):
        eig = analytic_eigensystem(fig2_params)
        assert np.allclose(eig.eigenvalues, -eig.eigenvalues[::-1], atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(params=params_strategy)
    def test_matches_dense_diagonalization(self, params):
        H = build_hamiltonian(params)
        eig = analytic_eigensystem(params)
        # eigenpair residual and orthonormality
        assert np.max(np.abs(H @ eig.eigenvectors
                             - eig.eigenvectors * eig.eigenvalues)) < 1e-12 * abs(H).max()
        assert np.max(np.abs(eig.eigenvectors.T @ eig.eigenvectors - np.eye(8))) < 1e-12
        # eigenvalues against the dense oracle
        numeric = np.linalg.eigvalsh(H)
        np.testing.assert_allclose(np.sort(eig.eigenvalues), numeric,
                                   rtol=1e-10, atol=1e-12)

    def test_eigenvector_pair_structure(self, fig2_params):
        # every eigenvector touches exactly two basis states, bit-flips of each other
        eig = analytic_eigensystem(fig2_params)
        for col in eig.eigenvectors.T:
            support = np.flatnonzero(np.abs(col) > 1e-14)
            assert len(support) == 2
            assert support[0] + support[1] == 7


class TestValidateSecular:
    def test_fig2_passes(self, fig2_params):
        report = validate_secular(fig2_params)
        assert report.passed
        assert report.ratio_2g_max_gamma == pytest.approx(100.0)

    def test_strong_coupling_passes(self, fig2_params):
        report = validate_secular(fig2_params.replace(g=0.7))
        assert report.passed
        assert report.ratio_2g_max_gamma == pytest.approx(700.0)

    def test_weak_coupling_warns(self, fig2_params):
        report = validate_secular(fig2_params.replace(g=0.002))
        assert not report.passed
        assert any("2g" in w for w in report.warnings)

    def test_large_g_warns(self, fig2_params):
        report = validate_secular(fig2_params.replace(g=1.0, omega_M=0.9))
        assert any("omega" in w for w in report.warnings)

    def test_reports_bohr_gap(self, fig2_params):
        report = validate_secular(fig2_params)
        eig = analytic_eigensystem(fig2_params)
        assert report.min_bohr_gap == pytest.approx(
            min_distinct_bohr_gap(eig.eigenvalues))
        assert 0.0 < report.min_bohr_gap < 1.0

    def test_bohr_gap_is_bit_identical_to_the_eigensystem_route(self, fig2_params):
        # the closed-form eigenvalues written out: the helper, the
        # eigensystem and the secular check must all give these bits
        rng = np.random.default_rng(29)
        draws = [random_params(rng) for _ in range(200)]
        draws += [fig2_params.replace(g=0.0), fig2_params.replace(omega_L=2.0, omega_M=2.0)]
        for params in draws:
            g = params.g
            eR = math.sqrt(params.omega_R * params.omega_R + g * g)
            eL = math.sqrt(params.omega_L * params.omega_L + g * g)
            eM = math.sqrt(params.omega_M * params.omega_M + g * g)
            old = np.array([-eR, -eL, -eM, -g, g, eM, eL, eR])
            assert analytic_eigenvalues(params).tobytes() == old.tobytes()
            assert analytic_eigensystem(params).eigenvalues.tobytes() == old.tobytes()
            assert validate_secular(params).min_bohr_gap == min_distinct_bohr_gap(old)


def test_random_regime_eigensystems():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = random_params(rng)
        eig = analytic_eigensystem(params)
        H = build_hamiltonian(params)
        assert np.max(np.abs(H @ eig.eigenvectors
                             - eig.eigenvectors * eig.eigenvalues)) < 1e-11 * abs(H).max()
