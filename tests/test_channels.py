import numpy as np
import pytest

from qtransistor import (
    analytic_eigensystem,
    build_hamiltonian,
    channels_analytic,
)
from qtransistor.cli import main
from qtransistor.experiments import load_config, params_from_config
from qtransistor.model import basis_index
from qtransistor.oracles import (
    FrequencyAmbiguityError,
    decompose_numeric,
    jump_operators,
    positive_frequency_part,
)

from conftest import random_params


def _channels_by_reservoir(channels):
    out = {"L": [], "M": [], "R": []}
    for ch in channels:
        out[ch.reservoir].append(ch)
    return out


class TestJumpOperators:
    def test_independent_limit_is_bare_lowering(self, fig2_params):
        S_L, S_M, S_R = jump_operators(
            fig2_params.replace(lambda1=0.0, lambda2=0.0, lambda3=0.0))
        # sigma_nu^- alone: four bit-lowering entries each
        for S, bit in ((S_L, 2), (S_M, 1), (S_R, 0)):
            nz = np.argwhere(S != 0)
            assert len(nz) == 4
            for i, j in nz:
                assert j - i == 2 ** bit  # column has the bit set, row cleared
                assert S[i, j] == 1.0

    def test_correlated_term_structure(self, fig2_params):
        # S_R at lambda3 = 1: the pair term adds |000><110| and |001><111|
        _, _, S_R = jump_operators(fig2_params.replace(lambda3=1.0))
        assert np.count_nonzero(S_R) == 6
        assert S_R[basis_index(0, 0, 0), basis_index(1, 1, 0)] == 1.0
        assert S_R[basis_index(0, 0, 1), basis_index(1, 1, 1)] == 1.0
        # the two contributions act on different basis pairs
        assert S_R[basis_index(0, 0, 0), basis_index(1, 1, 1)] == 0.0

    def test_lowering_in_free_energy(self, fig2_params):
        # at g = 0 every nonzero entry connects to a higher free-energy column
        params = fig2_params.replace(g=0.0)
        H = build_hamiltonian(params)
        E = np.diagonal(H)
        for S in jump_operators(params):
            for i, j in np.argwhere(S != 0):
                assert E[j] > E[i]


class TestAnalyticChannels:
    def test_twelve_channels_four_per_reservoir(self, fig2_params):
        by_nu = _channels_by_reservoir(channels_analytic(fig2_params))
        for nu in "LMR":
            assert len(by_nu[nu]) == 4
            assert all(ch.frequency > 0 for ch in by_nu[nu])

    def test_lambda1_one_kills_dark_transitions(self, fig2_params):
        channels = channels_analytic(fig2_params.replace(lambda1=1.0))
        for ch in channels:
            if ch.reservoir != "L":
                continue
            for i, j, _ in ch.amplitudes:
                if ch.index in (3, 4):
                    assert 3 not in (i, j)

    def test_lambda2_zero_coefficients(self, fig2_params):
        # the two amplitudes of the first M channel collapse to cos(beta_M)/sqrt(2)
        params = fig2_params.replace(lambda2=0.0)
        eig = analytic_eigensystem(params)
        expected = np.cos(eig.mixing_angles.beta_M) / np.sqrt(2.0)
        (ch,) = [c for c in channels_analytic(params)
                 if c.reservoir == "M" and c.index == 1]
        amps = sorted(abs(a) for _, _, a in ch.amplitudes)
        assert amps == pytest.approx([expected, expected], rel=1e-14)

    def test_dark_state_rows_vanish(self, dark_params):
        for ch in channels_analytic(dark_params):
            assert np.all(ch.operator[3, :] == 0.0)
            assert np.all(ch.operator[:, 3] == 0.0)

    def test_eigenoperator_commutator(self, fig2_params):
        H_eig = np.diag(analytic_eigensystem(fig2_params).eigenvalues)
        for ch in channels_analytic(fig2_params):
            comm = H_eig @ ch.operator - ch.operator @ H_eig
            assert np.linalg.norm(comm + ch.frequency * ch.operator) < 1e-10

    def test_completeness_of_lowering_part(self, fig2_params):
        # channels reconstruct exactly the positive-frequency part of S_nu;
        # the counter-rotating raising entries stay outside the decomposition
        eig = analytic_eigensystem(fig2_params)
        jumps = dict(zip("LMR", jump_operators(fig2_params)))
        by_nu = _channels_by_reservoir(channels_analytic(fig2_params))
        for nu, S in jumps.items():
            total = sum(ch.operator for ch in by_nu[nu])
            np.testing.assert_allclose(
                total, positive_frequency_part(S, eig), atol=1e-14)

    def test_raising_entries_exist_but_are_excluded(self, fig2_params):
        # strong coupling mixes in genuinely nonzero raising entries
        eig = analytic_eigensystem(fig2_params.replace(g=0.7))
        S_L = jump_operators(fig2_params.replace(g=0.7))[0]
        Se = eig.eigenvectors.T @ S_L @ eig.eigenvectors
        raising = np.where(
            eig.eigenvalues[None, :] < eig.eigenvalues[:, None], Se, 0.0)
        assert np.max(np.abs(raising)) > 1e-4


class TestNumericDecomposition:
    def test_four_channels_per_reservoir(self, fig2_params):
        eig = analytic_eigensystem(fig2_params)
        for S in jump_operators(fig2_params):
            assert len(decompose_numeric(S, eig)) == 4

    def test_diagonal_operator_has_no_channels(self, fig2_params):
        eig = analytic_eigensystem(fig2_params)
        H_eig = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert decompose_numeric(H_eig, eig) == []

    def test_fig2_left_reservoir_frequencies(self, fig2_params):
        wL, wM, g = 30.0, 1.0, 0.1
        wR = wL + wM
        expected = sorted([
            np.sqrt(wR**2 + g**2) - np.sqrt(wM**2 + g**2),
            np.sqrt(wR**2 + g**2) + np.sqrt(wM**2 + g**2),
            np.sqrt(wL**2 + g**2) - g,
            np.sqrt(wL**2 + g**2) + g,
        ])
        eig = analytic_eigensystem(fig2_params)
        S_L = jump_operators(fig2_params)[0]
        freqs = [ch.frequency for ch in decompose_numeric(S_L, eig)]
        np.testing.assert_allclose(freqs, expected, rtol=1e-12)

    def test_channel_frequency_formulas_all_reservoirs(self, fig2_params):
        # each reservoir's four channels sit at e_big -+ e_small with the
        # doublet energies (e_R, e_M), (e_L, g), (e_M, g), (e_R, e_L),
        # (e_R, g), (e_L, e_M) respectively
        params = fig2_params.replace(g=0.7)
        wL, wM, g = params.omega_L, params.omega_M, params.g
        eR = np.sqrt((wL + wM) ** 2 + g * g)
        eL = np.sqrt(wL**2 + g * g)
        eM = np.sqrt(wM**2 + g * g)
        expected = {
            "L": sorted([eR - eM, eR + eM, eL - g, eL + g]),
            "M": sorted([eM - g, eM + g, eR - eL, eR + eL]),
            "R": sorted([eR - g, eR + g, eL - eM, eL + eM]),
        }
        eig = analytic_eigensystem(params)
        for nu, S in zip("LMR", jump_operators(params)):
            freqs = sorted(ch.frequency for ch in decompose_numeric(S, eig))
            np.testing.assert_allclose(freqs, expected[nu], rtol=1e-12)

    def test_matches_analytic_channels(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            params = random_params(rng)
            eig = analytic_eigensystem(params)
            jumps = dict(zip("LMR", jump_operators(params)))
            by_nu = _channels_by_reservoir(channels_analytic(params))
            for nu, S in jumps.items():
                numeric = decompose_numeric(S, eig, reservoir=nu)
                assert len(numeric) == len([c for c in by_nu[nu] if c.amplitudes])
                for ch_n in numeric:
                    match = [c for c in by_nu[nu]
                             if abs(c.frequency - ch_n.frequency) < 1e-9]
                    assert len(match) == 1
                    np.testing.assert_allclose(
                        ch_n.operator, match[0].operator, atol=1e-10)

    def test_ambiguous_tolerance_refused(self, fig2_params):
        eig = analytic_eigensystem(fig2_params)
        S_L = jump_operators(fig2_params)[0]
        with pytest.raises(FrequencyAmbiguityError):
            decompose_numeric(S_L, eig, tol=1.0)

    def test_exact_degeneracy_merges_within_reservoir(self, fig2_params):
        # at g = 0 three of the four left-reservoir frequencies coincide at
        # omega_L while the sin(beta)-weighted channel at omega_R + omega_M
        # empties, so the numerical decomposition regroups to one channel
        # carrying all six surviving amplitudes
        params = fig2_params.replace(g=0.0)
        eig = analytic_eigensystem(params)
        S_L = jump_operators(params)[0]
        channels = decompose_numeric(S_L, eig)
        assert len(channels) == 1
        assert channels[0].frequency == pytest.approx(30.0)
        assert len(channels[0].amplitudes) == 6


# fig2's base point at g = 0, where some channels lose both amplitudes
G0_CONFIG = ("omega_L = 30\nomega_M = 1\ng = 0\nT_L = 5\nT_M = 1\nT_R = 0.5\n"
             "gamma = 0.002\naxis = T_M\nlo = 0.5\nhi = 1.5\npoints = 3\n")


@pytest.mark.parametrize("config", ["fig2", "fig7a", "g0"])
def test_channels_dump_prints_the_analytic_channels(config, tmp_path, capsys):
    # the command prints the transition rows; channels_analytic groups the same rows
    if config == "g0":
        path = tmp_path / "g0.cfg"
        path.write_text(G0_CONFIG)
        config = str(path)
    assert main(["channels-dump", "--config", config]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "reservoir,k,frequency,i,j,amplitude"
    rows = [(nu, int(k), float(freq), int(i) - 1, int(j) - 1, float(a))
            for nu, k, freq, i, j, a in (line.split(",") for line in lines)]
    channels = channels_analytic(params_from_config(load_config(config)))
    assert rows == [(ch.reservoir, ch.index, ch.frequency, i, j, a)
                    for ch in channels for i, j, a in ch.amplitudes]
    assert any(not ch.amplitudes for ch in channels) == config.endswith("g0.cfg")
