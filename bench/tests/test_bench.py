"""Tests of the benchmark's own code: tracer, statistics, gate, oracle, draws.

    python3 -m pytest bench/tests
"""

import os
import shutil
import subprocess
import sys
import types

import mpmath
import numpy as np
import pytest

import draws
import gate
import oracle
import run
import tracing
from qtransistor import SystemParams, heat_currents, rate_matrix, steady_state

FIG2 = SystemParams(
    omega_L=30.0, omega_M=1.0, g=0.1, T_L=5.0, T_M=1.0, T_R=0.5,
    gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
    lambda1=0.7, lambda2=0.7, lambda3=0.7,
)
COLD = FIG2.replace(T_L=1.0, T_M=0.05, T_R=0.05)


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    spans = [
        tracing.Span("root", 0.0, 10.0, -1, 0),
        tracing.Span("a", 1.0, 4.0, 0, 0),
        tracing.Span("a1", 2.0, 3.0, 1, 0),
        tracing.Span("b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans)
    assert summary["root"] == {"calls": 1, "failed": 0, "self_s": 3.0}
    assert sum(e["self_s"] for e in summary.values()) == 10.0


# --- percentiles -------------------------------------------------------------

def test_nearest_rank_percentile():
    samples = list(range(1, 201))  # 1..200
    assert run.percentile(samples, 0.5) == 100
    assert run.percentile(samples, 0.95) == 190
    assert run.percentile([7.0], 0.95) == 7.0


def test_p95_needs_ten_samples_beyond():
    assert run.samples_beyond(200, 0.95) == 10
    assert run.samples_beyond(199, 0.95) == 9


def test_latency_samples_weight_each_point():
    # a 3-point command of 6 ms and a 1-point call of 1 ms
    assert run.latency_samples([(0.006, 3), (0.001, 1)]) == [0.002, 0.002, 0.002, 0.001]


def _fastest(passes):
    best = {}
    for calls in passes:
        run.keep_fastest(best, calls)
    return run.best_calls(best)


def test_each_call_at_its_fastest():
    passes = [[(("a", 0), 0.3, 2), (("b", 0), 0.3, 1)],
              [(("b", 0), 0.1, 1), (("a", 0), 0.4, 2)]]
    assert sorted(_fastest(passes)) == [(0.1, 1), (0.3, 2)]


def test_a_call_in_parts_sums_each_part_at_its_fastest():
    passes = [[(("c", 0), 0.25, 3), (("c", -1), 1.0, 3)],
              [(("c", 0), 0.75, 3), (("c", -1), 0.5, 3)]]
    assert _fastest(passes) == [(0.75, 3)]


# --- gate --------------------------------------------------------------------

def test_gate_accepts_a_steady_point():
    tally = gate.Tally()
    p = steady_state(FIG2)
    q = heat_currents(FIG2, p)
    assert gate.check_populations(p, tally, "fig2") == []
    assert gate.check_currents([q.Q_L, q.Q_M, q.Q_R], tally, "fig2") == []
    assert tally.correct


@pytest.mark.parametrize("k, delta", [
    (5, 1e-9),        # no longer sums to 1
    (7, -1e-3),       # negative (the sum is off as well)
    (2, np.nan),
])
def test_gate_rejects_a_perturbed_population(k, delta):
    tally = gate.Tally()
    p = steady_state(FIG2)
    p[k] += delta
    assert gate.check_populations(p, tally, "x")
    assert not tally.correct


def test_gate_fails_a_non_conserving_current_triple():
    tally = gate.Tally()
    q = heat_currents(FIG2, steady_state(FIG2))
    assert gate.check_currents([q.Q_L, q.Q_M, q.Q_R * (1 + 1e-6)], tally, "x") == ["conservation"]
    assert tally.correct  # a failure to count, not a malformed output
    tally.point(["conservation"])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_gate_alpha_sum():
    tally = gate.Tally()
    assert gate.check_alpha(30.0, -31.0, tally, "x") == []
    assert gate.check_alpha(30.0, -30.0, tally, "x") == ["alpha sum"]


def test_gate_flags_undeclared_exceptions():
    tally = gate.Tally()
    assert gate.check_error("UnderdeterminedError: kernel", tally, "x") == ["UnderdeterminedError"]
    assert tally.correct
    gate.check_error("TypeError: oops", tally, "x")
    assert not tally.correct


def test_stored_reference_passes_its_own_gate():
    tally = gate.Tally()
    expected = os.path.join(draws.__file__.rsplit(os.sep, 1)[0], "expected")
    mp_ref = gate.load_mp_reference(os.path.join(expected, "mp_populations.csv"))
    for name in draws.PRESET_NAMES:
        path = os.path.join(expected, draws.output_name(name))
        gate.check_preset(name, path, path, mp_ref, tally)
    assert tally.correct, tally.problems
    assert tally.reasons["DegenerateControlError"] == 5  # the T_M = 0.02 endpoints


# --- tracer ------------------------------------------------------------------

def _fake_package():
    """pkg.low, pkg.mid (imports low by name) and pkg itself re-exporting both."""
    low = types.ModuleType("fakepkg.low")
    exec("def leaf(x):\n    return x + 1\n", low.__dict__)
    mid = types.ModuleType("fakepkg.mid")
    mid.leaf = low.leaf
    exec("def middle(x):\n    return leaf(x) + leaf(x)\n", mid.__dict__)
    pkg = types.ModuleType("fakepkg")
    pkg.leaf, pkg.middle = low.leaf, mid.middle
    return {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.mid": mid}


def test_tracer_wraps_every_binding_and_restores(monkeypatch):
    modules = _fake_package()
    for key, module in modules.items():
        monkeypatch.setitem(sys.modules, key, module)
    monkeypatch.setattr(tracing, "TRACED", (("low", "leaf"), ("mid", "middle")))
    pkg = modules["fakepkg"]
    original = pkg.leaf
    tracer = tracing.Tracer()
    tracer.install("fakepkg")
    tracer.point = 7
    assert pkg.middle(1) == 4
    assert pkg.leaf(1) == 2
    tracer.uninstall()
    assert pkg.leaf is original and modules["fakepkg.mid"].leaf is original
    names = [(s.name, s.parent, s.point) for s in tracer.spans]
    assert names == [("mid.middle", -1, 7), ("low.leaf", 0, 7), ("low.leaf", 0, 7),
                     ("low.leaf", -1, 7)]


def test_tracer_counts_the_layer_calls_of_one_query():
    """One steady_state + heat_currents query, counted two independent ways.

    At the seed the query builds the eigensystem three times (in
    steady_state's rate_matrix, in heat_currents and in its rate_matrix);
    the profiler hook sees the calls of the original code objects whatever
    binding they went through.
    """
    import qtransistor
    from qtransistor import channels, dynamics, model

    codes = {model.analytic_eigensystem.__code__: "model.analytic_eigensystem",
             channels.channels_analytic.__code__: "channels.channels_analytic",
             dynamics.rate_matrix.__code__: "dynamics.rate_matrix"}
    profiled = {name: 0 for name in codes.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        sys.setprofile(profile)
        try:
            qtransistor.heat_currents(FIG2, qtransistor.steady_state(FIG2))
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    assert calls["dynamics.steady_state"] == calls["observables.heat_currents"] == 1
    assert {name: calls[name] for name in profiled} == profiled
    assert profiled["model.analytic_eigensystem"] == 3
    assert qtransistor.heat_currents is heat_currents


# --- workloads ---------------------------------------------------------------

def test_presets_pass_times_each_point_call_apart(tmp_path, monkeypatch):
    import workloads
    from qtransistor import dynamics, experiments

    monkeypatch.setattr(draws, "PRESET_NAMES", ("fig9a",))
    expected = os.path.join(draws.__file__.rsplit(os.sep, 1)[0], "expected")
    wl = workloads.PresetsCli(0, str(tmp_path), expected)
    wl.check(gate.Tally())
    entries = wl.timed_pass()
    assert experiments.steady_state is dynamics.steady_state
    # steady_state, heat_currents and amplification_factor per point, then the rest
    assert [key for key, _, _ in entries] == [("fig9a", i) for i in range(3 * 6)] + [("fig9a", -1)]
    assert all(dt > 0 and n == 6 for _, dt, n in entries)
    (whole, n), = _fastest([wl.timed_pass(tracing.Tracer())])
    assert n == 6 and whole > 0


# --- oracle ------------------------------------------------------------------

def _bordered_solve(W: np.ndarray) -> np.ndarray:
    """Independent reference: replace one balance row by normalisation, LU at 80 digits."""
    with mpmath.workdps(80):
        A = mpmath.matrix(8, 8)
        for i in range(8):
            for j in range(8):
                if i != j:
                    A[i, j] = mpmath.mpf(float(W[i, j]))
        for j in range(8):
            A[j, j] = -mpmath.fsum(A[i, j] for i in range(8) if i != j)
        for j in range(8):
            A[0, j] = 1
        b = mpmath.matrix([1] + [0] * 7)
        return np.array([float(x) for x in mpmath.lu_solve(A, b)])


@pytest.mark.parametrize("params", [FIG2, COLD])
def test_oracle_matches_an_independent_high_precision_solve(params):
    W = rate_matrix(params)
    ref = oracle.reference_populations(W)
    np.testing.assert_allclose(ref, _bordered_solve(W), rtol=1e-14, atol=0)


def test_oracle_exposes_the_cold_case_defect():
    ref = oracle.reference_populations(rate_matrix(COLD))
    assert ref[6] > 1e-31 and ref[7] > 1e-31
    assert gate.max_relative_error(steady_state(COLD), ref) > gate.POP_RTOL


def test_oracle_pins_the_dark_state():
    dark = FIG2.replace(lambda1=1.0, lambda2=1.0, lambda3=1.0)
    ref = oracle.reference_populations(rate_matrix(dark), 0.3)
    assert ref[3] == 0.3 and abs(ref.sum() - 1.0) < 1e-15
    assert gate.max_relative_error(steady_state(dark, rho44_init=0.3), ref) < gate.POP_RTOL


# --- draws -------------------------------------------------------------------

@pytest.mark.parametrize("make", [draws.point_queries, draws.hard_regime])
def test_draws_repeat_for_a_seed(make):
    assert make(5, n=40) == make(5, n=40)
    assert make(5, n=40) != make(6, n=40)


def test_latin_hypercube_has_one_point_per_stratum():
    u = draws._latin_hypercube(np.random.default_rng(0), 50, 3)
    for column in u.T:
        assert sorted(np.floor(column * 50).astype(int)) == list(range(50))


def test_hard_regime_mix():
    queries = draws.hard_regime(3, n=200)
    kinds = [q.kind for q in queries]
    assert kinds.count("cold") == kinds.count("near-dark") == 100
    lam = np.array([q.params.lambda1 for q in queries if q.kind == "near-dark"])
    assert np.all((lam >= 1 - 1e-1) & (lam <= 1 - 1e-8))


# --- command -----------------------------------------------------------------

def test_run_exits_without_result_when_the_package_is_missing(tmp_path):
    bench = os.path.dirname(os.path.abspath(run.__file__))
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
