"""Seeded inputs for the three workloads.

Every workload input is built here from the benchmark seed alone; the
program under test only ever receives the resulting `SystemParams` (or, for
presets-cli, CLI argument lists naming shipped presets).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from qtransistor import SystemParams

# the shipped presets; presets-cli runs them in a seeded order per pass
PRESET_NAMES = (
    "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c",
    "fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
)

QUERY_DRAWS = 1000
# hard-regime's failure and accuracy shares vary with the seed; 2000 draws
# hold their run-to-run spread near 1 %
HARD_DRAWS = 2000
DARK_PINNED_SHARE = 0.1


@dataclass(frozen=True)
class Query:
    """One library call: steady_state(params, rho44_init) then heat_currents."""

    kind: str
    params: SystemParams
    rho44_init: float | None = None


def preset_command(name: str, out_dir: str) -> list[str]:
    """CLI arguments that run one shipped preset the way its figure needs."""
    out = os.path.join(out_dir, output_name(name))
    if name == "fig6":
        return ["populations", "--config", name, "--out", out]
    if name == "fig8":
        return ["modulate", "--config", name, "--out", out]
    return ["sweep", "--config", name, "--out", out]


def output_name(name: str) -> str:
    """File the CLI writes for a preset: a report for fig8, a CSV otherwise."""
    return f"{name}.txt" if name == "fig8" else f"{name}.csv"


def _regime_params(rng: np.random.Generator, lambdas=None):
    """The validated operating regime; mirrors tests/conftest.random_params."""
    if lambdas is None:
        lambdas = rng.uniform(0.0, 1.0, 3)
    omega_L = rng.uniform(5.0, 50.0)
    return SystemParams(
        omega_L=omega_L,
        omega_M=rng.uniform(0.5, 2.0),
        g=rng.uniform(0.05, 1.0),
        T_L=omega_L * rng.uniform(1.0 / 6.0, 1.0 / 3.0),
        T_M=rng.uniform(0.4, 4.0),
        T_R=rng.uniform(0.3, 1.5),
        gamma_L=rng.uniform(5e-4, 5e-3),
        gamma_M=rng.uniform(5e-4, 5e-3),
        gamma_R=rng.uniform(5e-4, 5e-3),
        lambda1=float(lambdas[0]),
        lambda2=float(lambdas[1]),
        lambda3=float(lambdas[2]),
    )


def point_queries(seed: int, n: int = QUERY_DRAWS) -> list[Query]:
    """Validated-regime draws; a seeded tenth sit on the dark state.

    Dark-pinned draws have lambda = (1, 1, 1) and a seeded rho44_init, so
    both steady-state branches (unique kernel and pinned dark state) are
    timed in the proportion a user scanning the regime would meet them.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(n):
        if rng.random() < DARK_PINNED_SHARE:
            params = _regime_params(rng, lambdas=(1.0, 1.0, 1.0))
            out.append(Query("dark-pinned", params, float(rng.uniform(0.0, 0.98))))
        else:
            out.append(Query("regime", _regime_params(rng)))
    return out


def _latin_hypercube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points in [0, 1)^d with exactly one point per 1/n stratum of each axis."""
    strata = rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T
    return (strata + rng.uniform(0.0, 1.0, (n, d))) / n


def _span(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * u


def hard_regime(seed: int, n: int = HARD_DRAWS) -> list[Query]:
    """Cold-bath and near-dark draws, alternating, half of each.

    Cold: the validated regime with every bath at omega_nu / T_nu
    log-uniform in [3, 60], so excited populations fall to ~1e-30.
    Near-dark: the validated regime with lambda1 = lambda2 = lambda3 =
    1 - 10^-u, u uniform in [1, 8].  Both halves are Latin-hypercube
    samples of their parameter boxes, so the share of draws in any slice of
    one parameter (how cold, how close to dark) is the same for every seed
    and the failure and accuracy shares barely move with it.  Draws the
    solver fails on today stay in.
    """
    rng = np.random.default_rng([seed, 2])
    n_dark = n // 2
    cold = _latin_hypercube(rng, n - n_dark, 12)
    dark = _latin_hypercube(rng, n_dark, 10)
    out = []
    for c, d in zip(cold, dark):
        omega_L, omega_M = _span(c[0], 5.0, 50.0), _span(c[1], 0.5, 2.0)
        x = np.exp(_span(c[9:12], np.log(3.0), np.log(60.0)))
        out.append(Query("cold", SystemParams(
            omega_L=float(omega_L), omega_M=float(omega_M), g=float(_span(c[2], 0.05, 1.0)),
            T_L=float(omega_L / x[0]), T_M=float(omega_M / x[1]),
            T_R=float((omega_L + omega_M) / x[2]),
            gamma_L=float(_span(c[3], 5e-4, 5e-3)), gamma_M=float(_span(c[4], 5e-4, 5e-3)),
            gamma_R=float(_span(c[5], 5e-4, 5e-3)),
            lambda1=float(c[6]), lambda2=float(c[7]), lambda3=float(c[8]),
        )))
        omega_L = _span(d[0], 5.0, 50.0)
        lam = float(1.0 - 10.0 ** -_span(d[9], 1.0, 8.0))
        out.append(Query("near-dark", SystemParams(
            omega_L=float(omega_L), omega_M=float(_span(d[1], 0.5, 2.0)),
            g=float(_span(d[2], 0.05, 1.0)),
            T_L=float(omega_L * _span(d[3], 1.0 / 6.0, 1.0 / 3.0)),
            T_M=float(_span(d[4], 0.4, 4.0)), T_R=float(_span(d[5], 0.3, 1.5)),
            gamma_L=float(_span(d[6], 5e-4, 5e-3)), gamma_M=float(_span(d[7], 5e-4, 5e-3)),
            gamma_R=float(_span(d[8], 5e-4, 5e-3)),
            lambda1=lam, lambda2=lam, lambda3=lam,
        )))
    return out


QUERY_WORKLOADS = {"point-queries": point_queries, "hard-regime": hard_regime}
