import numpy as np
import pytest

from qtransistor import SystemParams


@pytest.fixture
def fig2_params() -> SystemParams:
    """Transistor demonstration point: weak internal coupling, lambda = 0.7."""
    return SystemParams(
        omega_L=30.0, omega_M=1.0, g=0.1,
        T_L=5.0, T_M=1.0, T_R=0.5,
        gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        lambda1=0.7, lambda2=0.7, lambda3=0.7,
    )


@pytest.fixture
def dark_params() -> SystemParams:
    """Fully common coupling: conserved dark state, g = 0.3."""
    return SystemParams(
        omega_L=30.0, omega_M=1.0, g=0.3,
        T_L=5.0, T_M=1.0, T_R=0.5,
        gamma_L=0.002, gamma_M=0.002, gamma_R=0.002,
        lambda1=1.0, lambda2=1.0, lambda3=1.0,
    )


@pytest.fixture
def modulation_params() -> SystemParams:
    """Fully common coupling at the heat-modulation operating point."""
    return SystemParams(
        omega_L=30.0, omega_M=1.0, g=0.7,
        T_L=5.0, T_M=3.0, T_R=0.5,
        gamma_L=0.004, gamma_M=0.004, gamma_R=0.004,
        lambda1=1.0, lambda2=1.0, lambda3=1.0,
    )


def random_params(rng: np.random.Generator, lambdas=None) -> SystemParams:
    """Draw a parameter set inside the validated operating regime.

    The hot terminal's temperature scales with its qubit frequency
    (omega_L / T_L between 3 and 6, as in every operating point of the
    device); a colder independent draw would freeze all high-frequency
    channels and push the heat currents below double-precision resolution.
    """
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


# The approach to the dark state as its own draw family: lambda1 = lambda2 =
# lambda3 = 1 - 10^-u, up to u = 15.9, which rounds to 1 - 2^-53, the last
# double below 1.  Drawn at fig2's base point and at a cold point.
DARK_CROSSOVER_U = (11, 12, 13, 14, 15, 15.9)
COLD = {"T_L": 1.0, "T_M": 0.05, "T_R": 0.05}


def near_dark(params: SystemParams, u: float) -> SystemParams:
    """params with lambda1 = lambda2 = lambda3 = 1 - 10^-u."""
    lam = 1.0 - 10.0 ** -u
    return params.replace(lambda1=lam, lambda2=lam, lambda3=lam)
