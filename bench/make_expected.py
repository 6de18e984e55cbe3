"""Regenerate the stored presets-cli reference in bench/expected/.

    python3 bench/make_expected.py

Writes every preset's CLI output as produced by the current package
(<preset>.csv) and the 50-digit reference populations of every row that
prints populations (mp_populations.csv).  Run it only to re-baseline on
purpose: the benchmark compares each later run against these files.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qtransistor import cli, rate_matrix  # noqa: E402
from qtransistor.experiments import (  # noqa: E402
    load_config,
    params_from_config,
    sweep_from_config,
)

import draws  # noqa: E402
import oracle  # noqa: E402

EXPECTED = os.path.join(HERE, "expected")


def row_points(name: str):
    """(row index, params, rho44_init) of every row whose populations are printed."""
    cfg = load_config(name)
    if name == "fig8":
        return
    if name == "fig6":
        base = params_from_config(cfg)
        rho44 = float(cfg["rho44_init"]) if "rho44_init" in cfg else None
        lo, hi, n = float(cfg["lo"]), float(cfg["hi"]), int(cfg["points"])
        for k, v in enumerate(np.linspace(lo, hi, n)):
            params = base.replace(T_M=float(v))
            yield k, params, rho44 if params.fully_common else None
        return
    spec = sweep_from_config(cfg)
    if "populations" not in spec.outputs:
        return
    for k, v in enumerate(spec.values()):
        params, rho44 = spec.resolve(float(v))
        yield k, params, rho44


def main() -> int:
    os.makedirs(EXPECTED, exist_ok=True)
    for name in draws.PRESET_NAMES:
        if cli.main(draws.preset_command(name, EXPECTED)) != 0:
            raise SystemExit(f"{name}: the CLI failed")
    lines = ["preset,row," + ",".join(f"rho_{k}{k}" for k in range(1, 9))]
    for name in draws.PRESET_NAMES:
        for k, params, rho44 in row_points(name):
            p = oracle.reference_populations(rate_matrix(params), rho44)
            lines.append(f"{name},{k}," + ",".join(f"{x:.16e}" for x in p))
    with open(os.path.join(EXPECTED, "mp_populations.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
