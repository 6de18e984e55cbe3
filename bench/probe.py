"""Set-up probe: import qtransistor and build one workload's inputs, then exit.

    python3 bench/probe.py <workload> <seed>

bench/run.py times a few of these fresh interpreters and reports their
median wall time as setup_s; reference solves are not part of it.
"""

import importlib
import os
import signal
import sys

signal.alarm(120)  # a hung probe dies, and fails the run, rather than hold it up

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import draws  # noqa: E402  (imports qtransistor)

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "presets-cli":
    importlib.import_module("qtransistor.cli")
    inputs = [draws.preset_command(name, ".") for name in draws.PRESET_NAMES]
else:
    inputs = draws.QUERY_WORKLOADS[workload](seed)
