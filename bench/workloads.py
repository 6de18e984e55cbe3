"""The three workloads: a checked pass, timed passes and the accuracy check.

All three are closed loops with one caller on one thread: each call is
made only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np

import qtransistor
from qtransistor import cli, experiments

import draws
import gate

# the library calls a CLI command makes for each operating point, by the
# names the experiments module binds them to
POINT_CALLS = ("steady_state", "heat_currents", "amplification_factor")


class PresetsCli:
    """Every shipped preset through `qtransistor.cli.main`, CSVs to disk.

    One timed call is one CLI command; its points are the operating points
    it computed.  An untraced pass times the parts of each command apart,
    see `timed_pass`.
    """

    def __init__(self, seed: int, out_dir: str, expected_dir: str):
        self.out_dir = out_dir
        self.expected_dir = expected_dir
        self._rng = np.random.default_rng(seed)
        self.points: dict[str, int] = {}
        self._outputs: dict[str, bytes] = {}
        self._parts: list[float] = []

    @property
    def points_per_pass(self) -> int:
        return sum(self.points.values())

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, draws.output_name(name))

    def run_pass(self, tracer=None) -> list[tuple[str, float, int, list[float]]]:
        """Run the presets once in a seeded order:
        (name, seconds, exit code, seconds of each stopwatched call)."""
        out = []
        for k, name in enumerate(self._rng.permutation(draws.PRESET_NAMES)):
            argv = draws.preset_command(str(name), self.out_dir)
            if tracer is not None:
                tracer.point = k
            self._parts = parts = []
            t0 = time.perf_counter()
            rc = cli.main(argv)
            out.append((str(name), time.perf_counter() - t0, rc, parts))
        return out

    @contextlib.contextmanager
    def _stopwatch(self):
        """Time each call of the POINT_CALLS bindings of `experiments`."""
        originals = {name: getattr(experiments, name)
                     for name in POINT_CALLS if hasattr(experiments, name)}

        def timed(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._parts.append(time.perf_counter() - t0)

            return call

        for name, fn in originals.items():
            setattr(experiments, name, timed(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(experiments, name, fn)

    def check(self, tally: gate.Tally) -> None:
        """Untimed first pass: every output through the gate."""
        mp_ref = gate.load_mp_reference(os.path.join(self.expected_dir, "mp_populations.csv"))
        for name, _, rc, _ in self.run_pass():
            if rc != 0:
                tally.problem(name, f"CLI exit code {rc}")
            before = tally.attempted
            gate.check_preset(name, self._path(name),
                              os.path.join(self.expected_dir, draws.output_name(name)),
                              mp_ref, tally)
            self.points[name] = tally.attempted - before
            with open(self._path(name), "rb") as fh:
                self._outputs[name] = fh.read()

    def timed_pass(self, tracer=None) -> list[tuple[tuple, float, int]]:
        """((command, part), seconds, points) of each timed part of each command.

        A command runs for 5-500 ms, too long to meet an undisturbed stretch
        of a busy host in any of a run's passes.  So an untraced pass times
        each library call a command makes per point (parts 0, 1, ...) and
        the rest of the command (part -1) apart, and `run.best_calls` sums
        the parts, each at its fastest.  A traced pass times whole commands,
        as the tracer must find the package's own bindings.
        """
        if tracer is not None:
            return [((name, -1), dt, self.points[name])
                    for name, dt, _, _ in self.run_pass(tracer)]
        with self._stopwatch():
            commands = self.run_pass()
        out = []
        for name, dt, _, parts in commands:
            out += [((name, i), t, self.points[name]) for i, t in enumerate(parts)]
            out.append(((name, -1), dt - sum(parts), self.points[name]))
        return out

    def verify_repeat(self, tally: gate.Tally) -> None:
        """Reruns of a preset must write the identical file."""
        for name, data in self._outputs.items():
            with open(self._path(name), "rb") as fh:
                if fh.read() != data:
                    tally.problem(name, "rerun output differs from the checked pass")

    def check_accuracy(self, tally: gate.Tally) -> None:
        """Done within `check`, against the stored 50-digit populations."""


class Queries:
    """Library calls `steady_state` then `heat_currents`, one per draw."""

    def __init__(self, workload: str, seed: int):
        self.queries = draws.QUERY_WORKLOADS[workload](seed)
        self._results: list[np.ndarray | None] = []
        self._repeat_ok = True

    @property
    def points_per_pass(self) -> int:
        return len(self.queries)

    @staticmethod
    def call(query: draws.Query):
        p = qtransistor.steady_state(query.params, rho44_init=query.rho44_init)
        return p, qtransistor.heat_currents(query.params, p)

    def check(self, tally: gate.Tally) -> None:
        for k, query in enumerate(self.queries):
            where = f"draw {k} ({query.kind})"
            try:
                p, q = self.call(query)
            except Exception as exc:  # every failure is counted, typed or not
                tally.point(gate.check_error(f"{type(exc).__name__}: {exc}", tally, where))
                self._results.append(None)
                continue
            failures = gate.check_populations(p, tally, where)
            failures += gate.check_currents([q.Q_L, q.Q_M, q.Q_R], tally, where)
            tally.point(failures)
            self._results.append(np.array(p, dtype=float))

    def timed_pass(self, tracer=None) -> list[tuple[tuple, float, int]]:
        """((draw, 0), seconds, 1) of each call."""
        samples = []
        for k, query in enumerate(self.queries):
            if tracer is not None:
                tracer.point = k
            t0 = time.perf_counter()
            try:
                p = self.call(query)[0]
            except Exception:  # outcome compared with the checked pass below
                p = None
            samples.append(((k, 0), time.perf_counter() - t0, 1))
            expected = self._results[k]
            if (p is None) != (expected is None) or (
                    p is not None and not np.array_equal(p, expected)):
                self._repeat_ok = False
        return samples

    def verify_repeat(self, tally: gate.Tally) -> None:
        if not self._repeat_ok:
            tally.problem("timed pass", "a repeated call returned another result")

    def check_accuracy(self, tally: gate.Tally) -> None:
        """Every draw against its 50-digit reference; failed draws count as inaccurate."""
        import oracle

        for query, p in zip(self.queries, self._results):
            W = qtransistor.rate_matrix(query.params)
            gate.check_accuracy(p, oracle.reference_populations(W, query.rho44_init), tally)


def make(workload: str, seed: int, out_dir: str, expected_dir: str):
    if workload == "presets-cli":
        return PresetsCli(seed, out_dir, expected_dir)
    return Queries(workload, seed)
