"""The four workloads: seeded inputs, written to disk, and the CLI commands
that run on them.

A workload is a list of rounds; a round is a fixed list of commands.  Each
command belongs to one of three kinds, ``small``, ``medium`` and ``large``,
which are the workload's own command classes (see README.md); their median
CPU times are the end-to-end metrics.  Rounds also hold ``cold`` commands, a
fresh CLI process analyzing a one-mode preset, about one per 2-3 s of work.
The timed run repeats rounds, so every kind is sampled across the whole run;
the traced run runs round 0 once, so its counts repeat exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import checks
import models

DECAY_T_GRID = "0.05,0.1,0.2,0.5,1,2,4"
FOCK_CUTOFF = 25


@dataclass
class Op:
    kind: str
    label: str
    command: str
    argv: list
    #: check(stdout, ref) -> list of problems
    check: object
    ref: dict
    expect_exit: int = 0
    #: sweep points, decay rows or evolve steps one command computes
    units: int = 1


@dataclass
class Workload:
    rounds: list
    #: {path: text} of every input file
    files: dict


def _write(files, directory, name, doc):
    text = models.dumps(doc)
    path = os.path.join(directory, name)
    files[path] = text
    return path


def _cold_op(rng, files, directory):
    params = models.mode_params(rng)
    g, g_breve, sigma = models.closed_forms(*params)
    path = _write(files, directory, "cold.json", models.preset(*params))
    return Op("cold", "cold-analyze", "cold", ["analyze", path, "--json"],
              checks.check_preset_analyze,
              {"g": g, "g_breve": g_breve, "sigma": [sigma], "exit": 0})


def sweep_1mode(rng, directory, files, cold):
    """One jittered grid.  Small and medium commands sweep a slice at one of
    the two largest mu2 values, where every (lambda2, omega, kappa) point is
    admissible except lambda2 = kappa = 0: 50 and 220 points.  Large sweeps
    the grid at three of its five kappa values, about 1.2k points, so a run
    holds several large samples."""
    grid = models.sweep_grid(rng)

    def op(kind, label, sub):
        points = models.grid_points(sub)
        return Op(kind, label, "sweep", ["sweep", "--grid", models.grid_arg(sub)],
                  checks.check_sweep, {"points": points}, units=len(points))

    large = op("large", "sweep-large", dict(grid, kappa=grid["kappa"][::2]))
    rounds = []
    for r, mu2 in enumerate(grid["mu2"][-2:]):
        one = dict(grid, mu2=[mu2])
        pairs = [grid["lambda2"][i:i + 2] for i in (1, 3, 5, 7)]
        small = [op("small", f"sweep-small-{r}-{i}", dict(one, lambda2=lam))
                 for i, lam in enumerate(pairs)]
        medium = op("medium", f"sweep-medium-{r}", one)
        rounds.append([cold, *small, medium, medium, large] * 2)
    return rounds


def analyze_ladder(rng, directory, files, cold):
    """Mixed-mode models at d = 4, 16, 32; every eighth model of each size
    has a lambda = 0 mode, so cz is singular and analyze exits 2."""
    counters = {4: 0, 16: 0, 32: 0}

    def op(kind, d):
        k = counters[d]
        counters[d] += 1
        doc, ref = models.mixed_mode_model(rng, d, zero_lambda_modes=int(k % 8 == 7))
        path = _write(files, directory, f"d{d}-{k}.json", doc)
        return Op(kind, f"analyze-d{d}-{k}", "analyze", ["analyze", path, "--json"],
                  checks.check_analyze, ref, expect_exit=ref["exit"])

    rounds = []
    for _ in range(5):
        half = [[op("small", 4) for _ in range(4)] + [op("medium", 16) for _ in range(4)]
                for _ in range(2)]
        rounds.append([cold, *half[0], cold, *half[1], op("large", 32)])
    return rounds


def dynamics_d8(rng, directory, files, cold):
    """One d = 8 model.  decay reuses the (t)-keyed propagator cache on
    nearly every call; evolve asks for a new time at every step.  Small
    evolves over 20 times (per-command cost), large over 400."""
    doc, ref = models.mixed_mode_model(rng, 8)
    path = _write(files, directory, "d8.json", doc)
    times = [float(t) for t in DECAY_T_GRID.split(",")]

    def decay(kind, label, samples):
        # 100 samples average out the 1-3 Weyl terms drawn per sample
        seed = int(rng.integers(1 << 30))
        argv = ["decay", path, "--samples", str(samples), "--seed", str(seed),
                "--t-grid", DECAY_T_GRID]
        return Op(kind, label, "decay", argv, checks.check_decay,
                  dict(ref, times=times, samples=samples), units=samples * len(times))

    def evolve(kind, label, count):
        steps = sorted(set(np.round(rng.uniform(0.01, 4.0, count), 9).tolist()))
        argv = ["evolve", path, "--t", ",".join(repr(t) for t in steps),
                "--s0", "stationary"]
        return Op(kind, label, "evolve", argv, checks.check_evolve, {"times": steps},
                  units=len(steps))

    rounds = []
    for r in range(8):
        ops = [cold]
        ops += [evolve("small", f"evolve-20-{r}-{i}", 20) for i in range(8)]
        ops += [decay("medium", f"decay-100-{r}-{i}", 100) for i in range(8)]
        ops += [evolve("large", f"evolve-400-{r}-{i}", 400) for i in range(2)]
        rounds.append(ops)
    return rounds


def fock_oracle(rng, directory, files, cold):
    """The dense oracle at cutoff 25 (676 x 676 complex superoperators):
    char and kms-trace on a kappa != 0 preset, gap on a kappa = 0 thermal
    preset.  At cutoff 40 one round takes about 20 s, so a run would sample
    each command once; these take about 0.5 s, so a run samples each about
    ten times."""
    mu2 = float(rng.uniform(2.5, 4.0))
    lambda2 = float(rng.uniform(0.3, 1.0))
    omega = float(rng.uniform(1.5, 2.5))
    kappa = float(rng.uniform(0.2, 0.6))
    squeezed = _write(files, directory, "squeezed.json",
                      models.preset(mu2, lambda2, omega, kappa))
    thermal = _write(files, directory, "thermal.json",
                     models.preset(mu2, lambda2, omega, 0.0))
    gamma = 0.5 * (mu2 - lambda2)

    def oracle(kind, path, check, ref):
        return Op(kind, f"oracle-{check}", "oracle",
                  ["oracle", path, "--cutoff", str(FOCK_CUTOFF), "--check", check],
                  checks.check_oracle, dict(ref, check=check))

    ops = [cold,
           oracle("small", squeezed, "char", {}),
           oracle("medium", squeezed, "kms-trace", {}),
           oracle("large", thermal, "gap", {"g": gamma, "g_breve": gamma})]
    return [ops]


WORKLOADS = {
    "sweep-1mode": sweep_1mode,
    "analyze-ladder": analyze_ladder,
    "dynamics-d8": dynamics_d8,
    "fock-oracle": fock_oracle,
}


def build(name, seed, directory):
    """Generate a workload's inputs from its seed; files are returned as
    {path: text} and written by the caller."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    files = {}
    cold = _cold_op(rng, files, directory)
    return Workload(rounds=WORKLOADS[name](rng, directory, files, cold), files=files)
