"""gaussgap benchmark: drives the real CLI on seeded inputs and checks every
answer against exact references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones from an untraced, time-limited run; with
``--trace 1`` they are per-layer numbers from one round run untraced and then
traced, after a warm-up round.  Details (percentiles, stdout digests, provenance) and the spans go
to ``.perfbench_out/`` in the checkout.

BLAS runs on one thread and ``GAUSSGAP_THREADS`` is unset, so every command
is serial and the load comes from this one process.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GAUSSGAP_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
KINDS = ("cold", "small", "medium", "large")
SETUP_RUNS = 3
PLANTED_G_SHIFT = 1e-6
CHILD_TIMEOUT_S = 120
#: Reported times are scaled to a machine on which Probe() takes PROBE_S and
#: a fresh process importing numpy and scipy.linalg takes COLD_PROBE_S of CPU.
PROBE_S = 0.0025
COLD_PROBE_S = 0.5


def quantile_info(values):
    """Median and the highest listed percentile with at least ten samples
    beyond it (None when there are fewer than 11 samples)."""
    values = sorted(values)
    n = len(values)
    info = {"n": n, "median": statistics.median(values), "tail_percentile": None,
            "tail_value": None, "samples": values}
    for pct in (99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            info["tail_percentile"], info["tail_value"] = pct, cuts[pct - 1]
            break
    return info


def problems_for(op, rc, out, crash):
    if crash is not None:
        return [f"{op.label}: raised {crash}"]
    if rc != op.expect_exit:
        return [f"{op.label}: exit code {rc}, expected {op.expect_exit}"]
    try:
        return op.check(out, op.ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{op.label}: output could not be checked ({exc!r})"]


def run_child(argv):
    """Run a fresh Python process from the checkout root with ``src`` on its
    path; waits for it to end."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def cpu_seconds():
    """CPU time of this process plus that of its ended children.  Commands
    are serial, so a command's CPU time is the wall time it takes on an idle
    machine, without the time other tenants of a shared machine take."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


class Probe:
    """A fixed numpy workload that runs no gaussgap code: tiny eigvals and
    solves, as in the per-point work, plus small dense eig, eigvalsh and
    solve.  It runs before every timed in-process command; the median of its
    CPU time over the run measures the speed of a shared machine."""

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self.linalg = numpy.linalg
        self.a2 = rng.standard_normal((2, 2))
        self.a16 = rng.standard_normal((16, 16))
        self.a64 = rng.standard_normal((64, 64))

    def __call__(self):
        la = self.linalg
        c0 = time.process_time()
        for _ in range(40):
            la.eigvals(self.a2)
            la.solve(self.a2, self.a2[0])
        la.eig(self.a16)
        la.eigvalsh(self.a64 + self.a64.T)
        la.solve(self.a64, self.a64.T)
        return time.process_time() - c0


def cold_probe():
    """CPU time of a fresh process that imports numpy and scipy.linalg, the
    counterpart of Probe for fresh-process timings."""
    c0 = cpu_seconds()
    run_child(["-c", "import numpy, scipy.linalg"])
    return cpu_seconds() - c0


class Runner:
    """Runs CLI commands, times them and checks their output.  Commands run
    in process through ``gaussgap.cli.main``; ``cold`` commands run as a
    fresh ``python -m gaussgap.cli`` process."""

    def __init__(self, cli, probe):
        self.cli = cli
        self.probe = probe
        self.probes = {"in_process": [], "cold": []}
        #: CPU seconds per command (this process, or the child for cold
        #: commands); wall seconds are kept for the details file
        self.cpu = {kind: [] for kind in KINDS}
        self.wall = {kind: [] for kind in KINDS}
        self.units = {kind: 0 for kind in KINDS}
        self.first = {}
        self.digests = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def _in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    @staticmethod
    def _cold(argv):
        proc = run_child(["-m", "gaussgap.cli", *argv])
        return proc.returncode, proc.stdout

    def run(self, op, timed=True):
        if timed and op.kind == "cold":
            self.probes["cold"].append(cold_probe())
        elif timed:
            self.probes["in_process"].append(self.probe())
        rc = out = crash = None
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            rc, out = self._cold(op.argv) if op.kind == "cold" else self._in_process(op.argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            crash = repr(exc)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        out = out or ""
        problems = problems_for(op, rc, out, crash)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(op.label, digest) != digest:
            problems.append(f"{op.label}: stdout differs between identical runs")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if timed:
            self.cpu[op.kind].append(cpu)
            self.wall[op.kind].append(wall)
            self.units[op.kind] += op.units
        self.first.setdefault(op.kind, (op, rc, out))


def self_checks(runner):
    """A planted wrong reference and a planted unexpected exit code must each
    be reported as a failure by the check of every command kind."""
    results = {}
    for op, rc, out in runner.first.values():
        results[f"{op.label}:unexpected_exit"] = bool(
            problems_for(op, op.expect_exit + 1, out, None))
        if "g" in op.ref:
            planted = type(op)(**dict(vars(op), ref=dict(op.ref, g_shift=PLANTED_G_SHIFT)))
            results[f"{op.label}:wrong_g"] = bool(problems_for(planted, rc, out, None))
    return results


def provenance(seed, numpy, scipy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "gaussgap")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                src_digest.update(fh.read())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def write_inputs(workloads, name, seed, workdir):
    """Generate the workload's inputs, write them and return the workload and
    a digest of the files."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.build(name, seed, workdir)
    digest = hashlib.sha256()
    for path, text in sorted(wl.files.items()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest.update(os.path.relpath(path, workdir).encode() + b"\0" + text.encode())
    return wl, digest.hexdigest()


def setup_runs(args, workdir):
    """Set up SETUP_RUNS times, each in a fresh process that imports numpy,
    scipy and gaussgap and generates and writes the inputs, as this process
    did.  Returns each run's CPU time, wall time and input digest."""
    cpu, wall, digests = [], [], []
    for i in range(SETUP_RUNS):
        t0, c0 = time.perf_counter(), cpu_seconds()
        proc = run_child([os.path.abspath(__file__), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", "0",
                          "--setup-only", f"{workdir}-setup{i}"])
        cpu.append(cpu_seconds() - c0)
        wall.append(time.perf_counter() - t0)
        digests.append(proc.stdout.strip() if proc.returncode == 0 else None)
    return cpu, wall, digests


def timed_run(runner, wl, seconds):
    """Rounds until the time is up and every kind has at least one sample."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    r = 0
    while True:
        for op in wl.rounds[r % len(wl.rounds)]:
            if time.perf_counter() >= deadline and all(runner.cpu.values()):
                return time.perf_counter() - t0
            runner.run(op)
        r += 1


def traced_run(runner, wl, spans_mod):
    """Round 0 without its cold commands: once to warm up, then timed
    untraced and traced."""
    ops = [op for op in wl.rounds[0] if op.kind != "cold"]
    for op in ops:
        runner.run(op, timed=False)
    t0 = time.perf_counter()
    for op in ops:
        runner.run(op, timed=False)
    untraced = time.perf_counter() - t0
    tracer = spans_mod.Tracer()
    tracer.install()
    ranges = {}
    try:
        t0 = time.perf_counter()
        for op in ops:
            lo = len(tracer.spans)
            runner.run(op, timed=False)
            key = op.label if op.command == "oracle" else op.command
            ranges.setdefault(key, []).append((lo, len(tracer.spans)))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, ranges, untraced, traced


def _per(count, base):
    return count / base if base else 0.0


def layer_metrics(benchmark, tracer, ranges, untraced, traced, imports, spans_mod):
    summary = spans_mod.summarize(tracer.spans, ranges)

    def per_command(span_name, command):
        """Calls of span_name made by one run of command, on average."""
        runs = ranges.get(command, [])
        return _per(spans_mod.calls_in(tracer.spans, runs, span_name), len(runs))

    def hit_ratio(command):
        lookups, hits = summary["cache"].get(command, (0, 0))
        return _per(hits, lookups)

    special = {
        "stationary.is_stable.per_analyze": lambda: per_command(
            "stationary.is_stable", "analyze"),
        "stationary.solve_stationary.per_decay": lambda: per_command(
            "stationary.solve_stationary", "decay"),
        "fock.build_superoperator.per_gap_check": lambda: per_command(
            "fock.build_superoperator", "oracle-gap"),
        "fock.superop_bytes_computed": lambda: float(
            max((2 * d**4 * 16 for d in tracer.superop_dims), default=0)),
        "dynamics.cache.lookups": lambda: sum(v[0] for v in summary["cache"].values()),
        "dynamics.cache.decay_hit_ratio": lambda: hit_ratio("decay"),
        "dynamics.cache.evolve_hit_ratio": lambda: hit_ratio("evolve"),
        "trace.overhead_frac": lambda: traced / untraced - 1.0,
        "trace.wall_s": lambda: traced,
        "trace.unattributed_s": lambda: traced - summary["top_s"],
    }
    values = {}
    for spec in benchmark["per_layer"]:
        name = spec["name"]
        head, rest = name.split(".", 1)
        if name in special:
            value = special[name]()
        elif head == "layer":
            value = summary["layer_s"].get(rest[: -len(".self_s")], 0.0)
        elif head == "import":
            value = imports.get(rest[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = summary["calls"].get(name[: -len(".calls")], 0)
        else:
            value = summary["self_s"].get(name[: -len(".self_s")], 0.0)
        values[name] = {"value": value, "unit": spec["unit"]}
    return values, summary


def end_to_end(benchmark, runner, setup):
    """Median CPU times, scaled by the run's probes: fresh-process times by
    COLD_PROBE_S over the median cold probe, the rest by PROBE_S over the
    median in-process probe.  Raw medians stay in the returned stats."""
    stats = {kind: {"cpu": quantile_info(runner.cpu[kind]),
                    "wall": quantile_info(runner.wall[kind]),
                    "units_per_cpu_s": runner.units[kind] / sum(runner.cpu[kind])}
             for kind in KINDS}
    stats["setup"] = {"cpu": quantile_info(setup[0]), "wall": quantile_info(setup[1])}
    stats["probe"] = {name: quantile_info(v) for name, v in runner.probes.items()}
    scale = {"in_process": PROBE_S / stats["probe"]["in_process"]["median"],
             "cold": COLD_PROBE_S / stats["probe"]["cold"]["median"]}
    stats["scale"] = scale

    def scaled(kind, probe):
        return stats[kind]["cpu"]["median"] * scale[probe]

    values = {
        "setup_s": scaled("setup", "cold"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "cold_cli_s": scaled("cold", "cold"),
        "small_ms": scaled("small", "in_process") * 1e3,
        "medium_ms": scaled("medium", "in_process") * 1e3,
        "large_ms": scaled("large", "in_process") * 1e3,
    }
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in benchmark["end_to_end"]}
    return metrics, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="one set-up repetition: import, write the inputs to DIR, "
                             "print their digest and remove DIR")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gaussgap", "__init__.py")):
        sys.stderr.write(f"perfbench: no gaussgap sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import gaussgap.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: gaussgap imported from {cli.__file__}, not {SRC}\n")
        return 2
    import spans as spans_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    if args.setup_only:
        try:
            print(write_inputs(workloads, args.workload, args.seed, args.setup_only)[1])
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)

    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl, digest = write_inputs(workloads, args.workload, args.seed, workdir)
        *setup, setup_digests = setup_runs(args, workdir)
        same_inputs = all(d == digest for d in setup_digests)
        runner = Runner(cli, Probe(numpy))
        info = {"workload": args.workload, "trace": args.trace,
                "provenance": provenance(args.seed, numpy, scipy),
                "input_digest": digest, "setup_digests_match": same_inputs}
        if args.trace:
            tracer, ranges, untraced, traced = traced_run(runner, wl, spans_mod)
            cold = next(op for op in wl.rounds[0] if op.kind == "cold")
            proc = run_child(["-X", "importtime", "-m", "gaussgap.cli", *cold.argv])
            imports = spans_mod.parse_importtime(proc.stderr)
            metrics, summary = layer_metrics(benchmark, tracer, ranges, untraced, traced,
                                             imports, spans_mod)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            info["trace_summary"] = summary
        else:
            measured = timed_run(runner, wl, args.seconds)
            metrics, stats = end_to_end(benchmark, runner, setup)
            info.update(stats=stats, measured_s=measured)
        planted = self_checks(runner)
        correct = runner.failed == 0 and same_inputs and all(planted.values())
        info.update(planted_checks=planted, stdout_sha256=runner.digests,
                    problems=runner.problems[:50])
        result = {"correct": correct, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(dict(info, result=result), fh, indent=1, sort_keys=True, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
