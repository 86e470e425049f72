#!/usr/bin/env python3
"""Benchmark of the scramble library: one workload per run, every output checked.

    python3 bench/run.py --workload structure --seed 1 --seconds 28 --trace 0

Run from a checkout: the library is imported from the checkout's ``src/``
and nowhere else.  The run repeats the workload's job for ``--seconds`` and
reports medians; between passes it times set-up in a fresh interpreter
(launch until the library is imported and the inputs are generated).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and metrics.
"""

import os
import sys

# Pin the environment before numpy is first imported: one BLAS thread, and
# no transparent-huge-page advice from numpy, since whether the kernel grants
# huge pages depends on machine-wide memory state rather than on this run.
# The library's Monte-Carlo worker count stays at its default.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED)
os.environ.pop("SCRAMBLE_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CliRun, OpError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 60.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_library():
    """Import scramble from this checkout's src/, refusing any other copy."""
    if not (SRC / "scramble" / "__init__.py").is_file():
        fail(f"{SRC}/scramble not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("scramble")
    if Path(lib.__file__).resolve().parent != SRC / "scramble":
        fail(f"imported scramble from {lib.__file__}, not from {SRC}")
    return lib


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def make_plan(lib, args, workdir):
    return WORKLOADS[args.workload](lib, args.seed, workdir)


def probe(args) -> int:
    """Set-up only: import the library, generate the inputs, report ready."""
    lib = load_library()
    workdir = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        make_plan(lib, args, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_child(argv, ready: bool, env=None) -> float:
    """Seconds from launching ``argv`` until it prints ``ready`` (or exits)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
        if not ready:
            elapsed = time.perf_counter() - t0
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or (ready and line.strip() != b"ready"):
        raise RuntimeError(f"{argv[1:]} failed with exit code {proc.returncode}")
    return elapsed


def setup_time(args) -> float:
    """Launch-to-ready time of one fresh interpreter that only sets up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    return time_child(argv, ready=True)


def startup_times() -> list:
    argv = [sys.executable, "-c", "import scramble.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return [time_child(argv, ready=False, env=env) for _ in range(STARTUP_PROBES)]


def run_pass(lib, ops):
    results = {}
    t0 = time.perf_counter()
    for op in ops:
        try:
            results[op.label] = op.run(lib, results)
        except Exception as exc:  # an operation that raises counts as failed
            results[op.label] = OpError(exc)
    wall = time.perf_counter() - t0
    return results, wall


def digest(ops, results) -> str:
    parts = []
    for op in ops:
        r = results[op.label]
        try:
            vals = ("error", r.message) if isinstance(r, OpError) else op.values(r)
        except Exception as exc:
            vals = ("values failed", repr(exc))
        parts.append((op.label, vals))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def check(lib, ops, results) -> dict:
    """Violated identities per operation label (empty list = passed)."""
    out = {}
    for op in ops:
        r = results[op.label]
        if isinstance(r, OpError):
            out[op.label] = [r.message]
            continue
        try:
            out[op.label] = op.check(lib, r, results)
        except Exception as exc:
            out[op.label] = [f"check raised {type(exc).__name__}: {exc}"]
    return out


def negative_controls(lib, plan, results) -> list:
    """Each control perturbs one result; returns the controls the checker missed."""
    by_label = {op.label: op for op in plan.ops}
    missed = []
    for control in plan.controls:
        op = by_label[control.label]
        try:
            perturbed = control.perturb(results[control.label])
            flagged = bool(op.check(lib, perturbed, {**results, control.label: perturbed}))
        except Exception:
            flagged = True  # a check that cannot read the perturbed output rejects it
        if not flagged:
            missed.append(f"{control.label} ({control.what})")
    return missed


class Tally:
    """Operation counts, failures and digests over all passes of a run."""

    def __init__(self, lib, plan):
        self.lib, self.plan = lib, plan
        self.attempted = self.failed = 0
        self.reference = None
        self.mismatches = 0
        self.problems = {}
        self.missed_controls = []

    def add(self, results) -> None:
        ops = self.plan.ops
        dg = digest(ops, results)
        if self.reference is None:
            self.reference = dg
            self.problems = check(self.lib, ops, results)
            self.missed_controls = negative_controls(self.lib, self.plan, results)
            problems = self.problems
        elif dg == self.reference:
            problems = self.problems  # identical checked values, identical verdicts
        else:
            self.mismatches += 1
            problems = check(self.lib, ops, results)
            for label, found in problems.items():
                if found:
                    self.problems.setdefault(label, found)
        self.attempted += len(ops)
        self.failed += sum(1 for found in problems.values() if found)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.mismatches == 0 and not self.missed_controls

    def report(self) -> None:
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"ops_failed_frac = {frac:.6g} ({self.failed} of {self.attempted} operations)")
        print(f"negative controls: {len(self.plan.controls) - len(self.missed_controls)}"
              f" of {len(self.plan.controls)} flagged")
        for name in self.missed_controls:
            print(f"  NOT FLAGGED: {name}")
        if self.mismatches:
            print(f"digest mismatches between passes: {self.mismatches}")
        for label, found in self.problems.items():
            for text in found:
                print(f"  FAIL {label}: {text}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception as exc:  # older numpy: no dict mode
        blas_name = f"unknown ({type(exc).__name__})"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "pinned_env": {v: os.environ.get(v) for v in PINNED},
        "scramble_threads": os.environ.get("SCRAMBLE_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
    }


def cli_walls(plan, results) -> tuple:
    """Wall time per CLI command over one pass, and the child peak RSS in KiB."""
    walls = {}
    rss = 0
    for op in plan.ops:
        r = results[op.label]
        if isinstance(r, CliRun):
            walls[r.command] = walls.get(r.command, 0.0) + r.wall_s
            rss = max(rss, r.maxrss_kb)
    return walls, rss


def enough(walls, seconds: float) -> bool:
    """Stop once another pass of median length would overrun the budget."""
    return sum(walls) + statistics.median(walls) > seconds


def measure(lib, plan, args, tally):
    """Pass times, set-up times, and the peak RSS in KiB.

    One set-up probe runs before the first pass and one after each pass, so
    the set-up samples span the whole run, as the passes do.  Later passes
    only add allocator fragmentation that depends on the history of earlier
    passes, so the run process's own peak is read once, after the first
    pass and before its checks.
    """
    walls, setups, child_rss = [], [setup_time(args)], 0
    while True:
        results, wall = run_pass(lib, plan.ops)
        if not walls:
            own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        child_rss = max(child_rss, cli_walls(plan, results)[1])
        tally.add(results)
        setups.append(setup_time(args))
        if enough(walls, args.seconds):
            return walls, setups, max(own_rss, child_rss)


def measure_traced(lib, plan, args, tally):
    plain, traced, layers, commands = [], [], [], []
    tally.add(run_pass(lib, plan.ops)[0])  # warm-up, so the first plain pass is not cold
    while True:
        results, wall = run_pass(lib, plan.ops)
        plain.append(wall)
        tally.add(results)
        commands.append(cli_walls(plan, results)[0])
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            results, wall = run_pass(lib, plan.ops)
        traced.append(wall)
        tally.add(results)
        layers.append(tracer.metrics(wall))
        commands.append(cli_walls(plan, results)[0])
        if enough([a + b for a, b in zip(plain, traced)], args.seconds):
            break
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    for cmd in tracing.CLI_COMMANDS:
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(c.get(cmd, 0.0) for c in commands)
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, statistics.median(plain)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    lib = load_library()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(json.dumps({"environment": environment()}))
    workdir = tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT)
    try:
        if args.trace:
            startup = statistics.median(startup_times())
            plan = make_plan(lib, args, workdir)
            tally = Tally(lib, plan)
            metrics, wall = measure_traced(lib, plan, args, tally)
            metrics["cli.startup_s"] = startup
            runs = sum(1 for op in plan.ops if op.label.startswith("cli:"))
            metrics["cli.startup_share"] = runs * startup / wall
            units = dict(tracing.per_layer_names())
        else:
            plan = make_plan(lib, args, workdir)
            tally = Tally(lib, plan)
            walls, setups, rss_kb = measure(lib, plan, args, tally)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_kb / 1024.0,
            }
            units = dict(END_TO_END)
            print(f"passes: {len(walls)}, pass times (s): "
                  + ", ".join(f"{w:.4f}" for w in walls))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.report()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
