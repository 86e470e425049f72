"""The four benchmark workloads: seeded inputs, the timed operations and
the checks that judge each output.

Inputs are generated with numpy alone, from the workload seed, so the
library only ever receives finished inputs.  Every check is an identity
that holds for any seed (closed forms, exact reference values, the Haar
mean, the infinite-time chain inequality, planted block patterns); no
check compares a value with one recorded from an earlier run.

Operations call the library through the package namespace at call time
(``lib.build_algebra(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Closed forms and exact reference values.
TOL_EXACT = 1e-9
#: Slack on the chain exact <= Gram formula (+1e-9) <= Haar mean (+2e-9).
TOL_CHAIN = 1e-9
#: Largest accepted |grid - exact| for the 200-point quadrature.
TOL_GRID = 0.02
#: Monte-Carlo mean must sit within this many standard errors of the analytic mean.
MC_SIGMAS = 5.0
#: Structural residuals of a built algebra.
TOL_STRUCTURE = 1e-8

GRID_POINTS = 200
MC_SAMPLES = 50
HAAR_UNITARIES = 10
FLUCTUATION_EPS = (0.01, 0.05, 0.1)
CLI_TIMEOUT_S = 60.0

BELL_COLUMNS = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float
).T / np.sqrt(2)
BELL_SPECTRUM = np.array([0.0, 1.0, 3.0, 7.0])


class OpError:
    """An operation that raised; its check always fails."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.message})"


@dataclass
class Op:
    """One timed library call, the values it is judged on, and its check.

    ``run(lib, results)`` may read earlier results of the same pass;
    ``values(result)`` gives the checked values that enter the pass digest;
    ``check(lib, result, results)`` returns the list of violated identities.
    """

    label: str
    run: Callable[[Any, dict], Any]
    values: Callable[[Any], Any]
    check: Callable[[Any, Any, dict], list]


@dataclass
class Control:
    """Negative control: a perturbed copy of one result that must fail."""

    label: str
    what: str
    perturb: Callable[[Any], Any]


@dataclass
class Plan:
    ops: list
    controls: list


# ---------------------------------------------------------------- inputs


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) % (2**32)
    return np.random.default_rng([int(seed), tag])


def haar_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the QR factorization of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def gue_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return (g + g.conj().T) / 2.0


def resonant_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Equally spaced spectrum 0, 1, ..., d-1 in a Haar-random eigenbasis."""
    v = haar_matrix(d, rng)
    return (v * np.arange(d, dtype=float)) @ v.conj().T


def fourier_matrix(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def qubit_swap(dim_b: int) -> np.ndarray:
    """Swap of the 2-dim factor A with a 2-dim factor of B = C^2 (x) C^(dim_b/2)."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    return np.kron(swap, np.eye(dim_b // 2))


def random_partition(d: int, rng: np.random.Generator) -> list:
    """Random block pattern (n_J, d_J) with sum n_J d_J = d (the test-suite recipe)."""
    pairs = []
    left = d
    while left > 0:
        options = [
            (n, dj) for n in range(1, left + 1) for dj in range(1, left + 1) if n * dj <= left
        ]
        n, dj = options[rng.integers(len(options))]
        pairs.append((n, dj))
        left -= n * dj
    return pairs


def _collinear(pairs) -> bool:
    return len({dj / n for n, dj in pairs}) == 1


def planted(d: int, rng: np.random.Generator, dim_a_range, collinear_ok: bool = True):
    """Two generic elements of a hidden block algebra, plus the hidden pattern.

    The pattern is redrawn until ``dim A = sum d_J^2`` falls in
    ``dim_a_range``; the commutant costs O(dim A * d^6), so the band keeps
    the work of a planted algebra steady from seed to seed.
    """
    lo, hi = dim_a_range
    for _ in range(10000):
        pairs = random_partition(d, rng)
        dim_a = sum(dj * dj for _, dj in pairs)
        if lo <= dim_a <= hi and (collinear_ok or not _collinear(pairs)):
            break
    else:
        raise RuntimeError(f"no block pattern at d={d} with dim A in {dim_a_range}")
    gens = []
    for _ in range(2):
        blockdiag = np.zeros((d, d), dtype=complex)
        offset = 0
        for n, dj in pairs:
            h = rng.standard_normal((dj, dj)) + 1j * rng.standard_normal((dj, dj))
            h = (h + h.conj().T) / 2
            size = n * dj
            blockdiag[offset : offset + size, offset : offset + size] = np.kron(np.eye(n), h)
            offset += size
        gens.append(blockdiag)
    w = haar_matrix(d, rng)
    return [w @ g @ w.conj().T for g in gens], pairs


def matrix_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "dim": a.shape[0],
        "entries": [[[float(x.real), float(x.imag)] for x in row] for row in a],
    }


# ---------------------------------------------------------------- checks


def haar_mean(d: int, kp: int) -> float:
    """(d^2 - k')(k' - 1) / (k' (d^2 - 1)), k' = dim A'."""
    return 0.0 if d == 1 else (d * d - kp) * (kp - 1) / (kp * (d * d - 1))


def bound(dim_a: int, dim_ap: int) -> float:
    return min(1.0 - 1.0 / dim_a, 1.0 - 1.0 / dim_ap)


def _near(name: str, got, want, tol: float) -> list:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return [f"{name}: got {got!r}, want {want!r} within {tol:g}"]
    return []


def _leq(name: str, lhs, rhs) -> list:
    if lhs is None or rhs is None or not (lhs <= rhs):
        return [f"{name}: {lhs!r} > {rhs!r}"]
    return []


def alg_values(alg) -> tuple:
    return (alg.blocks.pairs, alg.dim, alg.dim_a, alg.dim_aprime)


def check_algebra(lib, alg, expected_pairs=None, sort=False) -> list:
    """Dimension accounting, planted/named block pattern and structural residuals."""
    pairs = alg.blocks.pairs
    out = []
    if expected_pairs is not None:
        got = sorted(pairs) if sort else list(pairs)
        want = sorted(expected_pairs) if sort else list(expected_pairs)
        if got != want:
            out.append(f"block pattern {got} != expected {want}")
    if sum(n * dj for n, dj in pairs) != alg.dim:
        out.append(f"sum n_J d_J of {pairs} != d = {alg.dim}")
    if alg.dim_a != sum(dj * dj for _, dj in pairs):
        out.append(f"dim A = {alg.dim_a} != sum d_J^2 of {pairs}")
    if alg.dim_aprime != sum(n * n for n, _ in pairs):
        out.append(f"dim A' = {alg.dim_aprime} != sum n_J^2 of {pairs}")
    if len(alg.center_projections) != len(pairs):
        out.append("one central projection per block expected")
    else:
        for (n, dj), p in zip(pairs, alg.center_projections):
            out += _near("Tr P_J", float(np.trace(p).real), n * dj, TOL_STRUCTURE)
    worst = max(lib.verification_residuals(alg).values())
    if not worst <= TOL_STRUCTURE:
        out.append(f"verification residual {worst:g} > {TOL_STRUCTURE:g}")
    return out


def build_op(label: str, desc, expected=None, sort=False) -> Op:
    return Op(
        label,
        lambda lib, res: lib.build_algebra(desc),
        alg_values,
        lambda lib, alg, res: check_algebra(lib, alg, expected, sort),
    )


def wrong_pattern(alg):
    """The same algebra with its first block's multiplicity raised by one."""
    (n, dj), *rest = alg.blocks.pairs
    blocks = dataclasses.replace(alg.blocks, pairs=((n + 1, dj), *rest))
    return dataclasses.replace(alg, blocks=blocks)


# -------------------------------------------------------------- structure


def structure(lib, seed: int, workdir: str | None) -> Plan:
    rng = _rng(seed, "structure")
    d_ = lib.AlgebraDescriptor
    named = [
        ("diagonal(12)", d_.diagonal(12), ((1, 1),) * 12),
        ("diagonal(16)", d_.diagonal(16), ((1, 1),) * 16),
        ("diagonal(20)", d_.diagonal(20), ((1, 1),) * 20),
        ("factor(8,2)", d_.factor(8, 2), ((2, 8),)),
        ("factor(2,8)", d_.factor(2, 8), ((8, 2),)),
        ("factor(4,4)", d_.factor(4, 4), ((4, 4),)),
        ("symmetric_swap(3)", d_.symmetric_swap(3), ((1, 6), (1, 3))),
        ("group_z2(4)", d_.group_z2(4), ((10, 1), (6, 1))),
        ("loschmidt(16)", d_.loschmidt(random_state(16, rng)), ((15, 1), (1, 1))),
    ]
    ops = [build_op(f"build:{name}", desc, pairs) for name, desc, pairs in named]
    for d, band in ((10, (12, 15)), (12, (15, 18)), (14, (18, 21)), (16, (18, 21))):
        gens, pairs = planted(d, rng, band)
        ops.append(build_op(f"build:planted({d})", d_.generators(gens), pairs, sort=True))
    controls = [Control("build:diagonal(12)", "wrong block pattern", wrong_pattern)]
    return Plan(ops, controls)


# -------------------------------------------------------------- gaac_haar


def gaac_values(rep) -> tuple:
    return (rep.value, rep.upper_bound, rep.saturation_residual)


def check_gaac(lib, rep, alg, u, case, exact=None) -> list:
    kp = alg.dim_aprime
    ub = bound(alg.dim_a, kp)
    out = _near("upper bound", rep.upper_bound, ub, 1e-12)
    out += _leq("0 <= G", -TOL_EXACT, rep.value) + _leq("G <= bound", rep.value, ub + TOL_EXACT)
    out += _near("closed form", rep.value, lib.closed_form(case, u), TOL_EXACT)
    out += _near("G(U) = G(U^dag)", rep.value, lib.gaac(alg, u.conj().T).value, TOL_EXACT)
    if exact is not None:
        out += _near("exact value", rep.value, exact, TOL_EXACT)
    res = rep.saturation_residual
    if res is not None:
        # ||P Ad_U P - T||^2 = k'(1 - G) - 1 holds for every unitary
        out += _near("residual^2 = k'(1-G) - 1", res * res, kp * (1.0 - rep.value) - 1.0,
                     1e-8 * kp)
    return out


def mc_values(summary) -> tuple:
    return (summary.analytic_mean, summary.mc_mean, summary.mc_std, summary.samples)


def check_mc(alg, s, n: int) -> list:
    want = haar_mean(alg.dim, alg.dim_aprime)
    out = _near("analytic Haar mean", s.analytic_mean, want, 1e-12)
    if s.samples != n or not s.mc_std > 0:
        return out + [f"samples {s.samples} / std {s.mc_std!r} malformed"]
    window = MC_SIGMAS * s.mc_std / math.sqrt(n)
    out += _near("MC mean vs analytic", s.mc_mean, want, window)
    out += _leq("MC mean <= bound", s.mc_mean, bound(alg.dim_a, alg.dim_aprime))
    return out


def gaac_haar(lib, seed: int, workdir: str | None) -> Plan:
    rng = _rng(seed, "gaac_haar")
    d_, c_ = lib.AlgebraDescriptor, lib.ClosedFormCase
    psi = random_state(16, rng)
    phi = random_state(16, rng)
    phi = phi - np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    v = (psi - phi) / np.linalg.norm(psi - phi)
    householder = np.eye(16) - 2.0 * np.outer(v, v.conj())  # maps psi to phi
    z2_phase = np.kron(np.diag([1.0, -1.0, 1.0, -1.0]), np.eye(4))
    # (name, descriptor, closed form, special unitary, its exact anti-correlator)
    cases = [
        ("diagonal(12)", d_.diagonal(12), c_.cgp(12), fourier_matrix(12), 1 - 1 / 12),
        ("factor(2,8)", d_.factor(2, 8), c_.bipartite_otoc(2, 8), qubit_swap(8), 0.75),
        ("factor(2,10)", d_.factor(2, 10), c_.bipartite_otoc(2, 10), qubit_swap(10), 0.75),
        ("group_z2(4)", d_.group_z2(4), c_.z2(4), z2_phase, 0.5 * 16 / 17),
        ("loschmidt(16)", d_.loschmidt(psi), c_.loschmidt(psi), householder,
         2.0 * (16 - 2) / (15**2 + 1)),
    ]
    ops = []
    for name, desc, case, special, exact in cases:
        b = f"build:{name}"
        ops.append(build_op(b, desc))
        d = int(special.shape[0])
        unitaries = [(str(i), haar_matrix(d, rng), None) for i in range(HAAR_UNITARIES)]
        unitaries.append(("special", special, exact))
        for tag, u, ex in unitaries:
            ops.append(Op(
                f"gaac:{name}:{tag}",
                lambda lib, res, b=b, u=u: lib.gaac(res[b], u),
                gaac_values,
                lambda lib, rep, res, b=b, u=u, case=case, ex=ex:
                    check_gaac(lib, rep, res[b], u, case, ex),
            ))
        mc_seed = int(rng.integers(2**31))
        ops.append(Op(
            f"mc:{name}",
            lambda lib, res, b=b, s=mc_seed: lib.haar_average_mc(
                res[b], MC_SAMPLES, lib.RandomSeed(s)),
            mc_values,
            lambda lib, s, res, b=b: check_mc(res[b], s, MC_SAMPLES),
        ))
    controls = [
        Control("gaac:diagonal(12):0", "G + 1e-6",
                lambda r: dataclasses.replace(r, value=r.value + 1e-6)),
        Control("mc:factor(2,8)", "MC mean + 20 standard errors",
                lambda s: dataclasses.replace(
                    s, mc_mean=s.mc_mean + 20 * s.mc_std / math.sqrt(s.samples))),
    ]
    return Plan(ops, controls)


# --------------------------------------------------------------- dynamics


def _analyze(lib, h):
    # a near-resonance warning is expected on some draws and is not a failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return lib.analyze_hamiltonian(h)


def check_model(model, h, resonant: bool) -> list:
    evals = np.linalg.eigvalsh(h)
    scale = 1.0 + float(evals[-1] - evals[0])
    out = []
    if model.eigenvalues.shape != evals.shape or np.max(
        np.abs(model.eigenvalues - evals)
    ) > TOL_EXACT * scale:
        out.append("eigenvalues disagree with numpy.linalg.eigvalsh")
    if resonant and model.nrc:
        out.append("equally spaced spectrum reported as non-resonant")
    return out


def check_chain(alg, model, exact, formula) -> list:
    """exact <= Gram formula + 1e-9 <= Haar mean + 2e-9, equality under NRC."""
    hm = haar_mean(alg.dim, alg.dim_aprime)
    out = _leq("exact <= formula + 1e-9", exact, formula + TOL_CHAIN)
    out += _leq("formula + 1e-9 <= Haar + 2e-9", formula + TOL_CHAIN, hm + 2 * TOL_CHAIN)
    out += _leq("0 <= exact", -TOL_CHAIN, exact)
    if model.nrc:
        out += _near("exact = formula under NRC", exact, formula, TOL_CHAIN)
    return out


def check_fluctuations(alg, rows, exact) -> list:
    ub = bound(alg.dim_a, alg.dim_aprime)
    if [r.epsilon for r in rows] != list(FLUCTUATION_EPS):
        return ["fluctuation rows do not follow the requested epsilons"]
    out = []
    for r in rows:
        out += _leq("0 <= frequency", 0.0, r.frequency) + _leq("frequency <= 1", r.frequency, 1.0)
        out += _near("Markov ratio", r.markov_bound, (ub - exact) / r.epsilon, 1e-9 / r.epsilon)
    return out


def dynamics(lib, seed: int, workdir: str | None) -> Plan:
    rng = _rng(seed, "dynamics")
    d_ = lib.AlgebraDescriptor
    gens, pairs = planted(12, rng, (15, 18), collinear_ok=False)
    # (name, dimension, descriptor, planted pattern, collinear)
    algebras = [
        ("diagonal(16)", 16, d_.diagonal(16), None, True),
        ("factor(2,6)", 12, d_.factor(2, 6), None, True),
        ("loschmidt(12)", 12, d_.loschmidt(random_state(12, rng)), ((11, 1), (1, 1)), False),
        ("planted(12)", 12, d_.generators(gens), pairs, False),
    ]
    ops = []
    for name, d, desc, expected, collinear in algebras:
        b = f"build:{name}"
        ops.append(build_op(b, desc, expected, sort=True))
        for kind, h in (("gue", gue_matrix(d, rng)), ("resonant", resonant_matrix(d, rng))):
            ops += _dynamics_ops(f"{name}:{kind}", b, h, kind == "resonant", collinear)
    bell = (BELL_COLUMNS * BELL_SPECTRUM) @ BELL_COLUMNS.T
    ops.append(build_op("build:factor(2,2)", d_.factor(2, 2), ((2, 2),)))
    ops.append(Op("analyze:bell", lambda lib, res: _analyze(lib, bell),
                  lambda m: (tuple(m.eigenvalues), m.nrc),
                  lambda lib, m, res: check_model(m, bell, False)
                  + ([] if m.nrc else ["Bell spectrum 0,1,3,7 should satisfy NRC"])))
    ops.append(Op("exact:bell",
                  lambda lib, res: lib.time_average_exact(res["build:factor(2,2)"],
                                                          res["analyze:bell"]),
                  float, lambda lib, x, res: _near("Bell time average", x, 9 / 16, TOL_EXACT)))
    ops.append(Op("chaos:bell",
                  lambda lib, res: lib.chaoticity(res["build:factor(2,2)"], res["analyze:bell"]),
                  float, lambda lib, x, res: _near("Bell chaoticity", x, 1 / 16, TOL_EXACT)))
    controls = [
        Control("exact:bell", "time average + 1e-6", lambda x: x + 1e-6),
        Control("grid:diagonal(16):gue", "grid value off by 0.05", lambda x: x + 0.05),
        Control("build:planted(12)", "wrong block pattern", wrong_pattern),
    ]
    return Plan(ops, controls)


def _dynamics_ops(key: str, b: str, h, resonant: bool, collinear: bool) -> list:
    a, e, f, g = f"analyze:{key}", f"exact:{key}", f"nrc:{key}", f"grid:{key}"

    def check_exact(lib, x, res):
        return check_chain(res[b], res[a], x, res[f])

    def check_grid(lib, x, res):
        return _near("grid vs exact", x, res[e], TOL_GRID)

    def check_chaos(lib, x, res):
        alg = res[b]
        return _near("chaoticity = 1 - exact/Haar", x,
                     1.0 - res[e] / haar_mean(alg.dim, alg.dim_aprime), TOL_EXACT)

    ops = [
        Op(a, lambda lib, res: _analyze(lib, h),
           lambda m: (tuple(m.eigenvalues), m.nrc, m.degenerate, len(m.resonance_classes)),
           lambda lib, m, res: check_model(m, h, resonant)),
        Op(e, lambda lib, res: lib.time_average_exact(res[b], res[a]), float, check_exact),
        Op(f, lambda lib, res: lib.time_average_nrc(res[b], res[a]), float,
           lambda lib, x, res: [] if math.isfinite(x) else ["formula value not finite"]),
        Op(g, lambda lib, res: lib.grid_time_average(
            res[b], res[a], lib.default_horizon(res[a]), GRID_POINTS), float, check_grid),
    ]
    if collinear:
        ops.append(Op(
            f"fluctuations:{key}",
            lambda lib, res: lib.fluctuation_scan(res[b], res[a], FLUCTUATION_EPS,
                                                  points=GRID_POINTS),
            lambda rows: tuple((r.epsilon, r.frequency, r.markov_bound) for r in rows),
            lambda lib, rows, res: check_fluctuations(res[b], rows, res[e]),
        ))
        ops.append(Op(
            f"witness:{key}", lambda lib, res: lib.scrambling_witness(res[b], res[a]), float,
            lambda lib, x, res: _leq("0 <= witness", 0.0, x) + _leq("witness <= 2", x, 2.0),
        ))
    ops.append(Op(f"chaos:{key}", lambda lib, res: lib.chaoticity(res[b], res[a]), float,
                  check_chaos))
    return ops


# -------------------------------------------------------------------- cli


@dataclass
class CliRun:
    """One finished command-line run with its own resource usage."""

    command: str
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def run_child(argv: list, env: dict, workdir: str, timeout: float = CLI_TIMEOUT_S) -> CliRun:
    """Run one child to completion and collect its peak RSS with wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    # argv is [python, -m, scramble.cli, command, ...]
    return CliRun(argv[3], proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def _report(run: CliRun):
    if run.returncode != 0:
        raise RuntimeError(f"exit code {run.returncode}: {run.stderr.strip()[-300:]}")
    if run.command == "haar":
        head, *rows = run.stdout.strip().splitlines()
        keys = head.split(",")
        return [dict(zip(keys, map(float, row.split(",")))) for row in rows]
    return json.loads(run.stdout)


def cli_values(run: CliRun):
    try:
        return (run.returncode, json.dumps(_report(run), sort_keys=True))
    except (RuntimeError, ValueError) as exc:
        return (run.returncode, str(exc))


def _algebra_report(rep, d, expected=None) -> list:
    blocks = [tuple(p) for p in rep["blocks"]]
    out = []
    if expected is not None and sorted(blocks) != sorted(expected):
        out.append(f"blocks {blocks} != planted {sorted(expected)}")
    if rep["dim"] != d or sum(n * dj for n, dj in blocks) != d:
        out.append("block sizes do not add up to d")
    if rep["dim_a"] != sum(dj * dj for _, dj in blocks):
        out.append("dim_a != sum d_J^2")
    if rep["dim_aprime"] != sum(n * n for n, _ in blocks):
        out.append("dim_aprime != sum n_J^2")
    return out


def check_cli_inspect(rep, d, expected) -> list:
    out = _algebra_report(rep, d, expected)
    worst = max(rep["verification_residuals"].values())
    return out + _leq("verification residual", worst, TOL_STRUCTURE)


def check_cli_gaac(lib, rep, u, case) -> list:
    alg = rep["algebra"]
    ub = bound(alg["dim_a"], alg["dim_aprime"])
    g = rep["value"]
    out = _algebra_report(alg, u.shape[0])
    out += _near("upper bound", rep["upper_bound"], ub, 1e-12)
    out += _leq("0 <= G", -TOL_EXACT, g) + _leq("G <= bound", g, ub + TOL_EXACT)
    out += _near("closed form", g, lib.closed_form(case, u), TOL_EXACT)
    res = rep.get("saturation_residual")
    if res is not None:
        kp = alg["dim_aprime"]
        out += _near("residual^2 = k'(1-G) - 1", res * res, kp * (1 - g) - 1, 1e-8 * kp)
    for name, gap in rep.get("cross_route_residuals", {}).items():
        out += _leq(f"cross-route {name}", gap, TOL_EXACT)
    return out


def check_cli_haar(rows, dims) -> list:
    if len(rows) != len(dims):
        return [f"{len(rows)} CSV rows for {len(dims)} algebras"]
    out = []
    for row, (d, kp) in zip(rows, dims):
        n = row["samples"]
        want = haar_mean(d, kp)
        if row["dim"] != d or row["d_Aprime"] != kp:
            out.append(f"row dims {row['dim']}, {row['d_Aprime']} != {d}, {kp}")
        out += _near("analytic Haar mean", row["analytic"], want, 1e-12)
        out += _near("MC mean vs analytic", row["mc_mean"], want,
                     MC_SIGMAS * row["mc_std"] / math.sqrt(n))
    return out


def check_cli_time_average(rep, exact_want=None) -> list:
    alg = rep["algebra"]
    hm = haar_mean(alg["dim"], alg["dim_aprime"])
    exact, formula = rep["exact_value"], rep["formula_value"]
    out = _near("Haar mean", rep["haar_mean"], hm, 1e-12)
    if formula is not None:
        out += _leq("exact <= formula + 1e-9", exact, formula + TOL_CHAIN)
        out += _leq("formula + 1e-9 <= Haar + 2e-9", formula + TOL_CHAIN, hm + 2 * TOL_CHAIN)
        if rep["nrc"]:
            out += _near("exact = formula under NRC", exact, formula, TOL_CHAIN)
    out += _leq("exact <= Haar + 2e-9", exact, hm + 2 * TOL_CHAIN)
    out += _near("epsilon = 1 - exact/Haar", rep["epsilon"], 1 - exact / hm, TOL_EXACT)
    if "grid_value" in rep:
        out += _near("grid vs exact", rep["grid_value"], exact, TOL_GRID)
    if alg["collinear"]:
        kp, ka, d = alg["dim_aprime"], alg["dim_a"], alg["dim"]
        out += _near("collinear bound", rep.get("bound"), 1 - 1 / kp - 1 / ka + 1 / (d * kp),
                     1e-12)
        out += _leq("0 <= witness", 0.0, rep.get("witness"))
    if exact_want is not None:
        out += _near("exact time average", exact, exact_want, TOL_EXACT)
    return out


def check_cli_chaos(rep) -> list:
    alg = rep["algebra"]
    hm = haar_mean(alg["dim"], alg["dim_aprime"])
    exact = rep["exact_value"]
    out = _near("Haar mean", rep["haar_mean"], hm, 1e-12)
    out += _leq("0 <= exact", -TOL_CHAIN, exact) + _leq("exact <= Haar + 2e-9", exact,
                                                        hm + 2 * TOL_CHAIN)
    out += _near("epsilon = 1 - exact/Haar", rep["epsilon"], 1 - exact / hm, TOL_EXACT)
    purity = rep.get("dephased_purity")
    if purity is not None:
        out += _leq("0 < purity", 0.0, purity) + _leq("purity <= 1", purity, 1.0 + TOL_EXACT)
    return out


def cli(lib, seed: int, workdir: str | None) -> Plan:
    """Sequential ``python -m scramble.cli`` runs on fixtures and generated files."""
    rng = _rng(seed, "cli")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lib.__file__)))
    env = {**os.environ, "PYTHONPATH": src}

    def write(name: str, obj) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    gens, pattern = planted(10, rng, (12, 15))
    u12 = haar_matrix(12, rng)
    psi = random_state(12, rng)
    haar_seed = int(rng.integers(2**31))
    gue_seed = int(rng.integers(2**31))
    mc_seed = int(rng.integers(2**31))
    gue12 = gue_matrix(12, rng)
    evals = np.linalg.eigvalsh(gue12)
    horizon = 200.0 / float(np.min(np.diff(evals)))
    files = {
        "planted": write("planted10.json", {"kind": "generators", "params": {
            "generators": [matrix_json(g) for g in gens]}}),
        "diag12": write("diag12.json", {"kind": "diagonal", "params": {"dim": 12}}),
        "f26": write("factor26.json", {"kind": "factor", "params": {"dim_a": 2, "dim_b": 6}}),
        "f34": write("factor34.json", {"kind": "factor", "params": {"dim_a": 3, "dim_b": 4}}),
        "losch12": write("loschmidt12.json", {"kind": "loschmidt", "params": {
            "state": [[float(c.real), float(c.imag)] for c in psi]}}),
        "u12": write("haar12.json", matrix_json(u12)),
        "gue12": write("gue12.json", matrix_json(gue12)),
        "bell": write("bell.json", {"eigenvalues": BELL_SPECTRUM.tolist(),
                                    "eigenvectors": matrix_json(BELL_COLUMNS)}),
        "gue4": write("gue4.json", {"gue": 4, "seed": gue_seed}),
        "res12": write("resonant12.json", {"eigenvalues": list(range(12)),
                                           "eigenvectors": matrix_json(haar_matrix(12, rng))}),
    }
    c_ = lib.ClosedFormCase
    runs = [
        ("inspect:z2_2", ["inspect", "--algebra", "z2_2"],
         lambda lib, r: check_cli_inspect(r, 4, [(3, 1), (1, 1)])),
        ("inspect:planted(10)", ["inspect", "--algebra", files["planted"]],
         lambda lib, r: check_cli_inspect(r, 10, pattern)),
        ("gaac:diagonal(12)", ["gaac", "--algebra", files["diag12"], "--unitary", files["u12"]],
         lambda lib, r: check_cli_gaac(lib, r, u12, c_.cgp(12))),
        ("gaac:masa_4:haar", ["gaac", "--algebra", "masa_4", "--haar", "--seed", str(haar_seed)],
         lambda lib, r: check_cli_gaac(
             lib, r, lib.haar_unitary(4, lib.RandomSeed(haar_seed)), c_.cgp(4))),
        ("haar:masa_4+factor(2,6)", ["haar", "--algebra", "masa_4", "--algebra", files["f26"],
                                     "--seed", str(mc_seed), "--samples", "200"],
         lambda lib, r: check_cli_haar(r, [(4, 4), (12, 36)])),
        ("time-average:factor(3,4):gue",
         ["time-average", "--algebra", files["f34"], "--hamiltonian", files["gue12"],
          "--grid", repr(horizon), str(GRID_POINTS)],
         lambda lib, r: check_cli_time_average(r)),
        ("time-average:bell", ["time-average", "--algebra", "bipartite_2x2",
                               "--hamiltonian", files["bell"]],
         lambda lib, r: check_cli_time_average(r, 9 / 16)),
        ("chaos:loschmidt_4:gue", ["chaos", "--algebra", "loschmidt_4",
                                   "--hamiltonian", files["gue4"]],
         lambda lib, r: check_cli_chaos(r)),
        ("chaos:loschmidt(12):resonant", ["chaos", "--algebra", files["losch12"],
                                          "--hamiltonian", files["res12"]],
         lambda lib, r: check_cli_chaos(r)),
    ]
    ops = []
    for label, argv, check in runs:
        full = [sys.executable, "-m", "scramble.cli", *argv]
        ops.append(Op(
            f"cli:{label}",
            lambda lib, res, full=full: run_child(full, env, workdir),
            cli_values,
            lambda lib, run, res, check=check: check(lib, _report(run)),
        ))

    def shifted(run: CliRun) -> CliRun:
        rep = json.loads(run.stdout)
        rep["value"] += 1e-6
        return dataclasses.replace(run, stdout=json.dumps(rep))

    controls = [Control("cli:gaac:diagonal(12)", "reported G + 1e-6", shifted)]
    return Plan(ops, controls)


WORKLOADS = {
    "structure": structure,
    "gaac_haar": gaac_haar,
    "dynamics": dynamics,
    "cli": cli,
}
