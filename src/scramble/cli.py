"""Batch front-end: load algebra / unitary / Hamiltonian specs, run the
computations and emit JSON reports or CSV tables.

Exit codes partition the failure modes: 2 for input problems, 3 for
decomposition failures, 4 for validation failures (non-unitary or
non-hermitian matrices), 5 for domain errors (e.g. a collinear-only bound
requested for a non-collinear algebra).  Each error class in ``errors``
carries its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import __version__
from .algebra import (
    AlgebraDescriptor,
    OperatorAlgebra,
    build_algebra,
    verification_residuals,
)
from .dynamics import (
    chaoticity,
    dephased_state_purity,
    evolution,
    grid_time_average,
    hamiltonian_from_json,
    nrc_upper_bound,
    scrambling_witness,
    time_average_exact,
    time_average_nrc,
)
from .errors import DomainError, ScrambleError, ShapeError
from .gaac import gaac
from .haar import haar_average_analytic, haar_average_mc
from .operator_space import RANK_TOL, RandomSeed, haar_unitary, matrix_from_json


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ShapeError(f"cannot parse {path}: {exc}") from exc


def _algebra_source(value: str):
    if os.path.exists(value):
        return _load_json(value)
    fixture = resources.files("scramble").joinpath(f"fixtures/{value}.json")
    if fixture.is_file():
        return json.loads(fixture.read_text(encoding="utf-8"))
    raise ShapeError(f"algebra spec {value!r} is neither a file nor a shipped fixture")


def _load_algebra(value: str, tol: float) -> OperatorAlgebra:
    return build_algebra(AlgebraDescriptor.from_json(_algebra_source(value)), tol)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scramble-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(report: dict, out_path: str | None) -> None:
    # numpy scalars that are not float subclasses (np.bool_, np.int64) go
    # through ``default``; floats are written with float.__repr__ either way
    text = json.dumps(report, sort_keys=True, indent=2, default=lambda x: x.item())
    _emit(text + "\n", out_path)


def _algebra_block(alg: OperatorAlgebra) -> dict:
    blocks = alg.blocks
    return {
        "dim": alg.dim,
        "dim_a": alg.dim_a,
        "dim_aprime": alg.dim_aprime,
        "blocks": [[n, dj] for n, dj in blocks.pairs],
        "collinear": blocks.collinear,
        "lambda": str(blocks.lam) if blocks.lam is not None else None,
        "fingerprint": blocks.fingerprint(),
    }


def run_inspect(args) -> int:
    alg = _load_algebra(args.algebra, args.tol)
    report = {
        "command": "inspect",
        "version": __version__,
        **_algebra_block(alg),
        "verification_residuals": verification_residuals(alg),
    }
    _emit_json(report, args.out)
    return 0


def _resolve_unitary(args, alg: OperatorAlgebra) -> tuple[np.ndarray, dict]:
    sources = [args.unitary is not None, args.haar, args.hamiltonian is not None]
    if sum(sources) != 1:
        raise ShapeError("exactly one of --unitary, --haar, --hamiltonian is required")
    if args.unitary is not None:
        return matrix_from_json(_load_json(args.unitary)), {"kind": "file", "path": args.unitary}
    if args.haar:
        if args.seed is None:
            raise ShapeError("--haar requires --seed")
        u = haar_unitary(alg.dim, RandomSeed(args.seed))
        return u, {"kind": "haar", "seed": args.seed}
    if args.time is None:
        raise ShapeError("--hamiltonian requires --time")
    model = hamiltonian_from_json(_load_json(args.hamiltonian))
    return evolution(model, args.time), {
        "kind": "hamiltonian",
        "path": args.hamiltonian,
        "time": args.time,
    }


def run_gaac(args) -> int:
    alg = _load_algebra(args.algebra, args.tol)
    u, source = _resolve_unitary(args, alg)
    report_obj = gaac(alg, u)
    report = {
        "command": "gaac",
        "version": __version__,
        "algebra": _algebra_block(alg),
        "unitary_source": source,
        "value": report_obj.value,
        "route": report_obj.route,
        "upper_bound": report_obj.upper_bound,
        "saturation_residual": report_obj.saturation_residual,
    }
    _emit_json(report, args.out)
    return 0


def run_haar(args) -> int:
    if args.seed is None:
        raise ShapeError("haar requires --seed")
    if args.samples < 2:
        raise ShapeError(f"haar requires --samples >= 2, got {args.samples}")
    lines = ["dim,d_Aprime,analytic,mc_mean,mc_std,samples,seed"]
    for index, spec in enumerate(args.algebra):
        alg = _load_algebra(spec, args.tol)
        summary = haar_average_mc(alg, args.samples, RandomSeed(args.seed, index * args.samples))
        lines.append(
            ",".join(
                [
                    str(alg.dim),
                    str(alg.dim_aprime),
                    repr(summary.analytic_mean),
                    repr(summary.mc_mean),
                    repr(summary.mc_std),
                    str(args.samples),
                    str(args.seed),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def run_time_average(args) -> int:
    if args.grid is not None:
        horizon, points = args.grid
        if not (np.isfinite(horizon) and horizon > 0):
            raise ShapeError(f"--grid horizon T must be finite and positive, got {horizon}")
        if not (points >= 1 and float(points).is_integer()):
            raise ShapeError(f"--grid point count M must be an integer >= 1, got {points}")
    alg = _load_algebra(args.algebra, args.tol)
    model = hamiltonian_from_json(_load_json(args.hamiltonian))
    exact = time_average_exact(alg, model)
    haar_mean = haar_average_analytic(alg)
    report = {
        "command": "time-average",
        "version": __version__,
        "algebra": _algebra_block(alg),
        "nrc": model.nrc,
        "degenerate_spectrum": model.degenerate,
        # the Gram-matrix formula depends on the eigenbasis choice inside
        # degenerate subspaces, so it is suppressed there
        "formula_value": None if model.degenerate else time_average_nrc(alg, model),
        "exact_value": exact,
        "haar_mean": haar_mean,
        "epsilon": 1.0 - exact / haar_mean if haar_mean > 0 else None,
    }
    if args.bound and not alg.blocks.collinear:
        raise DomainError("the infinite-time bound is defined for collinear pairs only")
    if alg.blocks.collinear:
        # the formula's value on fully scrambled eigenstates, not an upper
        # bound; the key keeps its name for existing readers of the report
        report["bound"] = nrc_upper_bound(alg)
        report["witness"] = scrambling_witness(alg, model)
    if args.grid is not None:
        report["grid_value"] = grid_time_average(alg, model, horizon, int(points))
        report["grid"] = {"horizon": horizon, "points": int(points)}
    _emit_json(report, args.out)
    return 0


def run_chaos(args) -> int:
    desc = AlgebraDescriptor.from_json(_algebra_source(args.algebra))
    alg = build_algebra(desc, args.tol)
    model = hamiltonian_from_json(_load_json(args.hamiltonian))
    report = {
        "command": "chaos",
        "version": __version__,
        "algebra": _algebra_block(alg),
        "nrc": model.nrc,
        "exact_value": time_average_exact(alg, model),
        "haar_mean": haar_average_analytic(alg),
        "epsilon": chaoticity(alg, model),
    }
    if desc.kind == "loschmidt":
        report["dephased_purity"] = dephased_state_purity(model, desc.params["state"])
    _emit_json(report, args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tol", type=float, default=RANK_TOL, help="relative rank tolerance in (0, 1)"
    )
    sub.add_argument("--out", default=None, help="output path (atomic write); default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scramble",
        description="Observable-algebra scrambling: structure, anti-correlator, "
        "Haar statistics and time averages.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("inspect", help="algebra structure report")
    p.add_argument("--algebra", required=True, help="descriptor path or fixture name")
    _add_common(p)
    p.set_defaults(func=run_inspect)

    p = commands.add_parser("gaac", help="anti-correlator of one unitary channel")
    p.add_argument("--algebra", required=True)
    p.add_argument("--unitary", default=None, help="matrix JSON path")
    p.add_argument("--haar", action="store_true", help="draw a Haar unitary (needs --seed)")
    p.add_argument("--hamiltonian", default=None, help="hamiltonian JSON path (needs --time)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=run_gaac)

    p = commands.add_parser("haar", help="Haar statistics table (CSV)")
    p.add_argument("--algebra", action="append", required=True, help="repeatable")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=run_haar)

    p = commands.add_parser("time-average", help="infinite-time average report")
    p.add_argument("--algebra", required=True)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--grid", nargs=2, type=float, metavar=("T", "M"), default=None)
    p.add_argument("--bound", action="store_true", help="require the collinear bound")
    _add_common(p)
    p.set_defaults(func=run_time_average)

    p = commands.add_parser("chaos", help="chaoticity metric report")
    p.add_argument("--algebra", required=True)
    p.add_argument("--hamiltonian", required=True)
    _add_common(p)
    p.set_defaults(func=run_chaos)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScrambleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
