"""Golden CLI reports of the six shipped fixtures.

Each case runs one CLI command in-process, from ``tests/golden`` so that
input paths in the reports are relative, and compares the report with the
committed file under ``tests/golden``: non-float fields exactly, floats to
``FLOAT_TOL``, and ``verification_residuals`` (rounding noise that moves
with any route) only against ``RESIDUAL_CEILING``.  Each command also runs
twice and must write the same bytes both times.

Regenerate the inputs and reports with ``PYTHONPATH=src python
tests/test_golden.py``; only do so when a report is meant to change.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12
RESIDUAL_CEILING = 1e-8

FIXTURES = ("masa_2", "masa_4", "bipartite_2x2", "symmetric_2", "z2_2", "loschmidt_4")
DIMS = {"masa_2": 2}  # every other fixture has d = 4


def _inputs() -> dict[str, dict]:
    """Unitary and Hamiltonian inputs, by file name under ``golden/inputs``."""
    from scramble import RandomSeed, haar_unitary, matrix_to_json

    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    bell = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]).T / np.sqrt(2)
    out = {
        "hadamard_2.json": matrix_to_json(hadamard),
        "hadamard_4.json": matrix_to_json(np.kron(hadamard, hadamard)),
        "bell_4.json": {"eigenvalues": [0.0, 1.0, 3.0, 7.0], "eigenvectors": matrix_to_json(bell)},
    }
    for d in (2, 4):
        frame = matrix_to_json(haar_unitary(d, RandomSeed(2700, d)))
        out[f"gue_{d}.json"] = {"gue": d, "seed": 27 + d}
        out[f"resonant_{d}.json"] = {"eigenvalues": [float(e) for e in range(d)], "eigenvectors": frame}
        levels = [0.0] * (d // 2) + [1.5] * (d - d // 2)
        out[f"degenerate_{d}.json"] = {"eigenvalues": levels, "eigenvectors": frame}
    return out


def _cases() -> dict[str, list[str]]:
    """CLI argument lists, by golden report name."""
    cases = {}
    for fx in FIXTURES:
        d = DIMS.get(fx, 4)
        cases[f"inspect_{fx}"] = ["inspect", "--algebra", fx]
        cases[f"gaac_haar_{fx}"] = ["gaac", "--algebra", fx, "--haar", "--seed", "7"]
        cases[f"gaac_hadamard_{fx}"] = ["gaac", "--algebra", fx, "--unitary", f"inputs/hadamard_{d}.json"]
        spectra = ["gue", "resonant", "degenerate"] + (["bell"] if d == 4 else [])
        for spectrum in spectra:
            ham = f"inputs/{spectrum}_{d}.json"
            cases[f"time_average_{spectrum}_{fx}"] = ["time-average", "--algebra", fx, "--hamiltonian", ham]
        cases[f"chaos_{fx}"] = ["chaos", "--algebra", fx, "--hamiltonian", f"inputs/gue_{d}.json"]
    cases["time_average_grid_loschmidt_4"] = [
        "time-average", "--algebra", "loschmidt_4", "--hamiltonian", "inputs/gue_4.json",
        "--grid", "20", "50",
    ]
    haar = ["haar", "--seed", "11", "--samples", "40"]
    for fx in FIXTURES:
        haar += ["--algebra", fx]
    cases["haar_fixtures"] = haar
    return cases


CASES = _cases()


def _suffix(name: str) -> str:
    return ".csv" if name.startswith("haar") else ".json"


def _run(argv: list[str], out: Path) -> bytes:
    from scramble.cli import main

    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _same_json(got, want, path: str = "") -> list[str]:
    if path.endswith("verification_residuals"):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [f"{path}.{k}: {v!r} > {RESIDUAL_CEILING}" for k, v in got.items()
                if not v <= RESIDUAL_CEILING]
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [e for k in want for e in _same_json(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _same_json(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= FLOAT_TOL else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _same_csv(got: str, want: str) -> list[str]:
    rows = [list(csv.reader(io.StringIO(t))) for t in (got, want)]
    if len(rows[0]) != len(rows[1]) or rows[0][:1] != rows[1][:1]:
        return [f"csv shape or header differs: {rows[0][:1]} vs {rows[1][:1]}"]
    parsed = [[[_cell(c) for c in row] for row in r[1:]] for r in rows]
    return _same_json(*parsed, path="rows")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    suffix = _suffix(name)
    first = _run(CASES[name], tmp_path / f"a{suffix}")
    assert _run(CASES[name], tmp_path / f"b{suffix}") == first
    want = (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
    got = first.decode("utf-8")
    if suffix == ".csv":
        errors = _same_csv(got, want)
    else:
        errors = _same_json(json.loads(got), json.loads(want))
    assert not errors, errors


def test_every_golden_file_has_a_case():
    names = {p.stem for p in GOLDEN.glob("*.*")}
    assert names == set(CASES)


def _write_all() -> None:
    (GOLDEN / "inputs").mkdir(parents=True, exist_ok=True)
    for name, obj in _inputs().items():
        (GOLDEN / "inputs" / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        _run(argv, GOLDEN / f"{name}{_suffix(name)}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    _write_all()
