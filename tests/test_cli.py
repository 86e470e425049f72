from __future__ import annotations

import json
import re

import numpy as np
import pytest

from scramble import (
    DecompositionError,
    DomainError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
    matrix_to_json,
    swap_operator,
)
from scramble import cli
from scramble.cli import main
from conftest import BELL_COLUMNS, BUDGET_MESSAGE, traced_peak
from oracles import gaac_distance_oracle, gaac_omega_oracle

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.fixture()
def hadamard_file(tmp_path):
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(matrix_to_json(HADAMARD)))
    return str(path)


@pytest.fixture()
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(matrix_to_json(swap_operator(2))))
    return str(path)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    spec = {
        "eigenvalues": [0.0, 1.0, 3.0, 7.0],
        "eigenvectors": matrix_to_json(BELL_COLUMNS),
    }
    path.write_text(json.dumps(spec))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_inspect_z2_fixture(capsys):
    rc, report = run_json(capsys, ["inspect", "--algebra", "z2_2"])
    assert rc == 0
    assert report["blocks"] == [[3, 1], [1, 1]]
    assert report["dim_aprime"] == 10
    assert report["collinear"] is False
    assert max(report["verification_residuals"].values()) < 1e-8


def test_inspect_diagonal_fixture(capsys):
    rc, report = run_json(capsys, ["inspect", "--algebra", "masa_4"])
    assert rc == 0
    assert report["collinear"] is True
    assert report["lambda"] == "1"


def test_inspect_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["inspect", "--algebra", str(bad)]) == 2


def test_inspect_unknown_fixture(capsys):
    assert main(["inspect", "--algebra", "no_such_fixture"]) == 2


def test_gaac_hadamard(capsys, hadamard_file, masa2):
    rc, report = run_json(capsys, ["gaac", "--algebra", "masa_2", "--unitary", hadamard_file])
    assert rc == 0
    assert report["value"] == pytest.approx(0.5, abs=1e-12)
    assert report["upper_bound"] == pytest.approx(0.5)
    assert "cross_route_residuals" not in report
    assert abs(report["value"] - gaac_omega_oracle(masa2, HADAMARD)) < 1e-9
    assert abs(report["value"] - gaac_distance_oracle(masa2, HADAMARD)) < 1e-9


def test_gaac_swap(capsys, swap_file):
    rc, report = run_json(
        capsys, ["gaac", "--algebra", "bipartite_2x2", "--unitary", swap_file]
    )
    assert rc == 0
    assert report["value"] == pytest.approx(0.75, abs=1e-12)
    assert report["saturation_residual"] < 1e-8


def test_gaac_haar_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gaac", "--algebra", "masa_4", "--haar", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["gaac", "--algebra", "masa_4", "--haar", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gaac_haar_requires_seed():
    assert main(["gaac", "--algebra", "masa_4", "--haar"]) == 2


def test_gaac_non_unitary_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5]))))
    assert main(["gaac", "--algebra", "masa_2", "--unitary", str(path)]) == 4


def test_gaac_hamiltonian_source(capsys, bell_file):
    rc, report = run_json(
        capsys,
        ["gaac", "--algebra", "bipartite_2x2", "--hamiltonian", bell_file, "--time", "0.8"],
    )
    assert rc == 0
    assert report["unitary_source"]["kind"] == "hamiltonian"
    assert 0.0 <= report["value"] <= report["upper_bound"] + 1e-8


def test_gaac_report_roundtrip(capsys, hadamard_file):
    rc, report = run_json(capsys, ["gaac", "--algebra", "masa_2", "--unitary", hadamard_file])
    assert rc == 0
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == report


def test_haar_csv(capsys):
    rc = main(["haar", "--algebra", "masa_4", "--seed", "11", "--samples", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,d_Aprime,analytic,mc_mean,mc_std,samples,seed"
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[1] == "4"
    assert float(fields[2]) == pytest.approx(0.6)
    assert fields[5] == "100" and fields[6] == "11"


def test_haar_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["haar", "--algebra", "masa_2", "--seed", "3", "--samples", "50"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_haar_requires_seed_and_samples():
    assert main(["haar", "--algebra", "masa_2", "--samples", "10"]) == 2
    assert main(["haar", "--algebra", "masa_2", "--seed", "1", "--samples", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gaac", "--algebra", "masa_2", "--haar", "--seed", "-1"],
        ["gaac", "--algebra", "masa_2", "--haar", "--seed", str(2**64)],
        ["haar", "--algebra", "masa_2", "--seed", "-3", "--samples", "4"],
    ],
    ids=["gaac_negative", "gaac_too_large", "haar_negative"],
)
def test_bad_seed_is_input_error(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_time_average_bell(capsys, bell_file):
    rc, report = run_json(
        capsys, ["time-average", "--algebra", "bipartite_2x2", "--hamiltonian", bell_file]
    )
    assert rc == 0
    assert report["nrc"] is True
    assert report["exact_value"] == pytest.approx(0.5625, abs=1e-9)
    assert report["formula_value"] == pytest.approx(0.5625, abs=1e-9)
    assert report["epsilon"] == pytest.approx(0.0625, abs=1e-9)
    assert report["bound"] == pytest.approx(0.5625)
    assert report["witness"] < 1e-9


def test_time_average_resonant(capsys, tmp_path):
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([0.0, 1.0, 2.0]))))
    desc = tmp_path / "masa3.json"
    desc.write_text(json.dumps({"kind": "diagonal", "params": {"dim": 3}}))
    rc, report = run_json(
        capsys, ["time-average", "--algebra", str(desc), "--hamiltonian", str(path)]
    )
    assert rc == 0
    assert report["nrc"] is False
    assert report["exact_value"] <= report["formula_value"] + 1e-9


def test_time_average_grid_field(capsys, bell_file):
    rc, report = run_json(
        capsys,
        [
            "time-average",
            "--algebra",
            "bipartite_2x2",
            "--hamiltonian",
            bell_file,
            "--grid",
            "200",
            "400",
        ],
    )
    assert rc == 0
    assert abs(report["grid_value"] - report["exact_value"]) < 0.02


def test_time_average_bound_on_noncollinear(tmp_path, bell_file):
    assert (
        main(
            [
                "time-average",
                "--algebra",
                "loschmidt_4",
                "--hamiltonian",
                bell_file,
                "--bound",
            ]
        )
        == 5
    )


def test_time_average_degenerate_suppresses_formula(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([0.0, 0.0, 1.0, 2.0]))))
    rc, report = run_json(
        capsys, ["time-average", "--algebra", "masa_4", "--hamiltonian", str(path)]
    )
    assert rc == 0
    assert report["degenerate_spectrum"] is True
    assert report["formula_value"] is None
    assert report["exact_value"] is not None


def test_chaos_loschmidt(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([0.0, 1.0, 3.0, 7.0]))))
    rc, report = run_json(
        capsys, ["chaos", "--algebra", "loschmidt_4", "--hamiltonian", str(path)]
    )
    assert rc == 0
    assert report["epsilon"] == pytest.approx(1.0)
    assert report["dephased_purity"] == pytest.approx(1.0)


def test_chaos_bell(capsys, bell_file):
    rc, report = run_json(
        capsys, ["chaos", "--algebra", "bipartite_2x2", "--hamiltonian", bell_file]
    )
    assert rc == 0
    assert report["epsilon"] == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert "dephased_purity" not in report


def test_dimension_mismatch_is_input_error(bell_file):
    assert main(["time-average", "--algebra", "masa_2", "--hamiltonian", bell_file]) == 2


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "factor", "params": {"dim_a": "x", "dim_b": 2}},
        {"kind": "factor", "params": {"dim_a": 2.5, "dim_b": 2}},
        {"kind": "factor", "params": {"dim_a": True, "dim_b": 2}},
        {"kind": "factor", "params": {"dim_a": 2}},
        {"kind": "diagonal", "params": {}},
        {"kind": "diagonal", "params": {"dim": 0}},
        {"kind": "symmetric_swap", "params": {"local_dim": "2"}},
        {"kind": "group_z2", "params": {"local_dim": None}},
        {"kind": "diagonal", "params": [4]},
        {"kind": "factor", "params": {"dim_a": 2, "dim_b": 2, "side": "C"}},
    ],
    ids=["string", "fraction", "bool", "missing_b", "missing", "zero", "numeric_string",
         "null", "params_list", "factor_side"],
)
def test_descriptor_parameters_are_input_errors(tmp_path, desc):
    assert main(["inspect", "--algebra", write_json(tmp_path / "desc.json", desc)]) == 2


def test_descriptor_integral_float_accepted(capsys, tmp_path):
    path = write_json(tmp_path / "desc.json", {"kind": "diagonal", "params": {"dim": 3.0}})
    rc, report = run_json(capsys, ["inspect", "--algebra", path])
    assert rc == 0
    assert report["dim"] == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_generator_is_input_error(tmp_path, bad):
    gen = {"dim": 2, "entries": [[[bad, 0], [0, 0]], [[0, 0], [1, 0]]]}
    desc = {"kind": "generators", "params": {"generators": [gen]}}
    assert main(["inspect", "--algebra", write_json(tmp_path / "desc.json", desc)]) == 2


def test_non_finite_loschmidt_state_is_input_error(tmp_path):
    desc = {"kind": "loschmidt", "params": {"state": [[1, 0], [float("nan"), 0]]}}
    assert main(["inspect", "--algebra", write_json(tmp_path / "desc.json", desc)]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"dim": 2, "entries": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"eigenvalues": [0.0, float("nan")], "eigenvectors": matrix_to_json(np.eye(2))},
    ],
    ids=["matrix", "eigenvalues"],
)
def test_non_finite_hamiltonian_is_input_error(tmp_path, spec):
    path = write_json(tmp_path / "h.json", spec)
    assert main(["time-average", "--algebra", "masa_2", "--hamiltonian", path]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"gue": 2, "seed": -5},
        {"gue": True, "seed": 1},
        {"gue": 2, "seed": False},
        {"gue": 2, "seed": 1.5},
        {"gue": 2},
    ],
    ids=["negative_seed", "bool_dim", "bool_seed", "float_seed", "missing_seed"],
)
def test_gue_shorthand_parameters_are_input_errors(tmp_path, capsys, spec):
    path = write_json(tmp_path / "h.json", spec)
    assert main(["time-average", "--algebra", "masa_2", "--hamiltonian", path]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        ("-1", "10"),
        ("0", "10"),
        ("inf", "10"),
        ("nan", "10"),
        ("10", "0.5"),
        ("10", "0"),
        ("10", "1e15"),
    ],
)
def test_time_average_grid_arguments_checked(bell_file, grid):
    argv = ["time-average", "--algebra", "bipartite_2x2", "--hamiltonian", bell_file]
    assert main(argv + ["--grid", *grid]) == 2


@pytest.fixture(scope="module")
def dimension_20_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("d20")
    desc = {"kind": "factor", "params": {"dim_a": 2, "dim_b": 10}}
    return (
        write_json(root / "factor_2x10.json", desc),
        write_json(root / "gue20.json", {"gue": 20, "seed": 3}),
    )


def test_gaac_dimension_20_reports_residual(capsys, dimension_20_files):
    desc, _ = dimension_20_files
    rc, report = run_json(capsys, ["gaac", "--algebra", desc, "--haar", "--seed", "2"])
    assert rc == 0
    assert isinstance(report["saturation_residual"], float)
    kp = report["algebra"]["dim_aprime"]
    assert report["saturation_residual"] ** 2 == pytest.approx(
        kp * (1 - report["value"]) - 1, abs=1e-10
    )


def test_time_average_and_chaos_dimension_20(capsys, dimension_20_files):
    desc, ham = dimension_20_files
    argv = ["--algebra", desc, "--hamiltonian", ham]
    rc, report = run_json(capsys, ["time-average", *argv])
    assert rc == 0
    assert report["exact_value"] <= report["formula_value"] + 1e-9
    assert report["formula_value"] <= report["haar_mean"] + 1e-9
    rc, chaos = run_json(capsys, ["chaos", *argv])
    assert rc == 0
    assert chaos["exact_value"] == report["exact_value"]
    assert chaos["epsilon"] == pytest.approx(1 - chaos["exact_value"] / chaos["haar_mean"])


@pytest.mark.parametrize(
    "tol, code",
    [("-1", 2), ("0", 2), ("nan", 2), ("2", 2), ("1e-17", 3), ("1e-300", 3)],
)
def test_bad_tolerance_exit_codes(capsys, tol, code):
    assert main(["inspect", "--algebra", "bipartite_2x2", "--tol", tol]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_gaac_hamiltonian_needs_time_before_reading_it(tmp_path, capsys, recwarn):
    # a d = 300 GUE spectrum would take a noticeable time to analyze and
    # warn about near-resonant gaps; the missing --time must stop the run first
    path = write_json(tmp_path / "g.json", {"gue": 300, "seed": 1})
    assert main(["gaac", "--algebra", "masa_4", "--hamiltonian", path]) == 2
    err = capsys.readouterr().err
    assert "--time" in err
    assert "Traceback" not in err and "near-resonant" not in err
    assert not [w for w in recwarn if "near-resonant" in str(w.message)]


@pytest.mark.parametrize(
    "algebra, tol", [("loschmidt_4", "0.5"), ("loschmidt_4", "0.9"), ("z2_2", "0.9")]
)
def test_loose_tolerance_fails_as_non_algebra(capsys, algebra, tol):
    # the loose rank cut keeps spans that are not closed under multiplication,
    # so the block frame drawn from the span has more blocks than the span allows
    assert main(["inspect", "--algebra", algebra, "--tol", tol]) == 3
    err = capsys.readouterr().err
    assert "not closed under multiplication" in err
    assert "failed to separate" not in err and "Traceback" not in err


def test_bool_matrix_dim_is_input_error(tmp_path, capsys):
    bad = {"dim": True, "entries": [[[1, 0]]]}
    path = write_json(tmp_path / "u.json", bad)
    assert main(["gaac", "--algebra", "masa_2", "--unitary", path]) == 2
    gens = {"kind": "generators", "params": {"generators": [bad]}}
    desc = write_json(tmp_path / "desc.json", gens)
    assert main(["inspect", "--algebra", desc]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gaac", "--algebra", "masa_2", "--hamiltonian", "{bell}", "--time", "0.5"],
        ["chaos", "--algebra", "masa_2", "--hamiltonian", "{bell}"],
    ],
    ids=["gaac", "chaos"],
)
def test_library_refuses_dimension_mismatch(capsys, bell_file, argv):
    assert main([a.format(bell=bell_file) for a in argv]) == 2
    assert "match" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "gaac", "haar", "time-average", "chaos"])
def test_format_option_is_gone(capsys, bell_file, command):
    argv = [command, "--algebra", "masa_2"]
    if command in ("time-average", "chaos"):
        argv += ["--hamiltonian", bell_file]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (ShapeError, 2),
        (DecompositionError, 3),
        (ValidationError, 4),
        (DomainError, 5),
        (UndefinedMetricError, 5),
    ],
)
def test_error_classes_map_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "run_inspect", fail)
    assert main(["inspect", "--algebra", "masa_2"]) == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--algebra", "masa_2", "--hamiltonian", "{big}"],
        ["time-average", "--algebra", "masa_2", "--hamiltonian", "{big}"],
        ["inspect", "--algebra", "{diagonal}"],
    ],
    ids=["chaos", "time-average", "inspect"],
)
def test_oversized_input_exits_2_before_allocating(tmp_path, capsys, argv):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"gue": 100000, "seed": 1}))
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps({"kind": "diagonal", "params": {"dim": 100000}}))
    argv = [a.format(big=big, diagonal=diagonal) for a in argv]
    with traced_peak() as peak:
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert re.search(BUDGET_MESSAGE, err) and "Traceback" not in err
    assert peak[0] < 2**20
