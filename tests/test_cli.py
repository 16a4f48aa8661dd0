import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from finfactor import (
    acceptance,
    amplified_units,
    compression,
    load_matrix,
    matrix_to_doc,
    save_matrix,
    shift_pair,
    standard_units,
)
from finfactor.cli import main

from helpers import traced_peak

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _validator(schema_name):
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    return Draft7Validator(schema, registry=registry)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def shift_files(tmp_path):
    x1, x2 = shift_pair(standard_units(4))
    p1, p2 = tmp_path / "x1.json", tmp_path / "x2.json"
    save_matrix(p1, x1)
    save_matrix(p2, x2)
    return [str(p1), str(p2)]


@pytest.fixture
def block_file(tmp_path):
    x = np.zeros((8, 8), dtype=complex)
    x[2, 3] = 1.0
    path = tmp_path / "block.json"
    save_matrix(path, x)
    return str(path)


class TestDemo:
    def test_shift_values_and_schema(self, capsys):
        code, doc = _run_json(capsys, ["demo", "shift", "--k", "5", "--json"])
        assert code == 0
        _validator("demo.schema.json").validate(doc)
        assert doc["algebra_dim"] == 25
        assert (doc["sparsity"]["index_num"], doc["sparsity"]["index_den"]) == (9, 25)

    def test_hyperfinite_values_and_schema(self, capsys):
        code, doc = _run_json(capsys, ["demo", "hyperfinite", "--dims", "3,3", "--json"])
        assert code == 0
        _validator("demo.schema.json").validate(doc)
        assert doc["algebra_dim"] == 81
        assert (doc["sparsity"]["index_num"], doc["sparsity"]["index_den"]) == (7, 9)
        assert doc["index_bound_ok"] is True

    def test_nested_units_schema_and_bundle(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        code, doc = _run_json(
            capsys, ["demo", "nested-units", "--sizes", "2,3", "--json", "--out", str(out)]
        )
        assert code == 0
        _validator("demo.schema.json").validate(doc)
        assert doc["size"] == 6 and doc["verify"]["passed"]
        bundle = json.loads((out / "units.json").read_text())
        _validator("units-bundle.schema.json").validate(bundle)

    def test_invalid_kind_is_usage_error(self, capsys):
        assert main(["demo", "nonsense"]) == 1

    def test_hyperfinite_small_factor_is_precondition_error(self, capsys):
        assert main(["demo", "hyperfinite", "--dims", "2,3"]) == 2

    @pytest.mark.parametrize(
        "kind,flag,value",
        [
            ("hyperfinite", "--dims", "3,,3"),
            ("hyperfinite", "--dims", "3,3,"),
            ("nested-units", "--sizes", "2,,3"),
            ("nested-units", "--sizes", "2,3,"),
        ],
    )
    def test_empty_list_entry_is_usage_error(self, capsys, kind, flag, value):
        assert main(["demo", kind, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty entry" in err

    def test_shift_dimension_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "4")
        assert main(["demo", "shift", "--k", "5"]) == 2
        assert "ambient dimension 5 exceeds cap 4" in capsys.readouterr().err

    def test_hyperfinite_past_the_span_budget_exits_two(self, capsys):
        # n = 216 passes the dimension cap of 256, but a basis of M_216 would
        # hold 216^4 complex entries (about 32 GiB): generate refuses first
        assert main(["demo", "hyperfinite", "--dims", "6,6,6"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ambient dimension 216" in err

    def test_hyperfinite_past_the_span_budget_builds_no_tower(self, capsys):
        # the three 216 x 216 unit levels alone would take several MiB
        peak = traced_peak(lambda: main(["demo", "hyperfinite", "--dims", "6,6,6"]))
        assert peak < 1 << 20
        assert "ambient dimension 216" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims,message",
        [
            ("2,100", "all factor dimensions must be >= 3, got [2, 100]"),
            ("3,100", "ambient dimension 300 exceeds cap 256"),
        ],
    )
    def test_hyperfinite_argument_checks_come_before_the_span_budget(
        self, capsys, dims, message
    ):
        # both products are past the span budget's n = 90 as well
        assert main(["demo", "hyperfinite", "--dims", dims]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestSparsity:
    def test_identity_index(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4, dtype=complex))
        out = tmp_path / "report.json"
        code, doc = _run_json(
            capsys, ["sparsity", str(path), "--k", "4", "--json", "--out", str(out)]
        )
        assert code == 0
        _validator("sparsity-output.schema.json").validate(doc)
        assert (doc["report"]["index_num"], doc["report"]["index_den"]) == (1, 4)
        assert json.loads(out.read_text())["report"] == doc["report"]

    def test_shift_pair_exhaustive_minimum(self, capsys, shift_files):
        code, doc = _run_json(capsys, ["sparsity", *shift_files, "--k", "2", "--json"])
        assert code == 0
        assert (doc["report"]["index_num"], doc["report"]["index_den"]) == (3, 4)

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["sparsity", str(bad), "--k", "2"]) == 1

    def test_non_divisor_exits_two(self, capsys, shift_files):
        assert main(["sparsity", *shift_files, "--k", "3"]) == 2

    def test_zero_k_exits_two_with_one_line(self, capsys, shift_files):
        assert main(["sparsity", *shift_files, "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition violated:") and err.count("\n") == 1

    def test_negative_restarts_is_usage_error(self, capsys, shift_files):
        assert main(["sparsity", *shift_files, "--k", "2", "--restarts", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: restarts must be") and err.count("\n") == 1

    def test_seeded_runs_are_byte_identical(self, capsys, shift_files):
        argv = ["sparsity", *shift_files, "--k", "2", "--seed", "7", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestPipeline:
    def test_single_block_run(self, capsys, block_file, tmp_path):
        out = tmp_path / "pipe"
        code, doc = _run_json(capsys, ["pipeline", block_file, "--json", "--out", str(out)])
        assert code == 0
        _validator("pipeline-report.schema.json").validate(doc)
        assert doc["final_algebra_dim"] == 64
        final = load_matrix(out / "final.json")
        assert final.shape == (8, 8)

    def test_dense_input_exits_two(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "dense.json"
        save_matrix(path, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        assert main(["pipeline", str(path)]) == 2
        assert "cut_and_paste" in capsys.readouterr().err

    def test_human_readable_table(self, capsys, block_file):
        assert main(["pipeline", block_file]) == 0
        out = capsys.readouterr().out
        assert "stage cut_and_paste" in out
        assert "final algebra dim: 64" in out

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_units_bundle_input(self, capsys, tmp_path):
        main(["demo", "nested-units", "--sizes", "2,3", "--out", str(tmp_path)])
        capsys.readouterr()
        zero = tmp_path / "zero.json"
        save_matrix(zero, np.zeros((6, 6), dtype=complex))
        code, doc = _run_json(
            capsys,
            ["pipeline", str(zero), "--units", str(tmp_path / "units.json"), "--json"],
        )
        assert code == 0
        assert doc["k"] == 6

    def test_units_that_are_not_full_exit_two(self, capsys, tmp_path, block_file):
        # e_11 and e_22 of M_2 placed in M_8 sum to a projection of rank 2, not I
        units = amplified_units(2, 1).units
        bundle = {"k": 2, "ambient_dim": 8, "units": {
            f"e_{i + 1}_{j + 1}": matrix_to_doc(np.pad(units[i, j], (0, 6)))
            for i in range(2) for j in range(2)
        }}
        path = tmp_path / "partial-units.json"
        path.write_text(json.dumps(bundle))
        assert main(["pipeline", block_file, "--units", str(path)]) == 2
        err = capsys.readouterr().err
        assert "require a full unit system (sum e_jj = I)" in err and err.count("\n") == 1

    def test_units_k_divisor_check(self, capsys, block_file):
        assert main(["pipeline", block_file, "--units-k", "3"]) == 2

    def test_zero_units_k_is_usage_error(self, capsys, block_file):
        assert main(["pipeline", block_file, "--units-k", "0"]) == 1
        assert "--units-k must be a positive integer" in capsys.readouterr().err

    def test_units_and_units_k_conflict_is_usage_error(self, capsys, tmp_path, block_file):
        main(["demo", "nested-units", "--sizes", "2,4", "--out", str(tmp_path)])
        capsys.readouterr()
        bundle = str(tmp_path / "units.json")
        assert main(["pipeline", block_file, "--units", bundle, "--units-k", "0"]) == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("units", [5, "e_1_1"], ids=["number", "string"])
    def test_units_that_are_not_an_object_exit_one(self, capsys, tmp_path, block_file, units):
        path = tmp_path / "bad-units.json"
        path.write_text(json.dumps({"k": 1, "ambient_dim": 8, "units": units}))
        assert main(["pipeline", block_file, "--units", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'units' must be an object") and err.count("\n") == 1

    def test_dimension_cap_exits_two(self, capsys, monkeypatch, block_file):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "4")
        assert main(["pipeline", block_file]) == 2
        assert "ambient dimension 8 exceeds cap 4" in capsys.readouterr().err

    def test_linear_algebra_breakdown_is_numerical_failure(self, capsys, monkeypatch, block_file):
        # numpy's LinAlgError is a ValueError, which alone would read as a usage error
        def breakdown(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(compression, "pipeline", breakdown)
        assert main(["pipeline", block_file]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: Matrix is not positive definite\n"


class TestVerifyAll:
    def test_passes_schema_and_determinism(self, capsys):
        argv = ["verify-all", "--seed", "7", "--json"]
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        doc = json.loads(first)
        _validator("verify-all.schema.json").validate(doc)
        assert doc["all_passed"] and len(doc["criteria"]) == 10
        budgets = {num: budget for num, _, _, budget in acceptance.CRITERIA}
        for crit in doc["criteria"]:
            assert crit["budget_s"] == budgets[crit["number"]]
            assert 0 <= crit["elapsed_s"] < crit["budget_s"]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        # wall times differ between runs; everything else is fixed by the seed
        for d in (doc, second):
            for crit in d["criteria"]:
                del crit["elapsed_s"]
        assert second == doc

    def test_human_output_one_line_per_criterion(self, capsys):
        assert main(["verify-all"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 10
        assert all(line.startswith("PASS criterion") for line in lines)


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_missing_required_flag_is_usage_error(self, shift_files):
        assert main(["sparsity", *shift_files]) == 1

    @pytest.mark.parametrize("flag", ["--eta", "--structural-tol", "--span-tol"])
    def test_zero_tolerance_is_rejected(self, capsys, flag):
        assert main(["demo", "shift", "--k", "3", flag, "0"]) == 1
        assert "must lie strictly between 0 and 1" in capsys.readouterr().err


class TestInputFiles:
    """JSON true/false are not numbers in the file schemas, though Python
    loads them as bool, a subclass of int."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": True, "entries": [[1.0, 0.0]]},
            {"dim": 2, "entries": [[True, 0], [0, 0], [0, 0], [1, 0]]},
            {"dim": 2, "entries": [[1, 0], [0, False], [0, 0], [1, 0]]},
        ],
        ids=["dim", "real_part", "imaginary_part"],
    )
    def test_boolean_in_matrix_file_exits_one(self, capsys, tmp_path, doc):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["sparsity", str(path), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_integer_outside_float_range_exits_one(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[10**400, 0]]}))
        assert main(["sparsity", str(path), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: entry 0 is outside the float range\n"

    def test_boolean_unit_count_exits_one(self, capsys, tmp_path, block_file):
        main(["demo", "nested-units", "--sizes", "2,4", "--out", str(tmp_path)])
        capsys.readouterr()
        bundle = json.loads((tmp_path / "units.json").read_text())
        bundle["k"] = True
        path = tmp_path / "bool-units.json"
        path.write_text(json.dumps(bundle))
        assert main(["pipeline", block_file, "--units", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'k' must be a positive integer") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [99, None, 6.0, True], ids=["wrong", "missing", "float", "bool"])
    def test_unit_bundle_ambient_dim_must_match_the_units(self, capsys, tmp_path, value):
        main(["demo", "nested-units", "--sizes", "2,3", "--out", str(tmp_path)])
        capsys.readouterr()
        bundle = json.loads((tmp_path / "units.json").read_text())
        assert bundle["ambient_dim"] == 6
        if value is None:
            del bundle["ambient_dim"]
        else:
            bundle["ambient_dim"] = value
        path = tmp_path / "bad-units.json"
        path.write_text(json.dumps(bundle))
        zero = tmp_path / "zero.json"
        save_matrix(zero, np.zeros((6, 6), dtype=complex))
        assert main(["pipeline", str(zero), "--units", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'ambient_dim' must be") and err.count("\n") == 1
