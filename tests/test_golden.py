"""Golden --json outputs: fixed-seed CLI reports must stay byte-identical.

The small documents are kept whole under tests/golden/; each sparsity
document (about 52 KB, mostly the family's matrices) is pinned by its
SHA-256 and printed in full on a mismatch. To regenerate after a change
that is meant to alter a report, write the new stdout over the golden file
or hash, and say in the change why the report moved."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from finfactor import save_matrix
from finfactor.cli import main

from helpers import planted_tuple, two_block_element

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["demo", "shift", "--k", "5"], "demo-shift-k5.json"),
        (["demo", "hyperfinite", "--dims", "4,3"], "demo-hyperfinite-4-3.json"),
        (["demo", "nested-units", "--sizes", "2,2,2,2"], "demo-nested-units-2-2-2-2.json"),
    ],
    ids=["shift", "hyperfinite", "nested-units"],
)
def test_demo_json_matches_golden(capsys, argv, golden):
    assert _stdout(capsys, argv + ["--json"]) == (GOLDEN_DIR / golden).read_text()


def test_pipeline_json_matches_golden(capsys, tmp_path):
    # the q+units closure of this fused generator runs through the closure
    # engine; the file stem is the report's label
    path = tmp_path / "two_block.json"
    save_matrix(path, two_block_element(1))
    out = _stdout(capsys, ["pipeline", str(path), "--units-k", "8", "--json"])
    assert out == (GOLDEN_DIR / "pipeline-two-block-k8.json").read_text()


@pytest.mark.parametrize(
    "strategy,sha256",
    [
        ("diagonal_grouping", "d13c263af5ce289cc475f30db48b0807efa5bc29c62a46f66bea18c67457dd12"),
        ("unitary_local_search", "e853d1f51a79cb54d3e7b63e7c50a12bb019ce0107923fd06cbab07cf6215a1e"),
        ("combined", "e30a2c32849765096b095c5e4fb33eab297407a8ed39e44efce88346a16f9e52"),
    ],
)
def test_sparsity_json_matches_golden_hash(capsys, tmp_path, strategy, sha256):
    paths = []
    for i, x in enumerate(planted_tuple(16, np.random.default_rng(5))):
        paths.append(tmp_path / f"x{i + 1}.json")
        save_matrix(paths[-1], x)
    out = _stdout(
        capsys,
        ["sparsity", *map(str, paths), "--k", "4", "--seed", "5", "--strategy", strategy,
         "--json"],
    )
    assert hashlib.sha256(out.encode()).hexdigest() == sha256, out
