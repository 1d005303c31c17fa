"""Malformed or structure-lacking inputs end in exit code 2, never a traceback."""

import json
import os
import subprocess
import sys

import pytest

import matroidlab

# a lane-merging spec whose profile-0 search finds no glued base, so
# spectrum_search raises StructuralMismatchError
NO_BASE_FAMILY = {
    "prefix": {"vertices": ["p"], "edges": []},
    "repeat": {"vertices": ["a", "b", "c"], "edges": [["b", "a", "rung"]]},
    "splice": [["c", "c", "bottom"], ["a", "c", "top"], ["b", "b", "top"]],
    "apex": [{"vertex": "p", "per_block_edges": [["a", "spoke"]]}],
    "ends": ["e0"],
}

CASES = {
    "uniform-rank-not-a-number": (
        {"ground": ["a", "b"], "kind": "uniform", "rank": "q"},
        ["bases", "--system"],
    ),
    "rational-entry-not-a-number": (
        {
            "ground": ["x", "y"],
            "kind": "linear",
            "matrix": {"field": "q", "rows": ["r"], "cols": ["x", "y"],
                       "entries": [["r", "x", "abc"]]},
        },
        ["bases", "--system"],
    ),
    "family-repeat-is-a-list": (
        {"repeat": ["a", "b"], "splice": [["a", "a"]], "ends": ["e"]},
        ["rays", "--family"],
    ),
    "structural-mismatch": (
        NO_BASE_FAMILY,
        ["spectrum", "--prefix", "0", "--family"],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_exits_2_without_traceback(name, tmp_path):
    obj, argv = CASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matroidlab.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "matroidlab.cli", *argv, str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
