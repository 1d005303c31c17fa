"""Byte-for-byte pins of the canonical CLI command set.

Each file under tests/golden/ is the stdout of one command, recorded before
the disjoint-paths, BFS and union-find kernels replaced networkx.  Refactors
must keep every report identical; a changed witness shows up here first.
"""

from pathlib import Path

import pytest

from matroidlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "spectrum_ladder1": ["spectrum", "--family", "ladder:1"],
    "spectrum_ladder2": ["spectrum", "--family", "ladder:2"],
    "spectrum_bean": ["spectrum", "--family", "bean"],
    "spectrum_ladder1_prefix3": ["spectrum", "--family", "ladder:1", "--prefix", "3"],
    # a period above 1 reblocks the family, so its declaration order shows
    # in the witness indices
    "spectrum_bean_prefix1_period2": ["spectrum", "--family", "bean", "--prefix", "1", "--period", "2"],
    "spectrum_ladder2_period2": ["spectrum", "--family", "ladder:2", "--prefix", "0", "--period", "2"],
    "mk_ladder1_k1": ["mk", "--family", "ladder:1", "-k", "1"],
    "bean": ["bean"],
    "ch4_r5": ["ch4", "-r", "5"],
    "axioms_ch4_5": ["axioms", "--system", "ch4:5"],
    "axioms_ch4_5_F": ["axioms", "--system", "ch4:5", "--axioms", "F"],
    "rays_ladder2_glue_all": ["rays", "--family", "ladder:2", "--glue", "all"],
    "dominate_bean_v_k2": ["dominate", "--family", "bean", "--vertex", "v", "-k", "2"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_canonical_output_is_unchanged(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
