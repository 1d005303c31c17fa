"""Malformed or structure-lacking inputs end in exit code 2, never a traceback."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import matroidlab
from matroidlab.cli import main
from matroidlab.periodic import MAX_STRIP, MAX_WINDOW

# a lane-merging spec whose profile-0 search finds no glued base, so
# spectrum_search raises StructuralMismatchError
NO_BASE_FAMILY = {
    "prefix": {"vertices": ["p"], "edges": []},
    "repeat": {"vertices": ["a", "b", "c"], "edges": [["b", "a", "rung"]]},
    "splice": [["c", "c", "bottom"], ["a", "c", "top"], ["b", "b", "top"]],
    "apex": [{"vertex": "p", "per_block_edges": [["a", "spoke"]]}],
    "ends": ["e0"],
}

# one ladder: a rung in every window, two rails
LADDER_FAMILY = {
    "repeat": {"vertices": ["t", "b"], "edges": [["t", "b", "rung"]]},
    "splice": [["t", "t", "top"], ["b", "b", "bottom"]],
    "ends": ["e"],
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
    "ground-not-an-array": (
        {"ground": 5, "kind": "uniform", "rank": 1},
        ["bases", "--system"],
    ),
    "graphic-edge-one-endpoint": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2, "edges": [[0]]},
        ["bases", "--system"],
    ),
    "graphic-endpoint-not-a-number": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2, "edges": [["x", 1]]},
        ["bases", "--system"],
    ),
    "matrix-entry-not-an-array": (
        {
            "ground": ["x"],
            "kind": "linear",
            "matrix": {"field": "q", "rows": ["r"], "cols": ["x"], "entries": [5]},
        },
        ["bases", "--system"],
    ),
    "graphic-edges-null": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2, "edges": None},
        ["bases", "--system"],
    ),
    "family-ends-not-an-array": (
        {"repeat": {"vertices": ["a"]}, "splice": [["a", "a"]], "ends": 5},
        ["rays", "--family"],
    ),
    "family-repeat-vertices-not-an-array": (
        {"repeat": {"vertices": 5}, "splice": [["a", "a"]], "ends": ["e"]},
        ["rays", "--family"],
    ),
    "edit-base-is-a-directory": (
        {"base": ".", "delete": []},
        ["scan", "--prefix", "0"],
    ),
    "scan-target-is-a-number": (
        5,
        ["scan", "--prefix", "0"],
    ),
    "family-splice-not-an-array": (
        {"repeat": {"vertices": ["a"]}, "splice": [5], "ends": ["e"]},
        ["rays", "--family"],
    ),
    # a string or an object is iterable but is not an array
    "ground-is-a-string": (
        {"ground": "abc", "kind": "uniform", "rank": 1},
        ["bases", "--system"],
    ),
    "ground-is-an-object": (
        {"ground": {"x": 1, "y": 2}, "kind": "uniform", "rank": 1},
        ["bases", "--system"],
    ),
    "family-repeat-vertices-is-a-string": (
        {"repeat": {"vertices": "lane"}, "splice": [["l", "l"]], "ends": ["e"]},
        ["rays", "--family"],
    ),
    "family-ends-is-a-string": (
        {
            "repeat": {"vertices": ["a", "b", "c", "d"]},
            "splice": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"]],
            "ends": "wxyz",
        },
        ["rays", "--family"],
    ),
    # an integer field takes neither a fraction nor a boolean
    "uniform-rank-is-a-fraction": (
        {"ground": ["a", "b"], "kind": "uniform", "rank": 1.9},
        ["bases", "--system"],
    ),
    "explicit-element-is-a-boolean": (
        {"ground": ["a", "b"], "kind": "explicit", "independent": [[], [0], [True], [0, True]]},
        ["bases", "--system"],
    ),
    "uniform-rank-is-a-boolean": (
        {"ground": ["a", "b"], "kind": "uniform", "rank": True},
        ["bases", "--system"],
    ),
    "graphic-vertex-count-is-a-fraction": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2.9, "edges": [[0, 1]]},
        ["bases", "--system"],
    ),
    "graphic-endpoint-is-a-fraction": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2, "edges": [[0, 1.7]]},
        ["bases", "--system"],
    ),
    "gluing-psi-is-a-fraction": (
        {"groups": [["end0"]], "psi": [0.5]},
        ["spectrum", "--prefix", "0", "--family", "ladder:1", "--glue"],
    ),
    "block-row-offset-is-a-fraction": (
        {
            "field": "q",
            "persistent_rows": ["a"],
            "block_rows": ["x"],
            "block_cols": [[[["p", "a"], 1], [["b", "x", 0.5], 1]]],
        },
        ["thin", "--matrix-family"],
    ),
    "edit-slot-is-a-boolean": (
        {"base": LADDER_FAMILY, "delete": [["spl", True, 0]]},
        ["scan", "--prefix", "0"],
    ),
    "edit-window-is-a-boolean": (
        {"base": LADDER_FAMILY, "delete": [["win", 0, True]]},
        ["scan", "--prefix", "0"],
    ),
    # a key no format defines is an error, not a key read as absent: with
    # "window_edges" and "splice_edges" this family read as edgeless
    "family-unknown-key": (
        {
            "repeat": {"vertices": ["t", "b"], "window_edges": [["t", "b", "rung"]]},
            "splice_edges": [["t", "t", "top"], ["b", "b", "bottom"]],
            "ends": [],
        },
        ["rays", "--family"],
    ),
    "family-prefix-unknown-key": (
        {**LADDER_FAMILY, "prefix": {"vertices": ["p"], "links": []}},
        ["rays", "--family"],
    ),
    "family-apex-block-unknown-key": (
        {**LADDER_FAMILY, "prefix": {"vertices": ["p"]},
         "apex": [{"vertex": "p", "per_block_edges": ["t"], "role": "spoke"}]},
        ["rays", "--family"],
    ),
    "gluing-unknown-key": (
        {"groups": [["end0"]], "psi": [0], "phi": [0]},
        ["spectrum", "--prefix", "0", "--family", "ladder:1", "--glue"],
    ),
    "edit-unknown-key": (
        {"base": LADDER_FAMILY, "remove": [["spl", 0, 0]]},
        ["scan", "--prefix", "0"],
    ),
    "uniform-system-unknown-key": (
        {"ground": ["a", "b"], "kind": "uniform", "rank": 1, "vertices": 2},
        ["bases", "--system"],
    ),
    "explicit-system-unknown-key": (
        {"ground": ["a"], "kind": "explicit", "independent": [[]], "independents": [[], [0]]},
        ["bases", "--system"],
    ),
    "graphic-system-unknown-key": (
        {"ground": ["a"], "kind": "graphic", "vertices": 2, "edges": [[0, 1]], "loops": []},
        ["bases", "--system"],
    ),
    "linear-system-unknown-key": (
        {
            "ground": ["x"],
            "kind": "linear",
            "matrix": {"field": "q", "rows": ["r"], "cols": ["x"], "entries": []},
            "rank": 1,
        },
        ["bases", "--system"],
    ),
    "matrix-unknown-key": (
        {
            "ground": ["x"],
            "kind": "linear",
            "matrix": {"field": "q", "rows": ["r"], "cols": ["x"], "entries": [], "columns": []},
        },
        ["bases", "--system"],
    ),
    "nested-pair-unknown-key": (
        {
            "inner": {"ground": ["a"], "kind": "uniform", "rank": 0},
            "outer": {"ground": ["a"], "kind": "uniform", "rank": 1},
            "middle": {"ground": ["a"], "kind": "uniform", "rank": 1},
        },
        ["spectrum", "--pair"],
    ),
    "matrix-family-unknown-key": (
        {"field": "q", "persistent_rows": ["a"], "block_rows": [], "block_cols": [], "rows": []},
        ["thin", "--matrix-family"],
    ),
    "edit-prefix-index-is-a-boolean": (
        {
            "base": {**LADDER_FAMILY, "prefix": {"vertices": ["p"], "edges": [["p", ["r", "t"]]] * 2}},
            "delete": [["pre", True]],
        },
        ["scan", "--prefix", "0"],
    ),
}


def run_fresh(argv):
    """The CLI in a new interpreter: (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matroidlab.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "matroidlab.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_exits_2_without_traceback(name, tmp_path):
    obj, argv = CASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run_fresh([*argv, str(path)])
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["rays", "--family", "ladder:²"],
        ["axioms", "--system", "ch4:³"],
        ["dominate", "--family", "ladder:1", "--vertex", "t0:²", "-k", "1"],
    ],
    ids=["ladder-superscript", "ch4-superscript", "window-superscript"],
)
def test_superscript_digits_exit_2_without_traceback(argv):
    # str.isdigit() accepts superscripts, which int() rejects
    rc, _, err = run_fresh(argv)
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, dominates",
    [
        (["--family", "ladder:1", "--vertex", f"t0:{MAX_WINDOW}", "-k", "2"], True),
        (["--family", "ladder:1", "--vertex", f"t0:{MAX_WINDOW + 1}", "-k", "2"], None),
        (["--family", "ladder:1", "--vertex", "t0:9999999999", "-k", "2"], None),
        (["--family", "bean", "--vertex", "v", "-k", str(MAX_WINDOW)], True),
        (["--family", "bean", "--vertex", "v", "-k", str(MAX_WINDOW + 1)], None),
        (["--family", "bean", "--vertex", "v", "-k", "9999999999"], None),
    ],
    ids=["window-at-cap", "window-past-cap", "window-huge", "k-at-cap", "k-past-cap", "k-huge"],
)
def test_dominate_caps_window_and_path_count(argv, dominates):
    # past the cap the query stops before building a truncation, which would
    # grow with the window and with k
    rc, out, err = run_in_process(["dominate", *argv])
    if dominates is None:
        assert rc == 3, err
        assert err.startswith("resource bound: ")
    else:
        assert rc == 0, err
        assert json.loads(out)["result"]["dominates"] is dominates


# a splice-free family: its q-fold spec has no edge slot, so the one empty
# candidate answers at every prefix and period up to the cap
LANE_ONLY_FAMILY = {"repeat": {"vertices": ["a"]}, "ends": []}

@pytest.mark.parametrize(
    "argv, answer",
    [
        (["spectrum", "--family", "{lanes}", "--prefix", str(MAX_WINDOW)], ("values", [0])),
        (["spectrum", "--family", "{lanes}", "--prefix", str(MAX_WINDOW + 1)], None),
        (["spectrum", "--family", "{lanes}", "--prefix", "1" * 20], None),
        (["spectrum", "--family", "{lanes}", "--prefix", "0", "--period", str(MAX_WINDOW)],
         ("values", [0])),
        (["spectrum", "--family", "{lanes}", "--prefix", "0", "--period", str(MAX_WINDOW + 1)],
         None),
        (["spectrum", "--family", "ladder:1", "--prefix", "0", "--period", str(MAX_WINDOW + 1)],
         None),
        (["spectrum", "--family", "ladder:1", "--prefix", "0", "--period", "100000"], None),
        (["ch4", "-r", str(MAX_WINDOW + 1)], None),
    ],
    ids=["prefix-at-cap", "prefix-past-cap", "prefix-huge",
         "period-at-cap", "period-past-cap",
         "ladder-period-past-cap", "ladder-period-huge", "blocks-past-encoding-cap"],
)
def test_depth_period_and_block_count_caps(argv, answer, tmp_path):
    # past each cap the query stops before building the candidate walk, the
    # q-fold spec or the block family, which grow with the bound
    lanes = tmp_path / "lanes.json"
    lanes.write_text(json.dumps(LANE_ONLY_FAMILY))
    argv = [a.format(lanes=lanes) for a in argv]
    rc, out, err = run_in_process(argv)
    if answer is None:
        assert rc == 3, err
        assert err.startswith("resource bound: ")
    else:
        assert rc == 0, err
        key, value = answer
        assert json.loads(out)["result"][key] == value


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["rays", "--family", f"ladder:{MAX_WINDOW}"], 2 * MAX_WINDOW),
        (["rays", "--family", f"ladder:{MAX_WINDOW + 1}"], None),
        (["rays", "--family", "ladder:100000"], None),
        (["spectrum", "--family", f"ladder:{MAX_WINDOW}", "--prefix", "0"], MAX_WINDOW),
        (["spectrum", "--family", f"ladder:{MAX_WINDOW + 1}", "--prefix", "0"], None),
        (["scan", f"ladder:{MAX_WINDOW}", "--prefix", "0"], MAX_WINDOW),
        (["scan", f"ladder:{MAX_WINDOW + 1}", "--prefix", "0"], None),
    ],
    ids=["rays-at-cap", "rays-past-cap", "rays-huge", "spectrum-at-cap", "spectrum-past-cap",
         "scan-at-cap", "scan-past-cap"],
)
def test_ladder_count_cap(argv, answer):
    # every sweep join relabels a list as long as the lane count, so past the
    # cap the query stops before building the family
    rc, out, err = run_in_process(argv)
    if answer is None:
        assert rc == 3, err
        assert err.startswith("resource bound: ") and "ladder families are capped" in err
        return
    assert rc == 0, err
    result = json.loads(out)["result"]
    if argv[0] == "rays":
        assert result["rays"] == answer
    else:
        values = result["rows"][0]["values"] if argv[0] == "scan" else result["values"]
        assert values == list(range(answer + 1))


def rail_fan(n):
    """n rails l -> l joined by fan splices l0 -> li: one end, no window edges."""
    lanes = [f"l{i}" for i in range(n)]
    return {
        "repeat": {"vertices": lanes},
        "splice": [[lane, lane] for lane in lanes] + [["l0", lane] for lane in lanes[1:]],
        "ends": ["e0"],
    }


@pytest.mark.parametrize("n, rays", [(10, 10), (11, None)])
def test_corridor_width_strip_cap(n, rays, tmp_path):
    # with no window edges each lane is a component of its own, so the proved
    # strip has 2^n + n + 1 windows: 10,350 vertices at n = 10, 22,660 at 11
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(rail_fan(n)))
    rc, out, err = run_in_process(["rays", "--family", str(path)])
    if rays is None:
        assert rc == 3 and out == ""
        assert err.startswith("resource bound: ") and f"capped at {MAX_STRIP} vertices" in err
        return
    assert rc == 0, err
    assert json.loads(out)["result"]["rays"] == rays


@pytest.mark.parametrize("value", ["-1", "abc", "²"])
@pytest.mark.parametrize("argv", [["ch4", "-r", "3"], ["bases", "--system", "ch4:3"]],
                         ids=["ch4", "bases"])
def test_cap_must_be_a_natural_number(argv, value):
    # a negative cap was read as a cap: ch4 exited 3 and bases answered
    rc, out, err = run_in_process([*argv, "--cap", value])
    assert rc == 64 and out == ""
    assert err.startswith(f"usage error: argument --cap: {value!r} is not a natural number\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["rays", "--family", "ladder:{n}"],
        ["axioms", "--system", "ch4:{n}"],
        ["dominate", "--family", "ladder:1", "--vertex", "t0:{n}", "-k", "1"],
        ["bases", "--system", "ch4:3", "--cap", "{n}"],
        ["mk", "--family", "ladder:1", "-k", "{n}"],
        ["mk", "--system", "ch4:3", "-k", "{n}"],
        ["dominate", "--family", "bean", "--vertex", "v", "-k", "{n}"],
        ["ch4", "-r", "{n}"],
        ["spectrum", "--family", "ladder:1", "--prefix", "{n}"],
        ["spectrum", "--family", "ladder:1", "--period", "{n}"],
    ],
    ids=["ladder", "ch4", "window", "cap", "mk-family-k", "mk-system-k", "dominate-k", "ch4-r",
         "prefix", "period"],
)
def test_huge_decimals_exit_as_twenty_digit_ones(argv):
    # int() refuses decimals past 4,300 digits: the first three raised
    # ValueError, and the options read with int() were usage errors that
    # echoed every digit

    def run(digits):
        return run_in_process([a.format(n="1" * digits) for a in argv])

    rc, out, err = run(5000)
    assert rc == run(20)[0]
    assert len(out) + len(err) < 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["mk", "--family", "ladder:1", "-k", "-1"],
        ["dominate", "--family", "bean", "--vertex", "v", "-k", "-1"],
        ["ch4", "-r", "-1"],
        ["spectrum", "--family", "ladder:1", "--prefix", "-1"],
        ["spectrum", "--family", "ladder:1", "--period", "-1"],
    ],
    ids=["mk-k", "dominate-k", "ch4-r", "prefix", "period"],
)
def test_negative_counts_are_usage_errors(argv):
    rc, out, err = run_in_process(argv)
    assert rc == 64 and out == ""
    assert err.startswith(f"usage error: argument {argv[-2]}: '-1' is not a natural number\n")


@pytest.mark.parametrize("k, answer", [(MAX_WINDOW, [MAX_WINDOW, MAX_WINDOW + 1]), (MAX_WINDOW + 1, None)])
def test_removal_count_cap(k, answer):
    # each value's witness lists the k instances removed, so past the cap the
    # query stops before the spectrum search
    rc, out, err = run_in_process(["mk", "--family", "ladder:1", "-k", str(k)])
    if answer is None:
        assert rc == 3 and out == ""
        assert err == f"resource bound: removal count {k}; removal counts are capped at {MAX_WINDOW}\n"
    else:
        assert rc == 0, err
        assert json.loads(out)["result"]["values"] == answer


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ch4", "-r", "6"], 3),
        (["spectrum", "--pair", "ch4:6"], 3),
        (["smin", "--pair", "ch4:6"], 3),
        (["ch4", "-r", "3", "--cap", "5"], 3),
        (["ch4", "-r", "3", "--cap", "6"], 0),
        (["axioms", "--system", "ch4:3", "--cap", "5"], 0),
        (["scan", "ch4:6"], 3),
        (["scan", "ch4:3", "--cap", "4"], 3),
        (["scan", "ch4:3", "--cap", "6"], 0),
    ],
    ids=["ch4-r6", "spectrum-pair", "smin-pair", "ch4-past-cap", "ch4-at-cap", "axioms-no-sweep",
         "scan-r6", "scan-past-cap", "scan-at-cap"],
)
def test_block_pair_past_the_sweep_cap_stops_before_building(argv, code, monkeypatch):
    # the block pair's spectrum lists the free outer's one base by a sweep
    # under --cap (default 16) and reads the inner bases as stored, so no
    # command that sweeps the pair lists the block family, about two million
    # sets at r = 6; axioms lists the inner system's members, a sweep over
    # its largest base (5 elements at r = 3), and answers under that cap
    built = []
    monkeypatch.setattr(matroidlab.core, "down_closure",
                        lambda tops, real=matroidlab.core.down_closure: built.append(tops) or real(tops))
    rc, out, err = run_in_process(argv)
    assert rc == code, err
    if code == 3:
        assert err.startswith("resource bound: powerset sweep over ")
    assert bool(built) == (argv[0] == "axioms")


@pytest.mark.parametrize(
    "argv",
    [["ch4", "-r", "5"], ["spectrum", "--pair", "ch4:5"], ["bases", "--system", "ch4:6"]],
    ids=["ch4-r5", "spectrum-pair", "bases-r6"],
)
def test_block_queries_list_no_member(argv, monkeypatch):
    # the block system is stored as its block complements: its spectrum and
    # its bases read those, and build no down-closure
    built = []
    monkeypatch.setattr(matroidlab.core, "down_closure",
                        lambda tops, real=matroidlab.core.down_closure: built.append(tops) or real(tops))
    rc, out, err = run_in_process(argv)
    assert rc == 0, err
    assert json.loads(out)["result"]
    assert built == []


def test_block_count_cap_answers_at_the_cap():
    # r = 64 has 2,080 elements: the spectrum is 1..64, and each value's
    # witness is a block complement inside the free matroid's one base,
    # missing exactly that many elements of it
    rc, out, err = run_in_process(["ch4", "-r", str(MAX_WINDOW), "--cap", "2080"])
    assert rc == 0, err
    spectrum = json.loads(out)["result"]["spectrum"]
    assert spectrum["values"] == list(range(1, MAX_WINDOW + 1))
    for value, witness in spectrum["witnesses"].items():
        base, outer = set(witness["base"]), set(witness["outer_base"])
        assert base <= outer and len(outer) == 2080 and len(outer - base) == int(value)


def test_block_count_past_the_cap_stops_at_once(monkeypatch):
    # past r = 64 the query exits before a label of the ground is built
    monkeypatch.setattr(matroidlab.ops, "GroundSet", None)
    rc, out, err = run_in_process(["ch4", "-r", str(MAX_WINDOW + 1)])
    assert rc == 3 and out == ""
    assert err == f"resource bound: {MAX_WINDOW + 1} blocks; block systems are capped at {MAX_WINDOW}\n"


@pytest.mark.parametrize("cap, code", [(None, 3), (17, 0)])
def test_dual_of_a_wide_empty_family_runs_under_the_cap(cap, code, tmp_path):
    # the dual of the family {{}} on 17 elements is every subset of the
    # ground; writing it out is a sweep over all 17 elements, under --cap
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ground": [f"e{i}" for i in range(17)], "kind": "explicit",
                                "independent": [[]]}))
    argv = ["dual", "--system", str(path)] + ([] if cap is None else ["--cap", str(cap)])
    rc, out, err = run_in_process(argv)
    assert rc == code, err
    if code == 3:
        assert err == "resource bound: powerset sweep over 17 elements exceeds cap 16\n"
    else:
        assert len(json.loads(out)["result"]["independent"]) == 1 << 17


def test_bases_of_a_wide_free_matroid_need_no_deep_stack(tmp_path):
    # the pruned base sweep grows U(2080, 2080)'s one base an element at a
    # time; it keeps that path in a list, so it never runs out of stack
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"ground": [f"e{i}" for i in range(2080)], "kind": "uniform",
                                "rank": 2080}))
    rc, out, err = run_in_process(["bases", "--system", str(path), "--cap", "2080"])
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert result["count"] == 1 and len(result["bases"][0]) == 2080


@pytest.mark.parametrize(
    "argv",
    [
        ["ch4", "-r", "5"],
        ["spectrum", "--pair", "ch4:5"],
        ["axioms", "--system", "ch4:5", "--axioms", "I"],
        ["axioms", "--system", "ch4:5", "--axioms", "F"],
        ["axioms", "--system", "ch4:5", "--axioms", "B"],
    ],
    ids=["ch4-r5", "spectrum-pair", "axioms-I", "axioms-F", "axioms-B"],
)
def test_block_pair_reads_its_generators_without_a_family_table(argv, monkeypatch):
    # ch4:5 is the down-closure of its 5 block complements, 23,003 sets; its
    # bases and the axiom screens read those generators, not a table of every
    # member and element
    tables = []

    def spy(fam, real=matroidlab.core._family_table):
        tables.append(len(fam))
        return real(fam)

    monkeypatch.setattr(matroidlab.core, "_family_table", spy)
    monkeypatch.setattr(matroidlab.ops, "_family_table", spy)
    rc, out, err = run_in_process(argv)
    assert rc == 0, err
    assert json.loads(out)
    assert tables == []



def test_minor_of_an_explicit_file_builds_one_family_table(tmp_path, monkeypatch):
    # loading checks the file's closure with one table, which also gives the
    # bases; the deletion and the contraction's duals keep generators, so
    # neither builds another
    path = tmp_path / "system.json"
    path.write_text(json.dumps(
        {"ground": ["a", "b", "c"], "kind": "explicit", "independent": [[], [0], [1], [2], [0, 1]]}
    ))
    tables = []

    def spy(fam, real=matroidlab.core._family_table):
        tables.append(len(fam))
        return real(fam)

    monkeypatch.setattr(matroidlab.core, "_family_table", spy)
    # a file loaded before, by this text, is not loaded again, so the spy
    # would see no table
    matroidlab.io._loaded.cache_clear()
    rc, out, err = run_in_process(["minor", "--system", str(path), "--delete", "c", "--contract", "a"])
    assert rc == 0, err
    assert json.loads(out)["result"]
    assert tables == [5]

def test_circuits_of_an_explicit_file_list_its_members_once(tmp_path, monkeypatch):
    # loading checks the file's closure on the members it lists, so the
    # family keeps that list and no down-closure of its bases is built
    path = tmp_path / "system.json"
    path.write_text(json.dumps(
        {"ground": ["a", "b", "c"], "kind": "explicit", "independent": [[], [0], [1], [2], [0, 1]]}
    ))
    built = []
    monkeypatch.setattr(matroidlab.core, "down_closure",
                        lambda tops, real=matroidlab.core.down_closure: built.append(tops) or real(tops))
    matroidlab.io._loaded.cache_clear()  # so the file is loaded under the spy
    rc, out, err = run_in_process(["circuits", "--system", str(path)])
    assert rc == 0, err
    assert json.loads(out)["result"]["circuits"] == [["a", "c"], ["b", "c"]]
    assert built == []


# uniform systems (rank, size) past the default sweep cap of 16 elements
WIDE = {"u1": (1, 17), "u2": (2, 17), "u16": (16, 17), "u1of18": (1, 18)}


@pytest.mark.parametrize(
    "argv, written",
    [
        (["dual", "--system", "u16"], 18),  # U(1,17)
        (["minor", "--system", "u1of18", "--delete", "e0"], 18),
        (["mk", "--system", "u1", "-k", "1"], 1),
        (["union", "--left", "u1", "--right", "u1"], 1 + 17 + 136),  # U(2,17)
        (["diff", "--outer", "u2", "--inner", "u1"], 18),
        (["spectrum", "--outer", "u2", "--inner", "u1"], None),
        (["smin", "--outer", "u2", "--inner", "u1"], None),
        (["bases", "--system", "u1"], None),
    ],
    ids=["dual", "minor", "mk", "union", "diff", "spectrum", "smin", "bases"],
)
def test_cap_governs_every_sweep_of_a_wide_system(argv, written, tmp_path):
    # every sweep a command makes, including the one that writes a family out
    # and the nesting check of a pair, runs under --cap
    paths = {}
    for name, (rank, size) in WIDE.items():
        paths[name] = tmp_path / f"{name}.json"
        ground = [f"e{i}" for i in range(size)]
        paths[name].write_text(json.dumps({"ground": ground, "kind": "uniform", "rank": rank}))
    argv = [str(paths.get(a, a)) for a in argv]
    rc, _, err = run_in_process(argv)
    assert rc == 3
    assert err == "resource bound: powerset sweep over 17 elements exceeds cap 16\n"
    rc, out, err = run_in_process([*argv, "--cap", "20"])
    assert rc == 0, err
    if written is not None:
        assert len(json.loads(out)["result"]["independent"]) == written


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # main keeps one parser per process; a usage error or a bad input in an
    # earlier call must not change what a later call prints
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"ground": ["a", "b", "c"], "kind": "uniform", "rank": 2}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(CASES["graphic-edges-null"][0]))
    sequence = [
        (["bases", "--system", str(good)], 0),
        (["bases", "--cap", "x", "--system", str(good)], 64),
        (["bases", "--system", str(bad)], 2),
        (["axioms", "--system", str(good), "--axioms", "B"], 0),
        (["bases", "--system", str(good)], 0),
    ]
    for argv, code in sequence:
        rc, out, err = run_in_process(argv)
        assert (rc, out) == run_fresh(argv)[:2]
        assert rc == code, err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# random values in every key of a system file

BASE_SYSTEMS = (
    {"ground": ["a", "b", "c"], "kind": "explicit", "independent": [[], [0], [1], [2], [0, 1]]},
    {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 2},
    {"ground": ["a", "b", "c"], "kind": "graphic", "vertices": 3,
     "edges": [[0, 1], [1, 2], [2, 0]]},
    {
        "ground": ["x", "y", "z"],
        "kind": "linear",
        "matrix": {"field": "q", "rows": ["r0", "r1"], "cols": ["x", "y", "z"],
                   "entries": [["r0", "x", "1/2"], [1, "y", -3], ["r1", 2, 2]]},
    },
)
# (base index, key path); a path of two keys reaches into the matrix object
KEY_PATHS = [
    (i, (key,)) for i, base in enumerate(BASE_SYSTEMS) for key in base
] + [(3, ("matrix", key)) for key in BASE_SYSTEMS[3]["matrix"]]
MISSING = object()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


def with_value(base, path, value):
    obj = json.loads(json.dumps(base))
    target = obj
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "system.json"


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(KEY_PATHS),
    json_values | st.just(MISSING),
    st.sampled_from((["bases"], ["axioms", "--axioms", "I"], ["axioms", "--axioms", "B"])),
)
def test_random_system_values_end_in_a_documented_exit_code(scratch_file, key_path, value, cmd):
    index, path = key_path
    scratch_file.write_text(json.dumps(with_value(BASE_SYSTEMS[index], path, value)))
    rc, _, err = run_in_process([*cmd, "--system", str(scratch_file)])
    assert rc in (0, 2, 3, 64), err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# random values in every key of a family, a gluing, an edit and a matrix
# family file

# the bean family: a hub v heading the top rail and spoking the bottom one
BASE_FAMILY = {
    "prefix": {"vertices": ["v"], "edges": [["v", ["r", "x"], "top"]]},
    "repeat": {"vertices": ["x", "y"], "edges": []},
    "splice": [["x", "x", "top"], ["y", "y", "bottom"]],
    "apex": [{"vertex": "v", "per_block_edges": [["y", "spoke"]]}],
    "ends": ["end_top", "end_bottom"],
}
BASE_FILES = {
    "family": BASE_FAMILY,
    "gluing": {"groups": [["end_top"], ["end_bottom"]], "psi": [1]},
    "edit": {"base": BASE_FAMILY, "delete": [["spl", 0, 1]], "contract": [["pre", 0]]},
    "matrix_family": {
        "field": "q",
        "persistent_rows": ["a"],
        "block_rows": ["x"],
        "block_cols": [[[["p", "a"], 1], [["b", "x", 0], 1]], [[["b", "x", 0], 1], [["b", "x", 1], -1]]],
    },
}


def key_paths(obj, path=()):
    """Every key and list index below obj, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


FILE_KEY_PATHS = [(name, path) for name, base in BASE_FILES.items() for path in key_paths(base)]
FILE_COMMANDS = (
    ["rays", "--family", "{family}", "--glue", "{gluing}"],
    ["spectrum", "--prefix", "0", "--family", "{family}", "--glue", "{gluing}"],
    ["scan", "--prefix", "0", "--glue", "{gluing}", "{family}", "{edit}"],
    ["thin", "--matrix-family", "{matrix_family}"],
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("family-boundary")


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(FILE_KEY_PATHS),
    json_values | st.just(MISSING),
    st.sampled_from(FILE_COMMANDS),
)
def test_random_family_values_end_in_a_documented_exit_code(scratch_dir, key_path, value, cmd):
    name, path = key_path
    paths = {}
    for file, base in BASE_FILES.items():
        obj = with_value(base, path, value) if file == name else base
        paths[file] = scratch_dir / f"{file}.json"
        paths[file].write_text(json.dumps(obj))
    rc, _, err = run_in_process([arg.format(**paths) for arg in cmd])
    assert rc in (0, 2, 3, 64), err
    assert "Traceback" not in err
