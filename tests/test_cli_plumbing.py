"""A query's fixed costs: one argv scan, one load per input file, CSV on request.

main parses an argv led by a subcommand name with that subcommand's parser
alone; every other argv goes through the top-level parser.  Both routes must
read every argv as build_parser().parse_args does.  Family, gluing and system
files are loaded once per distinct text, and the CSV table of a report is
built only under --out csv.
"""

import contextlib
import io
import json
import os

import pytest

import matroidlab.cli
from matroidlab import core
from matroidlab.cli import _parse_argv, _shared_parser, _UsageError, build_parser, main
from matroidlab.core import GroundSet
from matroidlab.cycles import GluingSpec, glue_all, mk_spectrum, spectrum_search
from matroidlab.io import _loaded, spectrum_csv
from matroidlab.ops import ch4_system, spectrum
from matroidlab.periodic import UPEdgeSet, ladder_family

LADDER = {
    "repeat": {"vertices": ["t", "b"], "edges": [["t", "b", "rung"]]},
    "splice": [["t", "t", "top"], ["b", "b", "bottom"]],
    "ends": ["e"],
}
SYSTEM = {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 1}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def write(path, obj, width=0):
    """obj as JSON in path, padded with trailing spaces to width bytes."""
    path.write_text(json.dumps(obj).ljust(width))
    return str(path)


# ---------------------------------------------------------------------------
# one argv scan


def outcome(parse, argv):
    """What parsing argv gives: its namespace, its usage error text, or the
    exit code of -h; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(list(argv))))
        except _UsageError as exc:
            result = ("usage", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


VALID = [
    ["axioms", "--system", "s.json", "--axioms", "B"],
    ["bases", "--system", "s.json", "--cap", "9"],
    ["circuits", "--system", "ch4:3"],
    ["dual", "--system", "s.json", "--cap", "4"],
    ["minor", "--system", "s.json", "--delete", "a,b", "--contract", "c"],
    ["union", "--left", "s.json", "--right", "t.json"],
    ["mk", "--family", "ladder:1", "-k", "1", "--prefix", "1"],
    ["mk", "--system", "s.json", "-k", "2"],
    ["diff", "--outer", "s.json", "--inner", "t.json", "--verify-duality"],
    ["spectrum", "--family", "ladder:1", "--glue", "g.json", "--prefix", "0", "--period", "2"],
    ["spectrum", "--pair", "ch4:3"],
    ["smin", "--inner", "s.json", "--outer", "t.json"],
    ["ch4", "-r", "3"],
    ["rays", "--family", "f.json", "--glue", "g.json"],
    ["dominate", "--family", "bean", "--vertex", "a:2", "-k", "2"],
    ["bean"],
    ["psi-spectrum", "--family", "f.json", "--glue", "g.json"],
    ["thin", "--matrix-family", "m.json"],
    ["scan", "ladder:1", "bean", "--prefix", "0"],
]
CORNERS = [
    ["axioms"],  # a missing required option
    ["rays", "--glue", "g.json"],
    ["spectrum", "--bogus"],  # an unknown option
    ["bean", "extra"],
    ["spectrum", "--family", "ladder:1", "--pre", "0"],  # an abbreviation
    ["spectrum", "--p", "0"],  # an ambiguous one
    ["scan", "--prefix", "0", "--", "ladder:1"],
    ["scan", "--", "--prefix"],
    ["spectrum", "--family", "ladder:1", "--out", "csv"],
    ["spectrum", "--out", "xml"],
    ["ch4", "-r", "x"],
    ["ch4", "-r", "3", "-r", "4"],
    ["nope"],  # an unknown subcommand
    ["Spectrum"],
    [],
    ["-h"],
    ["--help"],
    ["--out", "csv", "spectrum"],  # an option before the subcommand
    ["--", "bean"],
    ["spectrum", "-h", "--bogus"],
    ["dual", "--system", "s.json", "--seed", "1"],  # an option no subcommand takes
]
CORPUS = VALID + CORNERS + [[name, "-h"] for name in sorted(build_parser().commands)]


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_main_parses_every_argv_as_the_top_level_parser(argv):
    assert outcome(lambda a: _parse_argv(_shared_parser(), a), argv) == outcome(
        build_parser().parse_args, argv
    )


def test_the_corpus_covers_every_subcommand_and_outcome():
    names = set(build_parser().commands)
    assert {argv[0] for argv in VALID} == names
    kinds = [outcome(build_parser().parse_args, argv)[0][0] for argv in CORPUS]
    assert {"args", "usage", "exit"} <= set(kinds)
    assert all(outcome(build_parser().parse_args, argv)[0][0] == "args" for argv in VALID)


# the subcommands whose handler passes --cap on; the others refuse it
CAPPED = {"axioms", "bases", "circuits", "dual", "minor", "union", "mk", "diff",
          "spectrum", "smin", "ch4", "scan"}


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_each_subcommand_takes_only_the_options_its_handler_reads(argv):
    assert run([*argv, "--seed", "1"])[:2] == (64, "")
    capped = [*argv, "--cap", "3"]
    if argv[0] in CAPPED:
        assert outcome(build_parser().parse_args, capped)[0][1]["cap"] == 3
    else:
        assert run(capped)[:2] == (64, "")


def test_five_subcommands_take_no_cap():
    assert set(build_parser().commands) - CAPPED == {"rays", "dominate", "bean", "thin", "psi-spectrum"}


@pytest.mark.parametrize("argv", [["axioms"], ["spectrum", "--bogus"], ["nope"], [], ["--out", "csv"]])
def test_usage_errors_exit_64_with_the_top_level_usage(argv):
    rc, out, err = run(argv)
    assert (rc, out) == (64, "")
    assert err.endswith("usage: matroidlab [-h] subcommand ...\n")


def test_subcommand_help_exits_0():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["rays", "-h"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: matroidlab rays [-h]")


# ---------------------------------------------------------------------------
# CSV only on request


@pytest.fixture
def gluing(tmp_path):
    return write(tmp_path / "glue.json", {"groups": [["end0"], ["end1"]], "psi": [0]})


def reports(gluing):
    """(argv, library report) for each subcommand with a CSV table."""
    one, two = ladder_family(1), ladder_family(2)
    return [
        (["spectrum", "--family", "ladder:1", "--prefix", "1"],
         spectrum_search(one, glue_all(one), (1, 1))),
        (["psi-spectrum", "--family", "ladder:2", "--glue", gluing],
         spectrum_search(two, GluingSpec((("end0",), ("end1",)), (0,)), (2, 1))),
        (["mk", "--family", "ladder:1", "-k", "1"], mk_spectrum(one, glue_all(one), 1, (2, 1))),
        (["ch4", "-r", "3"], spectrum(ch4_system(3), None)),
    ]


def test_json_output_never_builds_a_csv_table(gluing, monkeypatch):
    built = []
    monkeypatch.setattr(matroidlab.cli, "spectrum_body_csv", lambda body: built.append(body) or "")
    for argv, _ in reports(gluing):
        rc, out, err = run(argv)
        assert rc == 0, err
        assert json.loads(out)["result"]
    assert built == []
    for argv, _ in reports(gluing):
        assert run([*argv, "--out", "csv"])[0] == 0
    assert len(built) == 4


def test_csv_output_is_the_library_reports_table(gluing):
    for argv, report in reports(gluing):
        rc, out, err = run([*argv, "--out", "csv"])
        assert rc == 0, err
        assert out == spectrum_csv(report)
        assert out.startswith("value,witness\n")


@pytest.mark.parametrize(
    "argv", [["spectrum", "--family", "ladder:3", "--prefix", "1"], ["mk", "--family", "ladder:1", "-k", "1"]]
)
def test_csv_output_writes_each_witness_once(argv, monkeypatch):
    # the table is written from the body the handler built, not a second one
    writes, to_obj = [], UPEdgeSet.to_obj
    monkeypatch.setattr(UPEdgeSet, "to_obj", lambda self: writes.append(self) or to_obj(self))
    counts = []
    for out in ("json", "csv"):
        writes.clear()
        rc, _, err = run([*argv, "--out", out])
        assert rc == 0, err
        counts.append(len(writes))
    assert counts[0] > 0 and counts[1] == counts[0]


# ---------------------------------------------------------------------------
# one load per distinct file content


def test_a_file_rewritten_in_place_is_loaded_again(tmp_path):
    # same size and the old mtime: only the text tells the two apart
    family, system = tmp_path / "family.json", tmp_path / "system.json"
    width = 200
    write(family, LADDER, width)
    write(system, SYSTEM, width)
    stamps = {path: os.stat(path).st_mtime_ns for path in (family, system)}
    first = [run(["rays", "--family", str(family)]), run(["bases", "--system", str(system)])]
    write(family, {**LADDER, "ends": ["f"]}, width)
    write(system, {**SYSTEM, "rank": 3}, width)
    for path, ns in stamps.items():
        os.utime(path, ns=(ns, ns))
        assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (width, ns)
    second = [run(["rays", "--family", str(family)]), run(["bases", "--system", str(system)])]
    assert [rc for rc, _, _ in first + second] == [0] * 4
    rays = [json.loads(out)["result"]["corridor_widths"] for _, out, _ in (first[0], second[0])]
    assert rays == [{"e": 2}, {"f": 2}]
    bases = [json.loads(out)["result"]["count"] for _, out, _ in (first[1], second[1])]
    assert bases == [3, 1]


def test_a_failing_spec_fails_alike_on_every_call(tmp_path):
    path = write(tmp_path / "ends.json", {**LADDER, "ends": ["e", "f"]})
    _loaded.cache_clear()
    answers = [run(["rays", "--family", path]) for _ in range(3)]
    assert answers[0] == (2, "", "error: spec declares 2 ends but the repeat structure has 1 corridors\n")
    assert answers == [answers[0]] * 3
    assert _loaded.cache_info().currsize == 0


def test_a_bad_json_file_names_its_path_on_every_call(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"repeat": ')
    answers = [run(["rays", "--family", str(path)]) for _ in range(2)]
    assert answers[0][0] == 2
    assert answers[0][2].startswith(f"error: {path} is not valid JSON: ")
    assert answers == [answers[0]] * 2


def test_three_queries_on_one_spec_file_load_it_once(tmp_path, monkeypatch):
    path = write(tmp_path / "ladder.json", LADDER)
    glue = write(tmp_path / "glue.json", {"groups": [["e"]], "psi": [0]})
    loads = []
    monkeypatch.setattr(matroidlab.cli, "load_family",
                        lambda obj, real=matroidlab.cli.load_family: loads.append(obj) or real(obj))
    _loaded.cache_clear()
    for argv in (
        ["rays", "--family", path, "--glue", glue],
        ["dominate", "--family", path, "--vertex", "t:0", "-k", "1"],
        ["spectrum", "--family", path, "--glue", glue, "--prefix", "0"],
    ):
        rc, _, err = run(argv)
        assert rc == 0, err
    assert loads == [LADDER]


def test_a_changed_edit_base_is_read_again(tmp_path):
    # an edit names its base by a path relative to the edit file, so edits
    # stay outside the memo and their base is read on every query
    base = tmp_path / "base.json"
    edit = write(tmp_path / "edit.json", {"base": "base.json", "delete": []})
    values = []
    rails = {**LADDER, "repeat": {"vertices": ["t", "b"], "edges": []}, "ends": ["e", "f"]}
    for family in (LADDER, rails):
        write(base, family)
        rc, out, err = run(["scan", edit, "--prefix", "0"])
        assert rc == 0, err
        values.append(json.loads(out)["result"]["rows"][0]["values"])
    assert values == [[0, 1], [0]]


def test_the_memo_hands_out_one_object_per_text(tmp_path):
    first = write(tmp_path / "a.json", SYSTEM)
    second = write(tmp_path / "b.json", SYSTEM)
    load = matroidlab.cli._system_arg
    assert load(first) is load(second) is load(first)
    assert load(first).ground == GroundSet.named(["a", "b", "c"])


# ---------------------------------------------------------------------------
# one listing per finite system


def test_queries_on_one_system_file_list_its_bases_once(tmp_path, monkeypatch):
    path = write(tmp_path / "u3_6.json", {"ground": list("abcdef"), "kind": "uniform", "rank": 3})
    sweep, targets = core._grown_family, []
    monkeypatch.setattr(core, "_grown_family",
                        lambda *a: targets.append(a[4:]) or sweep(*a))
    _loaded.cache_clear()
    for _ in range(2):
        for argv in (["bases", "--system", path], ["axioms", "--system", path, "--axioms", "B"],
                     ["dual", "--system", path]):
            rc, _, err = run(argv)
            assert rc == 0, err
    # one primal base listing (target 3), and a family listing per fresh dual
    assert [t for t in targets if t] == [(3,)]
    assert targets.count(()) == 2


def test_a_listed_matroid_reads_its_bases_off_the_listing(tmp_path, monkeypatch):
    # the I screen lists the family of a rank-3 linear system; its bases are
    # the largest members of that listing, so no sweep with target 3 follows
    matrix = {"field": "q", "rows": ["r0", "r1", "r2"], "cols": ["la", "lb", "lc", "ld", "le"],
              "entries": [["r0", "la", 1], ["r1", "lb", 1], ["r2", "lc", 1], ["r0", "ld", 1],
                          ["r1", "ld", 1], ["r1", "le", 1], ["r2", "le", 2]]}
    path = write(tmp_path / "linear.json", {"ground": matrix["cols"], "kind": "linear", "matrix": matrix})
    sweep, targets = core._grown_family, []
    monkeypatch.setattr(core, "_grown_family",
                        lambda *a: targets.append(a[4:]) or sweep(*a))
    _loaded.cache_clear()
    for argv in (["axioms", "--system", path, "--axioms", "I"], ["bases", "--system", path]):
        rc, out, err = run(argv)
        assert rc == 0, err
    assert json.loads(out)["result"]["count"] == 8
    assert targets == [()]


def test_a_kept_listing_still_checks_each_callers_cap(tmp_path):
    path = write(tmp_path / "u1_17.json",
                 {"ground": [f"e{i}" for i in range(17)], "kind": "uniform", "rank": 1})
    rc, out, err = run(["bases", "--system", path, "--cap", "20"])
    assert rc == 0, err
    assert json.loads(out)["result"]["count"] == 17
    assert run(["bases", "--system", path]) == (
        3, "", "resource bound: powerset sweep over 17 elements exceeds cap 16\n"
    )
