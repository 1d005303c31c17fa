"""Command line behavior: subcommand wiring, report envelope, exit codes."""

import json

import pytest

from matroidlab.cli import main
from matroidlab.families import delete_edges
from matroidlab.io import dump_family
from matroidlab.periodic import ladder_family


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


@pytest.fixture
def system_files(tmp_path):
    files = {
        "u13": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 1},
        "free3": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 3},
        "tri": {
            "ground": ["e0", "e1", "e2"],
            "kind": "graphic",
            "vertices": 3,
            "edges": [[0, 1], [1, 2], [2, 0]],
        },
    }
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def result_of(out):
    body = json.loads(out)
    assert body["tool"] == "matroidlab"
    assert body["version"]
    assert set(body) == {"tool", "version", "config", "result"}
    return body["result"]


def test_spectrum_family_headline(run):
    rc, out, _ = run(
        "spectrum", "--family", "ladder:1", "--glue", "all", "--prefix", "2", "--period", "1"
    )
    assert rc == 0
    result = result_of(out)
    assert result["values"] == [0, 1]
    assert result["complete_within_bounds"] is True
    assert set(result["witnesses"]) == {"0", "1"}


def test_spectrum_pair_mode(run, tmp_path, system_files):
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "inner": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 1},
                "outer": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 3},
            }
        )
    )
    rc, out, _ = run("spectrum", "--pair", str(pair))
    assert rc == 0
    assert result_of(out)["values"] == [2]


def test_axioms_flags_the_block_counterexample(run):
    rc, out, _ = run("axioms", "--system", "ch4:2", "--axioms", "I")
    assert rc == 0
    result = result_of(out)
    assert result["verdicts"]["I3"] == "fail"
    assert not result["conformant"]
    assert result["witnesses"]["I3"]


def test_bases_and_circuits(run, system_files):
    rc, out, _ = run("bases", "--system", system_files["tri"])
    assert rc == 0
    assert result_of(out)["count"] == 3
    rc, out, _ = run("circuits", "--system", system_files["tri"])
    assert rc == 0
    assert result_of(out)["circuits"] == [["e0", "e1", "e2"]]


def test_dual_emits_a_loadable_system(run, system_files):
    rc, out, _ = run("dual", "--system", system_files["u13"])
    assert rc == 0
    result = result_of(out)
    assert result["kind"] == "explicit"
    # dual of a rank-1 uniform on 3: all sets of size <= 2
    assert [0, 1, 2] not in result["independent"]
    assert [0, 1] in result["independent"]


def test_minor_by_labels(run, system_files):
    rc, out, _ = run("minor", "--system", system_files["tri"], "--delete", "e0")
    assert rc == 0
    result = result_of(out)
    assert result["ground"] == ["e1", "e2"]
    assert [0, 1] in result["independent"]


def test_minor_contracts_an_explicit_system(run, tmp_path):
    # the triangle as an explicit family: contracting one edge leaves the
    # other two parallel
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "ground": ["a", "b", "c"],
        "kind": "explicit",
        "independent": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]],
    }))
    rc, out, err = run("minor", "--system", str(tri), "--contract", "a")
    assert rc == 0, err
    assert result_of(out) == {"ground": ["b", "c"], "kind": "explicit", "independent": [[], [0], [1]]}


def test_union_doubles_rank(run, system_files):
    rc, out, _ = run("union", "--left", system_files["u13"], "--right", system_files["u13"])
    assert rc == 0
    result = result_of(out)
    assert [0, 1] in result["independent"]
    assert [0, 1, 2] not in result["independent"]


def test_mk_truncates_finite_systems(run, system_files):
    rc, out, _ = run("mk", "--system", system_files["free3"], "-k", "1")
    assert rc == 0
    result = result_of(out)
    assert [0, 1] in result["independent"]
    assert [0, 1, 2] not in result["independent"]


def test_mk_family_mode_shifts_spectrum(run):
    rc, out, _ = run("mk", "--family", "ladder:1", "-k", "1")
    assert rc == 0
    assert result_of(out)["values"] == [1, 2]


def test_mk_rejects_both_modes(run, system_files):
    rc, _, err = run("mk", "--system", system_files["free3"], "--family", "bean", "-k", "1")
    assert rc == 2
    assert "not both" in err


def test_diff_verify_duality(run, system_files):
    rc, out, _ = run(
        "diff", "--outer", system_files["free3"], "--inner", system_files["u13"],
        "--verify-duality",
    )
    assert rc == 0
    assert result_of(out) == {"equal": True, "witness": None}


def test_diff_system_output(run, system_files):
    rc, out, _ = run("diff", "--outer", system_files["free3"], "--inner", system_files["u13"])
    assert rc == 0
    # complements of inner bases inside the free outer base: all pairs, no triple
    result = result_of(out)
    assert [0, 1] in result["independent"]
    assert [0, 1, 2] not in result["independent"]


def test_smin_enumerates_minimal_complements(run, system_files):
    rc, out, _ = run("smin", "--inner", system_files["u13"], "--outer", system_files["free3"])
    assert rc == 0
    assert result_of(out) == {"count": 3, "sets": [["a"], ["b"], ["c"]]}


def test_ch4_bundles_spectrum_and_witness(run):
    rc, out, _ = run("ch4", "-r", "2")
    assert rc == 0
    result = result_of(out)
    assert result["spectrum"]["values"] == [1, 2]
    assert set(result["i3_witness"]) == {"A", "B"}
    rc, out, _ = run("ch4", "-r", "1")
    assert rc == 0
    assert result_of(out)["i3_witness"] is None


def test_rays_census_and_verdict(run):
    rc, out, _ = run("rays", "--family", "ladder:2", "--glue", "all")
    assert rc == 0
    result = result_of(out)
    assert result["rays"] == 4
    assert result["corridor_widths"] == {"end0": 2, "end1": 2}
    assert result["verdict"]["k"] == 4


def test_dominate_hub_succeeds_lane_fails(run):
    rc, out, _ = run("dominate", "--family", "bean", "--vertex", "v", "-k", "6")
    assert rc == 0
    assert result_of(out)["dominates"] is True
    rc, out, _ = run("dominate", "--family", "ladder:1", "--vertex", "t0:0", "-k", "4")
    assert rc == 0
    assert result_of(out)["dominates"] is False


def test_bean_claims_hold(run):
    rc, out, _ = run("bean")
    assert rc == 0
    result = result_of(out)
    assert result["holds"] is True
    assert "maximal_base" in result and "stranded_independent" in result


def test_psi_spectrum_with_gluing_file(run, tmp_path):
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"groups": [["end0"], ["end1"]], "psi": [0]}))
    rc, out, _ = run(
        "psi-spectrum", "--family", "ladder:2", "--glue", str(glue), "--prefix", "1"
    )
    assert rc == 0
    assert result_of(out)["values"] == [0, 1]


def test_thin_counts_growing_rows(run, tmp_path):
    fam = tmp_path / "mfam.json"
    fam.write_text(
        json.dumps(
            {
                "field": "q",
                "persistent_rows": ["a"],
                "block_rows": ["x"],
                "block_cols": [
                    [[["p", "a"], 1], [["b", "x", 0], 1]],
                    [[["b", "x", 0], 1], [["b", "x", 1], -1]],
                ],
            }
        )
    )
    rc, out, _ = run("thin", "--matrix-family", str(fam))
    assert rc == 0
    assert result_of(out) == {"count": 1, "growing_rows": ["a"]}


def test_scan_mixes_targets(run, tmp_path):
    fam = tmp_path / "l1.json"
    fam.write_text(json.dumps(dump_family(ladder_family(1))))
    edit = tmp_path / "edit.json"
    edit.write_text(json.dumps({"base": "l1.json", "delete": [["win", 0, 0]]}))
    rc, out, _ = run("scan", "ladder:1", "ch4:2", str(edit), "--prefix", "1")
    assert rc == 0
    rows = result_of(out)["rows"]
    assert [row["name"] for row in rows] == ["ladder:1", "ch4:2", "edit"]
    assert rows[0]["values"] == [0, 1]
    assert rows[1]["values"] == [1, 2]
    assert not any(row["gap"] for row in rows)


def test_scan_certifies_a_contraction_per_component(run, tmp_path):
    # the ladder pair has 18 free instance choices at prefix 2, but each
    # ladder has 9: the certificate walks the ladder holding the contracted
    # rail splice, and a base of it leaves the splice out
    (tmp_path / "l2.json").write_text(json.dumps(dump_family(ladder_family(2))))
    edit = tmp_path / "edit.json"
    edit.write_text(json.dumps({"base": "l2.json", "contract": [["spl", 0, 0]]}))
    rc, out, err = run("scan", str(edit))
    assert rc == 2 and out == ""
    assert err == (
        "error: not a coloop set within bounds: {'prefix_blocks': 2, 'prefix_edges': "
        "[['spl', 0, 0]], 'repeat_edges': []} stays outside the base {'prefix_blocks': 2, "
        "'prefix_edges': [['spl', 0, 1], ['spl', 1, 0], ['spl', 1, 1], ['win', 0, 0]], "
        "'repeat_edges': [['spl', 0], ['spl', 1]]}\n"
    )


# lanes t, b and z: rungs t-b and t-z in every window, rails on t and b
PENDANT_LANE = {
    "repeat": {"vertices": ["t", "b", "z"], "edges": [["t", "b", "rung"], ["t", "z", "rung"]]},
    "splice": [["t", "t", "top"], ["b", "b", "bottom"]],
    "ends": ["e"],
}


def test_scan_refuses_to_contract_an_edge_the_edit_deletes(run, tmp_path):
    (tmp_path / "pendant.json").write_text(json.dumps(PENDANT_LANE))
    edit = tmp_path / "edit.json"
    edit.write_text(json.dumps(
        {"base": "pendant.json", "delete": [["win", 1, 0]], "contract": [["win", 1, 0]]}
    ))
    rc, out, err = run("scan", str(edit), "--prefix", "1")
    assert rc == 2 and out == ""
    assert err == (
        "error: the edit contracts edges it deletes: {'prefix_blocks': 1, "
        "'prefix_edges': [['win', 1, 0]], 'repeat_edges': []}\n"
    )


def test_scan_reads_contract_instances_in_the_base_family(run, tmp_path):
    # deleting the window-0 rung unrolls window 0 into the prefix, so the
    # base family's window-1 rung is the edited family's window-0 rung, and
    # a glued base can leave it out
    (tmp_path / "pendant.json").write_text(json.dumps(PENDANT_LANE))
    edit = tmp_path / "edit.json"
    edit.write_text(json.dumps(
        {"base": "pendant.json", "delete": [["win", 0, 0]], "contract": [["win", 0, 1]]}
    ))
    rc, out, err = run("scan", str(edit), "--prefix", "1")
    assert rc == 2 and out == ""
    assert err.startswith(
        "error: not a coloop set within bounds: {'prefix_blocks': 1, 'prefix_edges': "
        "[['win', 0, 0]], 'repeat_edges': []} stays outside the base "
    )


# a family whose declared names a window copy's name would clash with, the
# names it renames, and the query, with {} for the family file: the answer
# is that of the renamed family
CLASHES = {
    "a prefix vertex named as a block copy": (
        {
            "prefix": {"vertices": ["t%1"], "edges": [["t%1", ["r", "t"]], ["t%1", ["r", "b"]]]},
            "repeat": {"vertices": ["t", "b"], "edges": [["t", "b", "rung"]]},
            "splice": [["t", "t", "top"], ["b", "b", "bottom"]],
            "ends": ["e"],
        },
        {"t%1": "h"},
        ["spectrum", "--family", "{}", "--prefix", "1", "--period", "2"],
    ),
    "a lane named as an unrolled copy": (
        {
            "repeat": {"vertices": ["a", "a@0"], "edges": [["a", "a@0", "rung"]]},
            "splice": [["a", "a", "top"], ["a@0", "a@0", "bottom"]],
            "ends": ["e"],
        },
        {"a@0": "b"},
        ["scan", {"base": "{}", "delete": [["win", 0, 0]]}, "--prefix", "1"],
    ),
    "an edit of a family a deletion wrote": (
        dump_family(delete_edges(ladder_family(1), [("win", 0, 0)])),
        {"t0@0": "x", "b0@0": "y"},
        ["scan", {"base": "{}", "delete": [["win", 0, 0]]}, "--prefix", "1"],
    ),
}


@pytest.mark.parametrize("case", sorted(CLASHES))
def test_window_copies_take_names_no_declared_vertex_holds(run, tmp_path, case):
    family, renames, argv = CLASHES[case]
    renamed = json.dumps(family)
    for old, new in renames.items():
        renamed = renamed.replace(json.dumps(old), json.dumps(new))
    answers = []
    for name, text in (("clash", json.dumps(family)), ("renamed", renamed)):
        (tmp_path / f"{name}.json").write_text(text)
        args = []
        for arg in argv:
            if isinstance(arg, dict):
                edit = tmp_path / f"{name}_edit.json"
                edit.write_text(json.dumps({**arg, "base": f"{name}.json"}))
                arg = str(edit)
            args.append(str(tmp_path / f"{name}.json") if arg == "{}" else arg)
        rc, out, err = run(*args)
        assert rc == 0, err
        result = result_of(out)
        answers.append(result["rows"][0]["values"] if "rows" in result else result["values"])
    assert answers[0] == answers[1] == [0, 1]


def test_scan_csv_form(run):
    rc, out, _ = run("scan", "ladder:1", "--prefix", "1", "--out", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,values,gap"
    assert lines[1] == "ladder:1,0 1,false"


def test_missing_file_exits_2(run):
    rc, _, err = run("spectrum", "--family", "missing.json")
    assert rc == 2
    assert "no such file" in err


def test_resource_blowup_exits_3(run):
    rc, _, err = run("spectrum", "--family", "ladder:1", "--prefix", "6")
    assert rc == 3
    assert "resource bound" in err


def test_unknown_subcommand_exits_64(run):
    rc, _, err = run("frobnicate")
    assert rc == 64
    assert "usage" in err


def test_no_subcommand_exits_64(run):
    rc, _, err = run()
    assert rc == 64
    assert "usage" in err


def test_csv_unavailable_for_bases(run, system_files):
    rc, _, err = run("bases", "--system", system_files["tri"], "--out", "csv")
    assert rc == 2
    assert "no CSV form" in err


def test_output_is_byte_stable(run):
    args = ("spectrum", "--family", "ladder:1", "--prefix", "1")
    _, first, _ = run(*args)
    _, second, _ = run(*args)
    assert first == second
    assert json.loads(first)["config"]["prefix"] == 1
