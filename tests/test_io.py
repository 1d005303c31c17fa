"""File formats: loaders, dumpers, report rendering."""

import csv
import json
from io import StringIO

import pytest

from matroidlab.core import uniform_matroid
from matroidlab.cycles import GluingSpec
from matroidlab.errors import InputError
from matroidlab.io import (
    dump_family,
    dump_gluing,
    dump_matrix,
    envelope,
    json_text,
    load_edge_set,
    load_edit,
    load_family,
    load_gluing,
    load_matrix,
    load_nested_pair,
    load_system,
    read_json,
    spectrum_csv,
)
from matroidlab.linear import GF2, Q, MatrixRep
from matroidlab.ops import spectrum
from matroidlab.periodic import UPEdgeSet, bean_family, ladder_family


# ---------------------------------------------------------------------------
# independence systems


def test_explicit_system_loads_index_arrays():
    s = load_system(
        {
            "ground": ["x", "y", "z"],
            "kind": "explicit",
            "independent": [[], [0], [1], [2], [0, 1], [0, 2]],
        }
    )
    assert s.ground.labels == ("x", "y", "z")
    assert s.is_independent(0b101)
    assert not s.is_independent(0b110)


def test_explicit_system_rejects_label_entries():
    with pytest.raises(InputError):
        load_system(
            {"ground": ["x", "y"], "kind": "explicit", "independent": [[], ["x"]]}
        )


def test_uniform_system_matches_constructor():
    s = load_system({"ground": ["a", "b", "c", "d"], "kind": "uniform", "rank": 2})
    ref = uniform_matroid(2, 4, labels=["a", "b", "c", "d"])
    for mask in range(16):
        assert s.is_independent(mask) == ref.is_independent(mask)


def test_graphic_system_triangle():
    s = load_system(
        {
            "ground": ["e0", "e1", "e2"],
            "kind": "graphic",
            "vertices": 3,
            "edges": [[0, 1], [1, 2], [2, 0]],
        }
    )
    assert s.is_independent(0b011)
    assert not s.is_independent(0b111)


def test_graphic_system_checks_edge_count():
    with pytest.raises(InputError):
        load_system(
            {"ground": ["e0"], "kind": "graphic", "vertices": 2, "edges": [[0, 1], [0, 1]]}
        )


def test_linear_system_ground_must_match_columns():
    matrix = {
        "field": "q",
        "rows": ["r0"],
        "cols": ["a", "b"],
        "entries": [["r0", "a", 1]],
    }
    s = load_system({"ground": ["a", "b"], "kind": "linear", "matrix": matrix})
    assert s.is_independent(0b01)
    assert not s.is_independent(0b10)  # zero column
    with pytest.raises(InputError):
        load_system({"ground": ["b", "a"], "kind": "linear", "matrix": matrix})


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        load_system({"ground": ["a"], "kind": "transversal"})


def test_missing_field_names_the_field():
    with pytest.raises(InputError, match="kind"):
        load_system({"ground": ["a"]})


def test_nested_pair_loads_and_nests():
    pair = load_nested_pair(
        {
            "inner": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 1},
            "outer": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 2},
        }
    )
    assert spectrum(pair).values == (1,)


def test_nested_pair_rejects_mismatched_grounds():
    with pytest.raises(InputError):
        load_nested_pair(
            {
                "inner": {"ground": ["a"], "kind": "uniform", "rank": 0},
                "outer": {"ground": ["b"], "kind": "uniform", "rank": 1},
            }
        )


# ---------------------------------------------------------------------------
# matrices


def test_matrix_accepts_label_and_index_references():
    m = load_matrix(
        {
            "field": "gf2",
            "rows": ["r0", "r1"],
            "cols": ["a", "b", "c"],
            "entries": [["r0", "a", 1], [1, "b", 1], ["r0", 2, 1], ["r1", "c", 1]],
        }
    )
    assert m.columns == ((1, 0), (0, 1), (1, 1))


def test_matrix_round_trip_gf2():
    m = MatrixRep.from_rows(GF2, [[1, 0, 1], [1, 1, 0]], col_labels=["a", "b", "c"])
    assert load_matrix(dump_matrix(m)) == m


def test_matrix_round_trip_rationals():
    m = MatrixRep.from_rows(Q, [["1/2", 0], [-3, "7"]], col_labels=["a", "b"])
    assert load_matrix(dump_matrix(m)) == m


def test_matrix_rejects_unknown_field():
    with pytest.raises(InputError):
        load_matrix({"field": "gf3", "rows": [], "cols": [], "entries": []})


def test_matrix_rejects_short_entry():
    with pytest.raises(InputError):
        load_matrix(
            {"field": "gf2", "rows": ["r0"], "cols": ["a"], "entries": [["r0", "a"]]}
        )


def test_matrix_rejects_unknown_label():
    with pytest.raises(InputError):
        load_matrix(
            {"field": "gf2", "rows": ["r0"], "cols": ["a"], "entries": [["r9", "a", 1]]}
        )


def test_matrix_rejects_out_of_range_index():
    with pytest.raises(InputError):
        load_matrix(
            {"field": "gf2", "rows": ["r0"], "cols": ["a"], "entries": [[0, 5, 1]]}
        )


# ---------------------------------------------------------------------------
# families, edge sets, gluings


@pytest.mark.parametrize(
    "family", [ladder_family(1), ladder_family(2), bean_family()], ids=["l1", "l2", "bean"]
)
def test_family_round_trip(family):
    assert load_family(dump_family(family)) == family


def test_family_defaults_edge_roles():
    g = load_family(
        {
            "repeat": {"vertices": ["t", "b"], "edges": [["t", "b"]]},
            "splice": [["t", "t"], ["b", "b"]],
            "ends": ["end0"],
        }
    )
    assert g.window_edges == (("t", "b", "window"),)
    assert g.splice_edges == (("t", "t", "splice"), ("b", "b", "splice"))


def test_family_prefix_lane_references():
    g = load_family(
        {
            "prefix": {"vertices": ["c"], "edges": [["c", ["r", "t"], "link"]]},
            "repeat": {"vertices": ["t"]},
            "splice": [["t", "t"]],
            "ends": ["end0"],
        }
    )
    assert g.prefix_edges == (("c", ("r", "t"), "link"),)


def test_family_apex_blocks():
    g = load_family(
        {
            "prefix": {"vertices": ["a"]},
            "repeat": {"vertices": ["t"]},
            "splice": [["t", "t"]],
            "apex": [{"vertex": "a", "per_block_edges": ["t", ["t", "strut"]]}],
            "ends": ["end0"],
        }
    )
    assert g.apex_edges == (("a", "t", "apex"), ("a", "t", "strut"))


def test_family_requires_repeat():
    with pytest.raises(InputError, match="repeat"):
        load_family({"prefix": {"vertices": ["a"]}})


def test_family_rejects_bad_prefix_reference():
    with pytest.raises(InputError):
        load_family(
            {
                "prefix": {"vertices": ["c"], "edges": [["c", ["q", "t"], "link"]]},
                "repeat": {"vertices": ["t"]},
                "splice": [["t", "t"]],
                "ends": ["end0"],
            }
        )


def test_edge_set_round_trip():
    s = UPEdgeSet(
        p=2,
        prefix_present=frozenset({0}),
        explicit=frozenset({("win", 0, 1)}),
        pattern=frozenset({("spl", 0)}),
    )
    assert load_edge_set(s.to_obj()) == s


def _edge_set(prefix_blocks=1, prefix_edges=(), repeat_edges=()):
    return {"prefix_blocks": prefix_blocks, "prefix_edges": list(prefix_edges),
            "repeat_edges": list(repeat_edges)}


@pytest.mark.parametrize(
    "obj",
    [
        _edge_set(prefix_blocks=1.9),
        _edge_set(prefix_blocks=True),
        _edge_set(prefix_edges=[["win", True, 0]]),
        _edge_set(prefix_edges=[["win", 0, 0.5]]),
        _edge_set(prefix_edges=[["pre", 1.5]]),
        _edge_set(prefix_edges=[["pre", 0, 0]]),
        _edge_set(prefix_edges=[[["win"], 0, 0]]),
        _edge_set(prefix_edges="pre"),
        _edge_set(repeat_edges=[["spl", False]]),
        _edge_set(repeat_edges=[["spl", 0, 0]]),
        _edge_set(repeat_edges=[[{"kind": "spl"}, 0]]),
        {"prefix_blocks": 1, "prefix_edges": []},
        [],
        {**_edge_set(), "pattern": []},
    ],
)
def test_edge_set_is_read_strictly(obj):
    # int() read prefix_blocks 1.9 as 1 and an index true as 1
    with pytest.raises(InputError):
        load_edge_set(obj)


def test_gluing_round_trip():
    glue = GluingSpec((("end0",), ("end1",)), (0,))
    assert load_gluing(dump_gluing(glue)) == glue


def test_gluing_rejects_scalar_groups():
    with pytest.raises(InputError):
        load_gluing({"groups": 3, "psi": []})


# ---------------------------------------------------------------------------
# edits


def test_edit_with_inline_base():
    fam, doomed, squeezed = load_edit(
        {
            "base": dump_family(ladder_family(1)),
            "delete": [["win", 0, 0]],
            "contract": [["spl", 1, 2]],
        }
    )
    assert fam == ladder_family(1)
    assert doomed == [("win", 0, 0)]
    assert squeezed == [("spl", 1, 2)]


def test_edit_with_base_path(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(dump_family(bean_family())))
    fam, doomed, squeezed = load_edit({"base": "fam.json"}, base_dir=tmp_path)
    assert fam == bean_family()
    assert doomed == [] and squeezed == []


def test_edit_missing_base_file():
    with pytest.raises(InputError, match="no such file"):
        load_edit({"base": "nowhere/missing.json"})


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InputError, match="JSON"):
        read_json(path)


# ---------------------------------------------------------------------------
# reports


def test_spectrum_csv_parses_back():
    pair = load_nested_pair(
        {
            "inner": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 1},
            "outer": {"ground": ["a", "b", "c"], "kind": "uniform", "rank": 3},
        }
    )
    report = spectrum(pair)
    rows = list(csv.reader(StringIO(spectrum_csv(report))))
    assert rows[0] == ["value", "witness"]
    assert [r[0] for r in rows[1:]] == [str(v) for v in report.values]
    for row in rows[1:]:
        witness = json.loads(row[1])
        assert "base" in witness


def test_envelope_is_byte_stable():
    a = json_text(envelope({"values": [0, 1]}, {"cmd": "spectrum", "prefix": 2}))
    b = json_text(envelope({"values": [0, 1]}, {"prefix": 2, "cmd": "spectrum"}))
    assert a == b
    assert a.endswith("\n")
    body = json.loads(a)
    assert body["tool"] == "matroidlab"
    assert body["version"]
    assert set(body) == {"tool", "version", "config", "result"}
