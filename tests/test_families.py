"""Finite family edits: deletions, coloop contraction, batch spectrum scans."""

from dataclasses import replace

import pytest

from matroidlab.cycles import edge_sets_difference, glue_all, spectrum_search
from matroidlab.errors import InputError, ResourceLimitError
from matroidlab.families import (
    ContractedSystem,
    contract_coloops,
    delete_edges,
    spectrum_scan,
)
from matroidlab.ops import ch4_system
from matroidlab.periodic import MAX_WINDOW, UPEdgeSet, bean_family, ladder_family


LADDER = ladder_family(1)
RAILS = UPEdgeSet(pattern=frozenset({("spl", 0), ("spl", 1)}))


def pendant_family():
    # the ladder plus an isolated bar hanging off two fresh prefix vertices
    return replace(
        LADDER, prefix_vertices=("c", "d"), prefix_edges=(("c", "d", "bar"),)
    )


# ---------------------------------------------------------------------------
# deletion


def test_delete_nothing_is_identity():
    assert delete_edges(LADDER, []) is LADDER


def test_delete_rewrites_window_edges_into_prefix():
    edited = delete_edges(LADDER, [("win", 0, 0)])
    # window 0 absorbed: two rail splices stay, the rung is gone
    assert len(edited.prefix_edges) == 2
    assert edited.window_edges == LADDER.window_edges
    assert edited.ends == LADDER.ends


def test_delete_prefix_edge_directly():
    bean = bean_family()
    edited = delete_edges(bean, [("pre", 0)])
    assert edited.prefix_edges == ()
    assert edited.ends == bean.ends


def test_delete_leftmost_rung_keeps_spectrum():
    edited = delete_edges(LADDER, [("win", 0, 0)])
    assert spectrum_search(edited, glue_all(edited), (2, 1)).values == (0, 1)


@pytest.mark.parametrize("doomed", [("win", 0, 0), ("spl", 0, 0), ("spl", 1, 0)])
def test_single_deletions_shift_spectrum_by_at_most_two(doomed):
    edited = delete_edges(LADDER, [doomed])
    values = spectrum_search(edited, glue_all(edited), (1, 1)).values
    assert values == (0, 1)
    originals = (0, 1)
    assert all(any(abs(v - o) <= 2 for o in originals) for v in values)


def test_square_deletion_keeps_two_component_spectrum():
    doomed = [("win", 0, 0), ("win", 0, 1), ("spl", 0, 0), ("spl", 1, 0)]
    ladder2 = ladder_family(2)
    edited = delete_edges(ladder2, doomed)
    values = spectrum_search(edited, glue_all(edited), (1, 1)).values
    assert values == (0, 1, 2)


def test_delete_rejects_recurring_slot():
    with pytest.raises(InputError):
        delete_edges(LADDER, [("win", 0)])


def test_delete_rejects_unknown_edges():
    with pytest.raises(InputError):
        delete_edges(LADDER, [("pre", 0)])
    with pytest.raises(InputError):
        delete_edges(LADDER, [("win", 5, 0)])
    with pytest.raises(InputError):
        delete_edges(LADDER, [("win", 0, -1)])
    for bad in (("win", "0", 0), ("win", 0.5, 0), ("pre", "x"), ("win", 0, 0, 0), ("win",)):
        with pytest.raises(InputError):
            delete_edges(LADDER, [bad])


def test_deletions_chain_at_one_window():
    # the second deletion's copies of window 0 would take the names t0@0 and
    # b0@0 of the first one's, so they are named apart; the answer is that
    # of the same family with the first copies renamed
    once = delete_edges(LADDER, [("win", 0, 0)])
    renamed = replace(
        once,
        prefix_vertices=("x", "y"),
        prefix_edges=tuple(({"t0@0": "x", "b0@0": "y"}[u], v, role) for u, v, role in once.prefix_edges),
    )
    twice, want = (delete_edges(g, [("win", 0, 0)]) for g in (once, renamed))
    assert twice.prefix_vertices == ("t0@0", "b0@0", "@t0@0", "@b0@0")
    assert want.prefix_vertices == ("x", "y", "t0@0", "b0@0")
    assert spectrum_search(twice, glue_all(twice), (1, 1)) == spectrum_search(want, glue_all(want), (1, 1))


def test_delete_caps_the_unrolled_windows():
    assert delete_edges(LADDER, [("win", 0, MAX_WINDOW)]).prefix_vertices
    with pytest.raises(ResourceLimitError):
        delete_edges(LADDER, [("win", 0, 10**9)])


# ---------------------------------------------------------------------------
# coloop contraction


def test_pendant_bar_contracts_cleanly():
    pend = pendant_family()
    view = contract_coloops(pend, glue_all(pend), [("pre", 0)])
    assert isinstance(view, ContractedSystem)
    assert view.spectrum().values == (0, 1)


def test_a_doubled_bar_is_not_a_coloop():
    # the pendant piece's spanning forests are its two bars; the one avoiding
    # bar 0 is named in the family's indices, without the ladder's edges
    pend = pendant_family()
    pend = replace(pend, prefix_edges=pend.prefix_edges * 2)
    with pytest.raises(InputError) as err:
        contract_coloops(pend, glue_all(pend), [("pre", 0)])
    assert str(err.value) == (
        "not a coloop set within bounds: {'prefix_blocks': 0, 'prefix_edges': [['pre', 0]], "
        "'repeat_edges': []} stays outside the base {'prefix_blocks': 0, 'prefix_edges': "
        "[['pre', 1]], 'repeat_edges': []}"
    )


def test_contracted_view_answers_queries():
    pend = pendant_family()
    view = contract_coloops(pend, glue_all(pend), [("pre", 0)])
    assert view.is_base(RAILS)
    assert view.is_independent(UPEdgeSet(pattern=frozenset({("spl", 0)})))
    with pytest.raises(InputError):
        view.is_independent(UPEdgeSet(prefix_present=frozenset({0})))


def test_contracted_view_subtracts_the_contraction_from_each_witness_part():
    pend = pendant_family()
    view = contract_coloops(pend, glue_all(pend), [("pre", 0)])
    found = spectrum_search(view.family, view.glue, view.profile).witnesses
    rep = view.spectrum()
    for v, parts in rep.witnesses.items():
        for name, part in parts.items():
            assert part == edge_sets_difference(found[v][name], view.contracted)
    four = [["spl", 0, 0], ["spl", 0, 1], ["spl", 1, 0], ["win", 0, 0]]
    seven = [["spl", 0, 0], ["spl", 0, 1], ["spl", 0, 2], ["spl", 1, 0], ["spl", 1, 2],
             ["win", 0, 0], ["win", 0, 2]]
    rungs = {"prefix_blocks": 2, "prefix_edges": four, "repeat_edges": [["spl", 0], ["win", 0]]}
    rails = {"prefix_blocks": 2, "prefix_edges": four, "repeat_edges": [["spl", 0], ["spl", 1]]}
    assert rep.to_dict() == {
        "values": [0, 1],
        "witnesses": {
            "0": {"base": rungs, "fin_base": rungs},
            "1": {
                "base": rails,
                "fin_base": {**rails, "prefix_blocks": 3, "prefix_edges": seven},
            },
        },
        "bounds": {
            "contracted": {"prefix_blocks": 0, "prefix_edges": [["pre", 0]], "repeat_edges": []},
            "profile_p": 2,
            "profile_q": 1,
        },
        "complete_within_bounds": True,
    }


def test_empty_contraction_is_identity_view():
    view = contract_coloops(LADDER, glue_all(LADDER), [])
    assert view.spectrum().values == spectrum_search(LADDER, glue_all(LADDER)).values


def test_rung_is_not_a_coloop():
    with pytest.raises(InputError) as err:
        contract_coloops(LADDER, glue_all(LADDER), [("win", 0, 0)])
    assert "base" in str(err.value)


def test_contraction_rejects_period_profiles():
    with pytest.raises(InputError):
        contract_coloops(LADDER, glue_all(LADDER), [("win", 0, 0)], (2, 2))


# ---------------------------------------------------------------------------
# batch scans


def test_scan_mixes_families_and_finite_systems():
    rows = spectrum_scan(
        [
            ("ladder1", LADDER, None),
            ("bean", bean_family(), None),
            ("blocks2", ch4_system(2)),
        ]
    )
    assert [r["name"] for r in rows] == ["ladder1", "bean", "blocks2"]
    assert rows[0]["values"] == (0, 1)
    assert rows[1]["values"] == (0, 1)
    assert rows[2]["values"] == (1, 2)
    assert not any(r["gap"] for r in rows)


def test_scan_flags_gaps():
    rows = spectrum_scan([("blocks3", ch4_system(3))])
    assert rows[0]["values"] == (1, 2, 3)
    assert not rows[0]["gap"]


def test_scan_rejects_unknown_payload():
    with pytest.raises(InputError):
        spectrum_scan([("mystery", object())])


def test_scan_of_nothing():
    assert spectrum_scan([]) == []
