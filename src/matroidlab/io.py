"""JSON file formats: systems, matrices, families, gluings, edits, reports.

Loaders take parsed objects (call read_json for a path) and raise InputError
on malformed input.  load_file(loader, path) reads a file and loads it once
per distinct text per process: the text is read on every call, so a changed
file is loaded again, and an error is never cached.  Dumpers produce plain
JSON-ready objects; json_text renders them byte-stably so equal inputs yield
equal report files.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from pathlib import Path

from . import __version__
from .core import GroundSet, explicit_system, family_masks, graphic_matroid, uniform_matroid
from .cycles import GluingSpec
from .errors import InputError
from .linear import GF2, Q, MatrixRep, PeriodicMatrixSpec, linear_matroid
from .ops import NestedPair
from .periodic import PeriodicGraphSpec, UPEdgeSet
from .util import iter_bits


def _read_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, a NUL in the name, non-UTF-8 bytes
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse(path, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise InputError(f"cannot read {path}: {exc}") from None


def read_json(path):
    return _parse(path, _read_text(path))


class _Unparsed(Exception):
    """json.loads refused a file's text; load_file names the path."""


@lru_cache(maxsize=256)
def _loaded(loader, text: str):
    try:
        obj = json.loads(text)
    except ValueError:
        raise _Unparsed from None
    return loader(obj)


def load_file(loader, path):
    """loader(read_json(path)), loaded once per distinct (loader, text).

    The file is read on every call, so an edited file is loaded again, and
    an error is raised afresh each time, never cached.  Every call on one
    text returns the same object, so loader must build frozen values (specs,
    gluings, systems), on which only pure cached values are ever set."""
    text = _read_text(path)
    try:
        return _loaded(loader, text)
    except _Unparsed:
        _parse(path, text)  # raises the error read_json would
        raise


def json_text(obj) -> str:
    # no envelope holds a cycle, so the encoder's per-container id table is waste
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def _require(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{context} needs a {key!r} field")
    return obj[key]


def _only(obj, keys, context):
    """InputError when the object obj has a key outside keys: a misspelt key
    would otherwise be dropped and read as absent."""
    extra = sorted(k for k in obj if k not in keys) if isinstance(obj, dict) else []
    if extra:
        raise InputError(f"{context} has unknown keys: {', '.join(map(repr, extra))}")


def _number(value, what, field=None):
    """value as a Fraction when field is Q, else as an int; a boolean or a
    number with a fractional part is not an int."""
    if field != Q and (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} must be an integer: {value!r}")
    try:
        return Fraction(str(value)) if field == Q else int(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{what} must be a number: {value!r}") from None


def _array(value, what) -> list:
    """value's items as a list; InputError unless it is an array (a string
    or an object is not one)."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise InputError(f"{what} must be an array: {value!r}")


def _names(value, what) -> tuple:
    """value's items as strings, for vertex, row and end labels."""
    return tuple(str(v) for v in _array(value, what))


# ---------------------------------------------------------------------------
# independence systems


def load_system(obj):
    """{"ground": [labels], "kind": ..., payload keys per kind} -> system."""
    labels = _array(_require(obj, "ground", "system file"), "system ground")
    ground = GroundSet.named(labels)
    kind = _require(obj, "kind", "system file")
    if kind == "explicit":
        _only(obj, ("ground", "kind", "independent"), "explicit system")
        sets = _require(obj, "independent", "explicit system")
        try:
            if any(isinstance(e, bool) for s in sets for e in s):
                raise TypeError  # JSON true is an int subclass, but no index
            masks = [ground.mask(s) for s in sets]
        except TypeError:
            raise InputError("independent sets must be arrays of element indices") from None
        return explicit_system(ground, masks)
    if kind == "uniform":
        _only(obj, ("ground", "kind", "rank"), "uniform system")
        rank = _require(obj, "rank", "uniform system")
        return uniform_matroid(_number(rank, "uniform rank"), ground.size, labels=labels)
    if kind == "graphic":
        _only(obj, ("ground", "kind", "vertices", "edges"), "graphic system")
        n = _number(_require(obj, "vertices", "graphic system"), "vertex count")
        edges = _graphic_edges(_require(obj, "edges", "graphic system"))
        if len(edges) != ground.size:
            raise InputError("graphic ground size must match the edge count")
        return graphic_matroid(n, edges, labels=labels)
    if kind == "linear":
        _only(obj, ("ground", "kind", "matrix"), "linear system")
        m = load_matrix(_require(obj, "matrix", "linear system"))
        if m.col_labels != ground.labels:
            raise InputError("linear ground must equal the matrix column labels")
        return linear_matroid(m)
    raise InputError(f"unknown system kind {kind!r}")


def _graphic_edges(edges) -> list[tuple[int, int]]:
    pairs = [_array(e, "graphic edge") for e in _array(edges, "graphic edges")]
    for e in pairs:
        if len(e) != 2:
            raise InputError(f"graphic edge must be [u, v]: {e!r}")
    return [(_number(u, "edge endpoint"), _number(v, "edge endpoint")) for u, v in pairs]


def dump_system(sys_, cap=None) -> dict:
    """Explicit system file for any finite system; masks ordered canonically.
    An oracle is swept under cap."""
    fam = sorted(family_masks(sys_, cap), key=int.bit_count)
    return {
        "ground": list(sys_.ground.labels),
        "kind": "explicit",
        "independent": [list(iter_bits(s)) for s in fam],
    }


def load_nested_pair(obj, cap=None) -> NestedPair:
    _only(obj, ("inner", "outer"), "nested pair file")
    return NestedPair(
        inner=load_system(_require(obj, "inner", "nested pair file")),
        outer=load_system(_require(obj, "outer", "nested pair file")),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# matrices


def load_matrix(obj) -> MatrixRep:
    """{"field", "rows": [labels], "cols": [labels], "entries": [[r,c,val],...]}."""
    field = _require(obj, "field", "matrix file")
    _only(obj, ("field", "rows", "cols", "entries"), "matrix file")
    if field not in (GF2, Q):
        raise InputError(f"unknown field {field!r}")
    rows = [str(r) for r in _array(_require(obj, "rows", "matrix file"), "matrix rows")]
    cols = [str(c) for c in _array(_require(obj, "cols", "matrix file"), "matrix cols")]
    zero = 0 if field == GF2 else Fraction(0)
    dense = {(r, c): zero for r in rows for c in cols}

    def resolve(key, pool, what):
        if isinstance(key, str):
            if key not in pool:
                raise InputError(f"unknown {what} label {key!r}")
            return key
        try:
            return pool[key]
        except (IndexError, TypeError):
            raise InputError(f"{what} reference {key!r} out of range") from None

    for entry in _array(_require(obj, "entries", "matrix file"), "matrix entries"):
        try:
            r, c, val = entry
        except (TypeError, ValueError):
            raise InputError(f"matrix entry must be [row, col, value]: {entry!r}") from None
        r, c = resolve(r, rows, "row"), resolve(c, cols, "column")
        val = _number(val, "matrix entry", field)
        dense[(r, c)] = val % 2 if field == GF2 else val
    return MatrixRep(
        field=field,
        row_labels=tuple(rows),
        col_labels=tuple(cols),
        columns=tuple(tuple(dense[(r, c)] for r in rows) for c in cols),
    )


def dump_matrix(m: MatrixRep) -> dict:
    entries = []
    for c, col in zip(m.col_labels, m.columns):
        for r, val in zip(m.row_labels, col):
            if val:
                entries.append([r, c, str(val) if m.field == Q else int(val)])
    return {
        "field": m.field,
        "rows": list(m.row_labels),
        "cols": list(m.col_labels),
        "entries": entries,
    }


def load_matrix_family(obj) -> PeriodicMatrixSpec:
    """Window-repeated column family.

    {"field", "persistent_rows", "block_rows", "block_cols": [[[ref, val],...],...]}
    where ref is ["p", row] or ["b", row, 0|1].
    """
    field = _require(obj, "field", "matrix family file")
    _only(obj, ("field", "persistent_rows", "block_rows", "block_cols"), "matrix family file")
    if field not in (GF2, Q):
        raise InputError(f"unknown field {field!r}")

    cols = []
    for pattern in _array(_require(obj, "block_cols", "matrix family file"), "block columns"):
        entries = []
        for item in _array(pattern, "block column"):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise InputError(f"pattern entry must be [rowref, value]: {item!r}")
            ref, val = item
            ref = list(ref) if isinstance(ref, (list, tuple)) else [ref]
            if ref and ref[0] == "p" and len(ref) == 2:
                ref = ("p", str(ref[1]))
            elif ref and ref[0] == "b" and len(ref) == 3:
                ref = ("b", str(ref[1]), _number(ref[2], "block row offset"))
            else:
                raise InputError(f"row reference must be ['p', row] or ['b', row, 0|1]: {ref!r}")
            entries.append((ref, _number(val, "matrix entry", field)))
        cols.append(tuple(entries))
    return PeriodicMatrixSpec(
        field=field,
        persistent_rows=_names(obj.get("persistent_rows", []), "persistent rows"),
        block_rows=_names(obj.get("block_rows", []), "block rows"),
        block_cols=tuple(cols),
    )


# ---------------------------------------------------------------------------
# periodic families


def _edge_entry(entry, default_role, context):
    entry = _array(entry, f"{context} edge")
    if len(entry) == 2:
        entry.append(default_role)
    if len(entry) != 3:
        raise InputError(f"{context} edge must be [u, v] or [u, v, role]: {entry!r}")
    return entry


def _pref_ref(ref):
    if isinstance(ref, str):
        return ref
    if isinstance(ref, (list, tuple)) and len(ref) == 2 and ref[0] == "r":
        return ("r", str(ref[1]))
    raise InputError(f"prefix endpoint must be a name or ['r', lane]: {ref!r}")


def load_family(obj) -> PeriodicGraphSpec:
    repeat = _require(obj, "repeat", "family file")
    _only(obj, ("prefix", "repeat", "splice", "apex", "ends"), "family file")
    prefix = obj.get("prefix", {})
    for name, section in (("repeat", repeat), ("prefix", prefix)):
        if not isinstance(section, dict):
            raise InputError(f"family {name} section must be an object")
        _only(section, ("vertices", "edges"), f"family {name} section")

    def edges(section, key, default_role, context):
        return [
            _edge_entry(e, default_role, context)
            for e in _array(section.get(key, []), f"{context} edges")
        ]

    pre_edges = tuple(
        (_pref_ref(u), _pref_ref(v), str(role))
        for u, v, role in edges(prefix, "edges", "link", "prefix")
    )
    win_edges = tuple(
        (str(u), str(v), str(role))
        for u, v, role in edges(repeat, "edges", "window", "repeat")
    )
    spl_edges = tuple(
        (str(u), str(v), str(role))
        for u, v, role in edges(obj, "splice", "splice", "splice")
    )
    apex_edges = []
    for block in _array(obj.get("apex", []), "apex blocks"):
        vertex = str(_require(block, "vertex", "apex block"))
        _only(block, ("vertex", "per_block_edges"), "apex block")
        for item in _array(_require(block, "per_block_edges", "apex block"), "apex edges"):
            entry = [item, "apex"] if isinstance(item, str) else _array(item, "apex edge")
            if len(entry) != 2:
                raise InputError(f"apex edge must be lane or [lane, role]: {item!r}")
            apex_edges.append((vertex, str(entry[0]), str(entry[1])))
    return PeriodicGraphSpec(
        prefix_vertices=_names(prefix.get("vertices", []), "prefix vertices"),
        repeat_vertices=_names(_require(repeat, "vertices", "repeat"), "repeat vertices"),
        prefix_edges=pre_edges,
        window_edges=win_edges,
        splice_edges=spl_edges,
        apex_edges=tuple(apex_edges),
        ends=_names(obj.get("ends", []), "ends"),
    )


def dump_family(g: PeriodicGraphSpec) -> dict:
    apex_blocks = {}
    for a, lane, role in g.apex_edges:
        apex_blocks.setdefault(a, []).append([lane, role])
    return {
        "prefix": {
            "vertices": list(g.prefix_vertices),
            "edges": [
                [list(u) if isinstance(u, tuple) else u,
                 list(v) if isinstance(v, tuple) else v,
                 role]
                for u, v, role in g.prefix_edges
            ],
        },
        "repeat": {
            "vertices": list(g.repeat_vertices),
            "edges": [list(e) for e in g.window_edges],
        },
        "splice": [list(e) for e in g.splice_edges],
        "apex": [
            {"vertex": a, "per_block_edges": edges}
            for a, edges in sorted(apex_blocks.items())
        ],
        "ends": list(g.ends),
    }


def load_edge_set(obj) -> UPEdgeSet:
    """The form UPEdgeSet.to_obj writes, each entry [kind, index, ...]."""

    def items(key, sizes):
        out = []
        for item in _array(_require(obj, key, "edge set"), key):
            item = _array(item, key)
            if not item or not isinstance(item[0], str) or sizes.get(item[0]) != len(item):
                raise InputError(f"malformed {key} entry: {item!r}")
            out.append((item[0], *[_number(x, "edge-set index") for x in item[1:]]))
        return out

    _only(obj, ("prefix_blocks", "prefix_edges", "repeat_edges"), "edge set")
    one_off = items("prefix_edges", {"pre": 2, "win": 3, "spl": 3, "apx": 3})
    return UPEdgeSet(
        _number(_require(obj, "prefix_blocks", "edge set"), "explicit zone length"),
        frozenset(t[1] for t in one_off if t[0] == "pre"),
        frozenset(t for t in one_off if t[0] != "pre"),
        frozenset(items("repeat_edges", {"win": 2, "spl": 2, "apx": 2})),
    )


def load_gluing(obj) -> GluingSpec:
    groups = _array(_require(obj, "groups", "gluing file"), "gluing groups")
    _only(obj, ("groups", "psi"), "gluing file")
    psi = _array(_require(obj, "psi", "gluing file"), "gluing psi")
    return GluingSpec(
        tuple(_names(grp, "gluing group") for grp in groups),
        tuple(_number(i, "glued group index") for i in psi),
    )


def dump_gluing(glue: GluingSpec) -> dict:
    return {"groups": [list(g) for g in glue.groups], "psi": list(glue.psi)}


def load_edit(obj, base_dir=None):
    """{"base": <family file path or object>, "delete": [...], "contract": [...]}.

    Returns (family, delete_instances, contract_instances).
    """
    base = _require(obj, "base", "edit file")
    _only(obj, ("base", "delete", "contract"), "edit file")
    if isinstance(base, str):
        path = Path(base)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        base = read_json(path)
    family = load_family(base)

    def instances(key):
        return [tuple(_array(item, f"{key} instance")) for item in _array(obj.get(key, []), key)]

    return family, instances("delete"), instances("contract")


# ---------------------------------------------------------------------------
# reports


def spectrum_csv(report) -> str:
    body = report.to_dict()
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "witness"])
    for value in body["values"]:
        writer.writerow([value, json.dumps(body["witnesses"][str(value)], sort_keys=True)])
    return buf.getvalue()


def envelope(result, config: dict) -> dict:
    """Uniform report wrapper: tool version, echoed config, then the payload."""
    return {"tool": "matroidlab", "version": __version__, "config": config, "result": result}
