"""Field-backed matroids with exact arithmetic.

Supports GF(2) (columns packed into int bitsets) and the rationals.  Scaling
a column by a nonzero number leaves the column matroid unchanged, so each
rational column is multiplied once by the lcm of its denominators and every
rank is then found by fraction-free elimination over the integers.  No
floating point anywhere: membership answers are discrete and a rounded pivot
would corrupt them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .core import GroundSet, OracleMatroid, graphic_matroid, family_masks
from .errors import InputError
from .util import iter_bits

GF2 = "gf2"
Q = "q"
FIELDS = (GF2, Q)


def _check_field(field: str):
    if field not in FIELDS:
        raise InputError(f"unknown field {field!r}; expected one of {FIELDS}")


@dataclass(frozen=True)
class MatrixRep:
    """Dense column-major matrix over GF(2) or Q, with labelled rows and columns."""

    field: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    columns: tuple[tuple, ...]

    def __post_init__(self):
        _check_field(self.field)
        n = len(self.row_labels)
        if len(self.columns) != len(self.col_labels):
            raise InputError("column count does not match column labels")
        for col in self.columns:
            if len(col) != n:
                raise InputError("column length does not match row count")
            if self.field == GF2 and any(v not in (0, 1) for v in col):
                raise InputError("GF(2) entries must be 0 or 1")

    @classmethod
    def from_rows(cls, field: str, rows, row_labels=None, col_labels=None) -> "MatrixRep":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise InputError("ragged matrix")
        if field == Q:
            rows = [[Fraction(v) for v in r] for r in rows]
        else:
            rows = [[int(v) % 2 for v in r] for r in rows]
        cols = tuple(tuple(rows[i][j] for i in range(n_rows)) for j in range(n_cols))
        rl = tuple(row_labels) if row_labels else tuple(f"r{i}" for i in range(n_rows))
        cl = tuple(col_labels) if col_labels else tuple(f"c{j}" for j in range(n_cols))
        return cls(field, rl, cl, cols)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @cached_property
    def rank_columns(self) -> tuple:
        """Columns as the rank kernels take them: bitsets over GF(2), row i
        = bit i, and integer multiples (see _integer_column) over Q."""
        if self.field == GF2:
            return tuple(sum(1 << i for i, v in enumerate(col) if v) for col in self.columns)
        return tuple(_integer_column(col) for col in self.columns)


# ---------------------------------------------------------------------------
# exact rank kernels
#
# Both kernels keep an echelon basis as a dict from lead index to pivot row
# and reduce one vector against it at a time; the rank is the pivot count.
# linear_matroid's incremental sweep extends such a basis by one column.


def _integer_column(vec) -> tuple[int, ...]:
    """vec times the lcm of its denominators: integer entries, same span."""
    if all(type(a) is int for a in vec):
        return tuple(vec)
    fracs = [Fraction(a) for a in vec]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs)


def _gf2_reduce(pivots: dict, v: int):
    """(lead, residue) of bitset v against pivots keyed by highest set bit,
    or None when v lies in their span."""
    while v:
        top = v.bit_length() - 1
        p = pivots.get(top)
        if p is None:
            return top, v
        v ^= p
    return None


def _int_reduce(pivots: dict, v):
    """(lead, residue) of integer vector v against pivots keyed by lead index,
    or None when v lies in their span.

    Fraction-free: v <- v*p[lead] - v[lead]*p with both multipliers divided
    by their gcd, which zeroes v[lead] and leaves the earlier entries zero;
    the residue is divided by its content so pivot rows stay small.
    """
    for lead in range(len(v)):
        a = v[lead]
        if not a:
            continue
        p = pivots.get(lead)
        if p is None:
            g = gcd(*v)
            return lead, (v if g == 1 else [x // g for x in v])
        b = p[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        v = [b * x - a * y for x, y in zip(v, p)]
    return None


def _echelon_rank(vectors, reduce) -> int:
    pivots: dict = {}
    for v in vectors:
        hit = reduce(pivots, v)
        if hit is not None:
            pivots[hit[0]] = hit[1]
    return len(pivots)


def gf2_rank(vectors) -> int:
    """Rank of int-packed GF(2) vectors by pivoting on the highest set bit."""
    return _echelon_rank(vectors, _gf2_reduce)


def q_rank(vectors) -> int:
    """Rank of rational vectors (entries anything Fraction() accepts).

    Each vector is scaled to integers by _integer_column, then eliminated
    fraction-free over the integers; no entry is ever a float.
    """
    return _echelon_rank(map(_integer_column, vectors), _int_reduce)


_REDUCE = {GF2: _gf2_reduce, Q: _int_reduce}


def matrix_rank(m: MatrixRep, col_mask: int | None = None) -> int:
    cols = m.rank_columns
    if col_mask is not None:
        cols = [cols[j] for j in iter_bits(col_mask)]
    return _echelon_rank(cols, _REDUCE[m.field])


# ---------------------------------------------------------------------------
# matroids from matrices


def linear_matroid(m: MatrixRep) -> OracleMatroid:
    """Column matroid: a subset is independent iff its columns are.

    The oracle carries an incremental sweep for family_masks: a set's state is
    the echelon basis of its columns, and a one-larger set reduces only the
    added column against it.
    """
    ground = GroundSet(m.col_labels)
    cols = m.rank_columns
    reduce = _REDUCE[m.field]

    def rk(mask: int) -> int:
        return matrix_rank(m, mask)

    def step(pivots: dict, j: int):
        hit = reduce(pivots, cols[j])
        if hit is None:
            return None
        grown = dict(pivots)
        grown[hit[0]] = hit[1]
        return grown

    return OracleMatroid(
        ground, rk, label=f"linear({m.field},{m.n_rows}x{m.n_cols})", grow=lambda cap: ({}, step)
    )


def incidence_matrix(n_vertices: int, edges, field: str = Q) -> MatrixRep:
    """Vertex-edge incidence with the canonical low-to-high orientation.

    The low endpoint gets +1 and the high endpoint -1 (both collapse to 1 over
    GF(2)); a loop cancels itself and yields a zero column.
    """
    _check_field(field)
    edges = tuple((int(u), int(v)) for u, v in edges)
    for u, v in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise InputError("edge endpoint outside vertex range")
    cols = []
    for u, v in edges:
        col = [0] * n_vertices
        lo, hi = min(u, v), max(u, v)
        if lo == hi:
            cols.append(tuple(col))
            continue
        if field == GF2:
            col[lo] = 1
            col[hi] = 1
        else:
            col[lo] = Fraction(1)
            col[hi] = Fraction(-1)
        cols.append(tuple(col))
    return MatrixRep(
        field,
        tuple(f"v{i}" for i in range(n_vertices)),
        tuple(f"e{j}" for j in range(len(edges))),
        tuple(cols),
    )


def verify_thinAC_equiv(n_vertices: int, edges, field: str = Q, cap: int | None = None) -> bool:
    """Incidence column matroid vs cycle matroid of the same multigraph."""
    lin = linear_matroid(incidence_matrix(n_vertices, edges, field))
    gra = graphic_matroid(n_vertices, edges)
    return family_masks(lin, cap) == family_masks(gra, cap)


def span_maximality_check(m: MatrixRep, s) -> bool:
    """True iff independent set s already spans the whole column space."""
    ground = GroundSet(m.col_labels)
    mask = s if isinstance(s, int) else ground.mask(s)
    r = matrix_rank(m, mask)
    if r != mask.bit_count():
        raise InputError("span test requires an independent set")
    return r == matrix_rank(m)


# ---------------------------------------------------------------------------
# periodic column families


@dataclass(frozen=True)
class PeriodicMatrixSpec:
    """Column family repeated window by window.

    persistent_rows exist once; block_rows are freshly instantiated in every
    window.  Each column pattern is a tuple of (rowref, value) entries, where
    a rowref is ("p", name) for a persistent row or ("b", name, delta) for the
    block row of this window (delta 0) or the next (delta 1).
    """

    field: str
    persistent_rows: tuple[str, ...]
    block_rows: tuple[str, ...]
    block_cols: tuple[tuple, ...]

    def __post_init__(self):
        _check_field(self.field)
        names = self.persistent_rows + self.block_rows
        if len(set(names)) != len(names):
            raise InputError("row names must be unique across both kinds")
        for col in self.block_cols:
            for ref, value in col:
                if value == 0:
                    raise InputError("pattern entries must be nonzero")
                if self.field == GF2 and value != 1:
                    raise InputError("GF(2) entries must be 1")
                if ref[0] == "p":
                    if ref[1] not in self.persistent_rows:
                        raise InputError(f"unknown persistent row {ref[1]!r}")
                elif ref[0] == "b":
                    if ref[1] not in self.block_rows:
                        raise InputError(f"unknown block row {ref[1]!r}")
                    if ref[2] not in (0, 1):
                        raise InputError("block row offset must be 0 or 1")
                else:
                    raise InputError(f"bad row reference {ref!r}")


def materialize(spec: PeriodicMatrixSpec, n_windows: int) -> MatrixRep:
    """Truncate the family to n_windows windows of columns.

    Entries pointing at the block row after the last window are dropped, the
    usual truncation of forward references at the boundary.
    """
    if n_windows < 1:
        raise InputError("need at least one window")
    row_labels = list(spec.persistent_rows)
    row_index = {("p", name): i for i, name in enumerate(spec.persistent_rows)}
    for w in range(n_windows):
        for name in spec.block_rows:
            row_index[("b", name, w)] = len(row_labels)
            row_labels.append(f"{name}@{w}")
    cols = []
    col_labels = []
    zero = 0 if spec.field == GF2 else Fraction(0)
    for w in range(n_windows):
        for j, pattern in enumerate(spec.block_cols):
            col = [zero] * len(row_labels)
            for ref, value in pattern:
                if ref[0] == "p":
                    col[row_index[ref]] = value
                else:
                    target = w + ref[2]
                    if target >= n_windows:
                        continue
                    col[row_index[("b", ref[1], target)]] = value
            cols.append(tuple(col))
            col_labels.append(f"c{j}@{w}")
    return MatrixRep(spec.field, tuple(row_labels), tuple(col_labels), tuple(cols))


def nearly_thin_count(spec: PeriodicMatrixSpec) -> tuple[int, tuple[str, ...]]:
    """Persistent rows whose column support keeps growing with the window count.

    Returns (count, growing row names).  Each window adds one column per
    pattern, and pattern entries are nonzero, so after n windows a persistent
    row's support is n times the number of patterns naming it: it grows
    exactly when some pattern names it, at every window count alike.
    """
    named = {ref[1] for col in spec.block_cols for ref, _ in col if ref[0] == "p"}
    return len(named), tuple(sorted(named))
