"""The rational operator path of the package before it was built from
runs and the trie, kept word for word as the reference that the tests
compare the package against.

``SparseOp`` here is the package's class with its earlier ``+`` and
scalar ``*``, which add and multiply every entry and filter zeros in the
constructor.  ``basis_hash`` is the earlier ``FockBasis.basis_hash``,
over ``basis.paths``, as a function of the basis, and ``export_sparse``
calls it in place of the method; nothing else is changed.  The other
functions are the earlier ``fock.left_op``, ``fock.right_op``,
``fock.vertex_projection``, ``fock.fourier_coefficients``,
``fock.reconstruct``, ``fock.export_sparse`` and
``cli._parse_op_expression``.  Run through pytest, which puts ``tests/``
on the import path.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Mapping

from partlyfree import fock
from partlyfree.fock import FockBasis, _check_path, left_map
from partlyfree.graphs import GraphError
from partlyfree.paths import Path, literal, path_from_literal, unit
from reference import child

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class SparseOp(fock.SparseOp):
    __slots__ = ()

    def __add__(self, other: "SparseOp") -> "SparseOp":
        self._check_same_basis(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return SparseOp(self.basis, out)

    def __mul__(self, other):
        if isinstance(other, SparseOp):
            self._check_same_basis(other)
            by_row: dict[int, list[tuple[int, Fraction]]] = {}
            for (r, c), v in other.entries.items():
                by_row.setdefault(r, []).append((c, v))
            out: dict[tuple[int, int], Fraction] = {}
            for (r, k), va in self.entries.items():
                for c, vb in by_row.get(k, ()):
                    key = (r, c)
                    s = out.get(key)
                    prod = va * vb
                    out[key] = prod if s is None else s + prod
            return SparseOp(self.basis, out)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return SparseOp(self.basis, {k: q * v for k, v in self.entries.items()})
        return NotImplemented


def basis_hash(self) -> str:
    digest = hashlib.sha256()
    digest.update(str(self.depth).encode())
    for p in self.paths:
        digest.update(literal(p).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:12]


def left_op(b: FockBasis, w: Path) -> SparseOp:
    """The truncated left creation operator L_w (P_x for a unit)."""
    one = Fraction(1)
    return SparseOp(b, {(row, col): one for col, row in zip(*left_map(b, w))})


def right_op(b: FockBasis, w: Path) -> SparseOp:
    """The truncated right-regular operator R_w (Q_x for a unit).

    R_w maps the unit at target(w) to w, and v followed by an edge e to
    R_w v followed by e; so every column's image is one child step from
    the image of its parent, which has a lower ordinal.  A word longer
    than the depth gives the zero operator."""
    _check_path(b.graph, w)
    if len(w) > b.depth:
        return SparseOp.zero(b)
    out_edges = [b.graph.out_edges(v) for v in b.vertices]
    rows = {b.vertex_id[w.target]: b.ordinal(w)}
    # the parents: columns whose children v still have |vw| <= N
    for i in range(b.upto(b.depth - len(w) - 1)):
        image = rows.get(i)
        if image is not None:
            for e in out_edges[b.target[i]]:
                rows[child(b, i, e.name)] = child(b, image, e.name)
    one = Fraction(1)
    return SparseOp(b, {(row, col): one for col, row in rows.items()})


def vertex_projection(b: FockBasis, x: str) -> SparseOp:
    """P_x: diagonal projection onto basis paths with range x."""
    return left_op(b, unit(b.graph, x))


def fourier_coefficients(a: SparseOp) -> dict[Path, Fraction]:
    """Coefficients a_w of the expansion A ~ sum a_w L_w.

    a_w is the entry of A at row w and column unit(source(w)); for
    elements of the truncated algebra this reads the coefficients off the
    columns of the unit vectors, exactly.
    """
    b = a.basis
    table: dict[Path, Fraction] = {}
    for i, w in enumerate(b.paths):
        # the unit at a vertex has the vertex id as its ordinal
        value = a.entries.get((i, b.vertex_id[w.source]))
        if value:
            table[w] = value
    return table


def reconstruct(
    table: Mapping[Path, Fraction], b: FockBasis, mode: str = "plain", degree: int = 0
) -> SparseOp:
    """Partial sums of sum a_w L_w from a coefficient table.

    ``plain``  : sum over |w| <= degree of a_w L_w
    ``cesaro`` : sum over |w| <= degree of (1 - |w|/(degree+1)) a_w L_w,
                 the first-order Cesaro mean over word length.
    """
    if mode not in ("plain", "cesaro"):
        raise GraphError(f"unknown reconstruction mode {mode!r}")
    out = SparseOp.zero(b)
    for w, coeff in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0].edges, kv[0].source)):
        if len(w) > degree:
            continue
        weight = Fraction(coeff)
        if mode == "cesaro":
            weight *= 1 - Fraction(len(w), degree + 1)
        if weight:
            out = out + weight * left_op(b, w)
    return out


def export_sparse(a: SparseOp) -> str:
    """Line-based export: header ``dim N basis-hash``, then sorted entries."""
    b = a.basis
    lines = [f"{b.dim} {b.depth} {basis_hash(b)}"]
    for (r, c) in sorted(a.entries):
        v = a.entries[(r, c)]
        lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def _parse_op_expression(basis, text: str) -> SparseOp:
    """Sum of terms ``[q*]L:word``, ``[q*]R:word``, ``[q*]P:vertex``;
    rationals like 3, -2/5.  Words use the path literal syntax."""
    total = SparseOp.zero(basis)
    g = basis.graph
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if not term:
            raise GraphError("empty term in operator expression")
        scalar = Fraction(1)
        if "*" in term:
            coeff, term = term.split("*", 1)
            coeff = coeff.strip()
            try:
                # Fraction alone would also take "1e999999999" and build that power of ten
                if not _RATIONAL.fullmatch(coeff):
                    raise ValueError
                scalar = Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"bad rational coefficient {coeff!r}") from None
            term = term.strip()
        if ":" not in term:
            raise GraphError(f"bad operator term {raw_term.strip()!r}")
        kind, lit = term.split(":", 1)
        kind = kind.strip()
        lit = lit.strip()
        if kind == "L":
            op = left_op(basis, path_from_literal(g, lit))
        elif kind == "R":
            op = right_op(basis, path_from_literal(g, lit))
        elif kind == "P":
            op = vertex_projection(basis, lit)
        else:
            raise GraphError(f"unknown operator kind {kind!r} (use L, R or P)")
        total = total + scalar * op
    return total
