"""Test-only references, outside the package.

The CLI and the paper's examples need none of these; tests use them as
independent references for the integer verification path: ``SparseOp``
projections and sums, the partial-isometry report and the left-factor
test of two paths.  Run through pytest, which puts ``tests/`` on the
import path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from partlyfree.fock import FockBasis, SparseOp, left_op, length_projection, right_op
from partlyfree.graphs import GraphError
from partlyfree.pairs import Summand
from partlyfree.paths import Path, unit


def source_projection(b: FockBasis, x: str) -> SparseOp:
    """Q_x: diagonal projection onto basis paths with source x."""
    return right_op(b, unit(b.graph, x))


def sum_vertex_projection(b: FockBasis, vertices: Iterable[str]) -> SparseOp:
    vs = set(vertices)
    for x in vs:
        if not b.graph.has_vertex(x):
            raise GraphError(f"unknown vertex {x!r}")
    ids = {b.vertex_id[x] for x in vs}
    one = Fraction(1)
    return SparseOp(b, {(i, i): one for i, t in enumerate(b.target) if t in ids})


def interior_projection(b: FockBasis, degree: int) -> SparseOp:
    """E_{N-d}: the interior that degree-d operators map into the basis."""
    if not 0 <= degree <= b.depth:
        raise GraphError(f"degree must lie in 0..{b.depth}")
    return length_projection(b, b.depth - degree)


@dataclass(frozen=True)
class PartialIsometryReport:
    """Outcome of checking V*V for projection- and standard-form.

    Initial projections of partial isometries in these algebras are sums
    of vertex projections; on the truncation each surviving vertex class
    is a full initial segment by length, so the decomposition is a vertex
    set together with per-vertex interior levels.  ``level`` is the least
    of those: V*V agrees with sum_{x in vertex_set} P_x exactly after
    composing with E_level.
    """

    is_partial_isometry: bool
    failure: Optional[str]
    initial_projection: SparseOp
    vertex_set: Optional[frozenset[str]]
    level: Optional[int]
    per_vertex_levels: Optional[dict[str, int]]


def partial_isometry_report(v: SparseOp) -> PartialIsometryReport:
    """Check V*V == (V*V)^2 exactly and decompose it into vertex slices."""
    b = v.basis
    k = v.adjoint() * v
    if k * k != k:
        return PartialIsometryReport(False, "V*V is not idempotent", k, None, None, None)
    if k != k.adjoint():
        return PartialIsometryReport(False, "V*V is not self-adjoint", k, None, None, None)
    support = k.diagonal_01_support()
    if support is None:
        return PartialIsometryReport(
            True, "initial projection is not 0/1 diagonal in the path basis", k, None, None, None
        )
    if not support:
        return PartialIsometryReport(True, None, k, frozenset(), b.depth, {})
    by_vertex: dict[str, list[int]] = {}
    for i in support:
        by_vertex.setdefault(b.paths[i].target, []).append(i)
    class_counts: dict[str, dict[int, int]] = {}
    for p in b.paths:
        if p.target in by_vertex:
            class_counts.setdefault(p.target, {})
            class_counts[p.target][len(p)] = class_counts[p.target].get(len(p), 0) + 1
    levels: dict[str, int] = {}
    for x, ordinals in by_vertex.items():
        m = max(len(b.paths[i]) for i in ordinals)
        expected = sum(n for length, n in class_counts[x].items() if length <= m)
        if expected != len(ordinals):
            return PartialIsometryReport(
                True,
                f"support at vertex {x!r} is not an initial segment by length",
                k,
                None,
                None,
                None,
            )
        levels[x] = m
    return PartialIsometryReport(
        True, None, k, frozenset(levels), min(levels.values()), levels
    )


def is_left_divisor(p: Path, q: Path) -> bool:
    """True iff ``q = p r`` for some path ``r`` (p is a left factor of q).

    In traversal order this means ``p.edges`` is a suffix of ``q.edges``
    with matching range; for units it degenerates to a range test.  This
    is exactly the condition for ``L_p* L_q`` to be a nonzero operator.
    """
    if len(p) > len(q) or p.target != q.target:
        return False
    if p.is_unit:
        return True
    return q.edges[len(q) - len(p):] == p.edges


def sum_left_ops(b: FockBasis, summands: Sequence[Summand]) -> SparseOp:
    """The truncated matrix of sum_k L_{w_k} over the summand words, the
    ``SparseOp`` reference for the partial maps of ``pairs.materialize``."""
    out = SparseOp.zero(b)
    for s in summands:
        out = out + left_op(b, s.word)
    return out
