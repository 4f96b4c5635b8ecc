"""The dict-based verification path, kept word for word as the reference
for the runs of :mod:`partlyfree.fock` and :mod:`partlyfree.pairs`.

Here ``left_map`` gives L_w as a dict col -> row, ``materialize`` takes
the union of those dicts for U and V, and ``verify_pair`` decides every
identity on the dicts with ``Counter``s and sorted column lists.
:func:`verify_materialized` must return the same report as
``partlyfree.pairs.verify_materialized``, messages included, or raise the
same error.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from partlyfree.fock import FockBasis, _check_path
from partlyfree.graphs import GraphError
from partlyfree.pairs import FormalIsometryPair, PairConstructionError, VerificationReport
from partlyfree.paths import Path


def left_map(b: FockBasis, w: Path) -> dict[int, int]:
    """The truncated L_w as its 0/1 partial map col -> row of basis
    ordinals: v |-> wv for every path v with range source(w) and
    |wv| <= N.  A sum of L_w over distinct sources is the union of the
    maps, since their columns are disjoint.

    The unit column maps to w itself; every longer column takes |w| child
    steps along the edges of w, so no path is built or hashed."""
    _check_path(b.graph, w)
    if len(w) > b.depth:
        return {}
    s, target, first_child = b.vertex_id[w.source], b.target, b.first_child
    cols = [i for i in range(b.offsets[1], b.upto(b.depth - len(w))) if target[i] == s]
    rows = cols
    for e in w.edges:
        rank = b.graph.edge_rank[b.graph.eid[e]]
        rows = [first_child[i] + rank for i in rows]
    out = {s: b.ordinal(w)}
    out.update(zip(cols, rows))
    return out


@dataclass(frozen=True)
class MaterializedPair:
    """U and V on a truncated Fock space, each as its 0/1 partial map
    col -> row of basis ordinals (``SparseOp`` sums of ``left_op`` are the
    test reference), with the interior level and per-summand levels."""

    u: dict[int, int]
    v: dict[int, int]
    level: int            # depth minus the longest summand word; < 0 means empty interior
    u_levels: dict[str, int]
    v_levels: dict[str, int]
    pair: FormalIsometryPair
    basis: FockBasis


def materialize(pair: FormalIsometryPair, b: FockBasis) -> MaterializedPair:
    """Build the partial maps of U and V as unions of the ``left_map`` of
    their summand words; the columns are disjoint because the sources are.

    A word longer than the depth materializes as the zero block.  On the
    window of a built-in countable family this is expected (the window
    may outrun the depth) and allowed; on any other graph, whatever the
    pair's mode, it indicates a depth chosen too small and raises.
    """
    maxlen = pair.max_word_length()
    if maxlen > b.depth and b.graph.family is None:
        raise PairConstructionError(
            f"summand words reach length {maxlen}; materialize at depth >= {maxlen}"
        )
    u_levels = {s.source: b.depth - len(s.word) for s in pair.u_summands}
    v_levels = {s.source: b.depth - len(s.word) for s in pair.v_summands}
    u: dict[int, int] = {}
    v: dict[int, int] = {}
    for h, summands in ((u, pair.u_summands), (v, pair.v_summands)):
        for s in summands:
            h.update(left_map(b, s.word))
    return MaterializedPair(u, v, b.depth - maxlen, u_levels, v_levels, pair, b)



def verify_pair(mat: MaterializedPair) -> VerificationReport:
    """Check the defining identities of a partly-free witness pair.

    With m the interior level and I the pair's initial set:

    (a) U*V == 0 on the full truncated space (orthogonality has no
        boundary defect for left-factor-free words);
    (b) U*U == V*V == sum_{x in I} P_x, compressed to E_m, and the exact
        blockwise identity U*U == sum_k P_{x_k} E_{N - |u_k|} (likewise V);
    (c) UU* <= U*U and VV* <= V*V as containment of 0/1 diagonal
        supports after compressing to E_m; on the window of a built-in
        countable family (``graph.family``) the projection onto all of its
        vertices plays the role of the full initial projection, since a
        window sees only finitely many of the infinitely many summands;
    (d) both initial projections have the standard form sum_x P_x E_{m_x}
        over the summand sources whose words fit the depth.

    U and V are the partial maps f, g of ``mat``, and each identity is
    decided exactly with integers and sets: U*V == 0 iff f and g have
    disjoint ranges; U*U is [f(i) == f(j)], a projection iff f is
    injective; UU* is the diagonal of the fiber sizes of f.  ``SparseOp``
    products and ``partial_isometry_report`` are the test reference.
    """
    b, level, initial_set = mat.basis, mat.level, mat.pair.initial_set
    unknown = initial_set - set(b.graph.vertices)
    if unknown:
        raise GraphError(f"unknown vertex {min(unknown)!r}")
    target, interior = b.target, b.upto(level)
    # class sizes: sizes[k][x] is the number of paths of length <= k with
    # range vertex id x; the paths of length k into y are the paths of
    # length k - 1 followed by an edge into y, and once a level is empty
    # so are all longer ones
    ends = [(b.vertex_id[e.src], b.vertex_id[e.dst]) for e in b.graph.edges]
    paths_k = [1] * len(b.vertices)
    sizes = [paths_k]
    for _ in range(b.depth):
        into = [0] * len(paths_k)
        for src, dst in ends:
            into[dst] += paths_k[src]
        if not any(into):
            break
        paths_k = into
        sizes.append([a + c for a, c in zip(sizes[-1], paths_k)])

    def longest(cols: list[int]) -> dict[int, int]:
        """Range vertex id -> the greatest of the sorted ``cols`` there,
        which is the longest one, since ordinals grow with length."""
        return dict(zip(map(target.__getitem__, cols), cols))

    def ids(levels: dict[str, int]) -> dict[int, int]:
        return {b.vertex_id[x]: m for x, m in levels.items()}

    def is_block(members, top: dict[int, int], levels: dict[int, int]) -> bool:
        """Are ``members``, whose longest one at each range vertex id is
        ``top`` there, exactly the paths p with len(p) <= levels[target(p)]?"""
        size = sum(sizes[min(m, len(sizes) - 1)][x] for x, m in levels.items() if m >= 0)
        return len(members) == size and all(
            i < b.upto(levels.get(x, -1)) for x, i in top.items()
        )

    def read(h: dict[int, int]):
        """Return whether the partial map h is injective, the supports of
        E U*U E (dom h in E, as a sorted list) and of E UU* E (range h in
        E), each None when that is no 0/1 diagonal, the vertex set of the
        standard form of U*U, None when it has none, and the longest member
        of dom h at each range vertex id."""
        fibers = Counter(h.values())
        injective = len(fibers) == len(h)
        cols = sorted(h)
        initial = cols[:bisect_left(cols, interior)]
        if len({h[i] for i in initial}) != len(initial):
            initial = None
        ranges = {r for r in fibers if r < interior}
        if any(fibers[r] > 1 for r in ranges):
            ranges = None
        top = longest(cols)
        lengths = {x: b.length(i) for x, i in top.items()}
        standard = injective and is_block(h, top, lengths)
        vertex_set = frozenset(b.vertices[x] for x in top) if standard else None
        return injective, initial, ranges, vertex_set, top

    f, g = mat.u, mat.v
    injective_u, s_u, lhs_u, vertex_set_u, top_u = read(f)
    injective_v, s_v, lhs_v, vertex_set_v, top_v = read(g)
    messages: list[str] = []
    nonzero = bool(f) and bool(g)
    if not nonzero:
        messages.append("an operator materialized to zero (depth far below the word lengths?)")
    orthogonal = set(f.values()).isdisjoint(g.values())
    if not orthogonal:
        messages.append("U*V has a nonzero entry")

    initial_levels = ids(dict.fromkeys(initial_set, level))
    initial_match = all(
        s is not None and is_block(s, longest(s), initial_levels) for s in (s_u, s_v)
    )
    if not initial_match:
        messages.append("compressed initial projections disagree")

    blockwise = (
        injective_u
        and injective_v
        and is_block(f, top_u, ids(mat.u_levels))
        and is_block(g, top_v, ids(mat.v_levels))
    )
    if not blockwise:
        messages.append("blockwise initial projection identity fails")

    if b.graph.family is None:
        rhs_u, rhs_v = s_u, s_v
    else:
        # the right-hand side is all of E_m, which holds every range read above
        rhs_u, rhs_v = lhs_u, lhs_v
    if lhs_u is None or lhs_v is None or rhs_u is None or rhs_v is None:
        range_condition = False
        messages.append("a range or initial projection is not a 0/1 diagonal")
    else:
        range_condition = lhs_u.issubset(rhs_u) and lhs_v.issubset(rhs_v)
        if not range_condition:
            messages.append("a range projection escapes the initial projection")

    standard_form = vertex_set_u == {x for x, m in mat.u_levels.items() if m >= 0} and (
        vertex_set_v == {x for x, m in mat.v_levels.items() if m >= 0}
    )
    if not standard_form:
        messages.append("standard-form decomposition does not match the predicted vertex set")

    return VerificationReport(
        depth=b.depth,
        interior_level=level,
        nonzero=nonzero,
        orthogonal=orthogonal,
        initial_projections_match=initial_match,
        blockwise_exact=blockwise,
        range_condition=range_condition,
        standard_form=standard_form,
        messages=tuple(messages),
    )



def verify_materialized(pair: FormalIsometryPair, b: FockBasis) -> VerificationReport:
    """Materialize and verify in one step."""
    return verify_pair(materialize(pair, b))
