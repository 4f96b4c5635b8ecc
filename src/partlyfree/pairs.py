"""Construction and exact verification of the witnessing isometry pairs.

A graph property becomes an operator fact through an explicit pair
(U, V) of partial isometries with orthogonal ranges and equal initial
projections: U = sum_k L_{u_k}, V = sum_k L_{v_k}, the summand words
indexed by pairwise distinct source vertices.

Three constructions are provided:

* double-cycle: from distinct first-return cycles w1 != w2 at x, the
  words u_k = w1^(2k-1) w2 r_k and v_k = w1^(2k) w2 r_k, where r_k runs
  from the k-th vertex that reaches x down to x.  Distinct exponents make
  every cross product L_a* L_b vanish: a nonzero product needs one word
  to be a left factor of the other, which would place an interior edge
  with source x inside a first-return cycle.
* infinite-path: a finite window of the tail construction for the
  built-in countable families (u_k, v_k run from the k-th window vertex
  to the (2k)-th and (2k+1)-th).
* quiver: the single-summand pair (L_{w1}, L_{w2}), which keeps the
  initial projection a finite sum of vertex projections as the norm
  closed algebra requires.

Everything is verified a posteriori on a truncated Fock space, exactly,
with integers and sets on the pairs' 0/1 partial maps; no identity is
claimed past the interior level at which truncation defects are expected.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .fock import FockBasis, left_map
from .graphs import (
    DoubleCycleWitness,
    Graph,
    GraphError,
    double_cycle_witnesses,
    saturation_vertices,
)
from .paths import Path, is_left_divisor, literal, path_from_literal, word

_RETRY_BOUND = 8

MODES = ("double-cycle", "infinite-path", "unital", "quiver")


class PairConstructionError(GraphError):
    """A pair cannot be built (precondition failure or bad pair file)."""


@dataclass(frozen=True)
class Summand:
    source: str
    word: Path


@dataclass(frozen=True)
class FormalIsometryPair:
    """Symbolic description of (U, V) as sums of L_w over distinct sources."""

    mode: str
    u_summands: tuple[Summand, ...]
    v_summands: tuple[Summand, ...]
    initial_set: frozenset[str]

    def __post_init__(self):
        if self.mode not in MODES:
            raise PairConstructionError(f"unknown pair mode {self.mode!r}")
        for side in (self.u_summands, self.v_summands):
            sources = [s.source for s in side]
            if len(set(sources)) != len(sources):
                raise PairConstructionError("summand sources must be pairwise distinct")
            for s in side:
                if s.word.source != s.source:
                    raise PairConstructionError(
                        f"word {literal(s.word)} does not start at {s.source!r}"
                    )
        if self.mode == "quiver" and (len(self.u_summands) != 1 or len(self.v_summands) != 1):
            raise PairConstructionError("quiver pairs carry exactly one summand per operator")

    def max_word_length(self) -> int:
        lengths = [len(s.word) for s in self.u_summands + self.v_summands]
        return max(lengths) if lengths else 0

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "summands_u": [{"source": s.source, "word": literal(s.word)} for s in self.u_summands],
            "summands_v": [{"source": s.source, "word": literal(s.word)} for s in self.v_summands],
            "initial_set": sorted(self.initial_set),
        }


def _field(obj, key: str, kind: type):
    """``obj[key]`` when ``obj`` is a JSON object holding a ``kind`` there."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise PairConstructionError(
            f"malformed pair description: {key!r} must be a {kind.__name__}"
        )
    return value


def pair_from_json(g: Graph, obj) -> FormalIsometryPair:
    """Read what :meth:`FormalIsometryPair.to_json` writes; a pair file of
    any other shape raises :class:`PairConstructionError`."""
    if not isinstance(obj, dict):
        raise PairConstructionError("malformed pair description: expected a JSON object")
    su, sv = (
        tuple(
            Summand(_field(item, "source", str), path_from_literal(g, _field(item, "word", str)))
            for item in _field(obj, key, list)
        )
        for key in ("summands_u", "summands_v")
    )
    initial = _field(obj, "initial_set", list)
    for x in initial:
        if not isinstance(x, str) or not g.has_vertex(x):
            raise PairConstructionError(f"initial set names unknown vertex {x!r}")
    return FormalIsometryPair(_field(obj, "mode", str), su, sv, frozenset(initial))


def _shortest_word(g: Graph, frm: str, to: str) -> Optional[tuple[str, ...]]:
    """Lexicographically least shortest edge word from ``frm`` to ``to``."""
    if frm == to:
        return ()
    visited = {frm}
    frontier: dict[str, tuple[str, ...]] = {frm: ()}
    while frontier:
        nxt: dict[str, tuple[str, ...]] = {}
        for v, w in frontier.items():
            for e in g.out_edges(v):
                if e.dst in visited:
                    continue
                cand = w + (e.name,)
                if e.dst not in nxt or cand < nxt[e.dst]:
                    nxt[e.dst] = cand
        if to in nxt:
            return nxt[to]
        visited.update(nxt)
        frontier = nxt
    return None


def _formally_orthogonal(pair: FormalIsometryPair) -> bool:
    """No word is a left factor of another: every cross product vanishes."""
    words = [s.word for s in pair.u_summands + pair.v_summands]
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            if is_left_divisor(a, b) or is_left_divisor(b, a):
                return False
    return True


def _double_cycle_summands(
    g: Graph,
    witness: DoubleCycleWitness,
    members: Sequence[str],
    offset: int,
) -> tuple[list[Summand], list[Summand]]:
    w1, w2 = witness.first.word, witness.second.word
    us, vs = [], []
    for k, xk in enumerate(members, start=1):
        r = _shortest_word(g, xk, witness.base)
        if r is None:
            raise PairConstructionError(f"vertex {xk!r} does not reach {witness.base!r}")
        # traversal order: connecting path first, then w2, then the w1 blocks
        us.append(Summand(xk, word(g, r + w2 + w1 * (2 * k - 1 + offset))))
        vs.append(Summand(xk, word(g, r + w2 + w1 * (2 * k + offset))))
    return us, vs


def construct_pair_double_cycle(g: Graph, witness: DoubleCycleWitness) -> FormalIsometryPair:
    """Pair witnessing partial freeness from a double-cycle.

    The summand index set is every vertex whose saturation contains the
    witness base, ordered lexicographically; connecting paths are
    shortest with lexicographic tie-break.  Orthogonality holds by the
    exponent design; it is still checked symbolically, and in the
    (never observed) event of a word coincidence the exponents are
    shifted and the construction retried rather than emitting an
    unverified pair.
    """
    witness.validate(g)
    base = witness.base
    members = sorted(v for v in g.vertices if base in saturation_vertices(g, v))
    for attempt in range(_RETRY_BOUND):
        us, vs = _double_cycle_summands(g, witness, members, 2 * len(members) * attempt)
        pair = FormalIsometryPair("double-cycle", tuple(us), tuple(vs), frozenset(members))
        if _formally_orthogonal(pair):
            return pair
    raise PairConstructionError(
        f"no orthogonal word family found at {base!r} after {_RETRY_BOUND} exponent shifts"
    )


def double_cycle_pair(g: Graph) -> FormalIsometryPair:
    """The double-cycle pair at the first witness (least base vertex)."""
    witnesses = double_cycle_witnesses(g)
    if not witnesses:
        raise PairConstructionError("graph has no double-cycle")
    return construct_pair_double_cycle(g, witnesses[0])


def construct_pair_unital(g: Graph) -> FormalIsometryPair:
    """Unital pair for a finite graph with the uniform double-cycle property.

    The vertex set is partitioned by the first (lexicographically) double
    cycle each vertex reaches; each part contributes summands by the
    double-cycle recipe, so the initial set is the whole vertex set and
    the materialized operators are isometries up to the interior level.
    """
    if not g.vertices:
        raise PairConstructionError("cannot build a unital pair over the empty graph")
    witnesses = double_cycle_witnesses(g)
    assignments: dict[str, DoubleCycleWitness] = {}
    for v in g.vertices:
        reach = saturation_vertices(g, v)
        for w in witnesses:
            if w.base in reach:
                assignments[v] = w
                break
        else:
            raise PairConstructionError(
                f"the saturation of vertex {v!r} contains no double-cycle; "
                "the graph is not uniformly aperiodic"
            )
    for attempt in range(_RETRY_BOUND):
        us: list[Summand] = []
        vs: list[Summand] = []
        for w in witnesses:
            members = sorted(v for v, assigned in assignments.items() if assigned is w)
            if not members:
                continue
            offset = 2 * len(members) * attempt
            part_u, part_v = _double_cycle_summands(g, w, members, offset)
            us.extend(part_u)
            vs.extend(part_v)
        pair = FormalIsometryPair("unital", tuple(us), tuple(vs), frozenset(g.vertices))
        if _formally_orthogonal(pair):
            return pair
    raise PairConstructionError(
        f"no orthogonal word family found after {_RETRY_BOUND} exponent shifts"
    )


def quiver_pair(g: Graph) -> FormalIsometryPair:
    """The norm-closed witness (L_{w1}, L_{w2}) from one double-cycle."""
    witnesses = double_cycle_witnesses(g)
    if not witnesses:
        raise PairConstructionError("graph has no double-cycle")
    w = witnesses[0]
    u = Summand(w.base, word(g, w.first.word))
    v = Summand(w.base, word(g, w.second.word))
    pair = FormalIsometryPair("quiver", (u,), (v,), frozenset({w.base}))
    if not _formally_orthogonal(pair):  # distinct first-return cycles never divide
        raise PairConstructionError("double-cycle words unexpectedly interfere")
    return pair


def construct_pair_infinite_path(family: str, window: int) -> FormalIsometryPair:
    """Finite window of the tail construction for a built-in family.

    The words live on the family's truncation at the same window; the
    summand list is the part of the infinite sum whose words stay inside
    the window.
    """
    from . import catalog  # deferred: catalog builds on this module

    entry = catalog.builtin(family)
    if entry.certificate is None or entry.window_pair is None:
        raise PairConstructionError(f"family {entry.name!r} carries no infinite-path certificate")
    g = catalog.family_truncation(entry.name, window)
    triples = entry.window_pair(window)
    if not triples:
        raise PairConstructionError(
            f"window {window} is too small for the pair construction of {entry.name!r}"
        )
    us = tuple(Summand(src, word(g, u_edges)) for src, u_edges, _ in triples)
    vs = tuple(Summand(src, word(g, v_edges)) for src, _, v_edges in triples)
    pair = FormalIsometryPair(
        "infinite-path", us, vs, frozenset(s.source for s in us)
    )
    if not _formally_orthogonal(pair):
        raise PairConstructionError(f"window words of {entry.name!r} unexpectedly interfere")
    return pair


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


EXACTNESS_NOTE = "all identities checked in exact rational arithmetic (zero tolerance)"


@dataclass(frozen=True)
class VerificationReport:
    """Exact verification outcomes for a materialized pair.

    Every boolean is an exact identity, decided as :func:`verify_pair` says.
    ``initial_projections_match`` compares U*U, V*V and the sum of the
    initial vertex projections after compressing to the interior E_m;
    ``blockwise_exact`` states the uncompressed identity
    U*U == sum_k P_{x_k} E_{N - |u_k|} (and likewise for V), which is the
    exact finite shadow of equal initial projections even when summand
    words have different lengths.
    """

    depth: int
    interior_level: int
    nonzero: bool
    orthogonal: bool
    initial_projections_match: bool
    blockwise_exact: bool
    range_condition: bool
    standard_form: bool
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all((
            self.nonzero,
            self.orthogonal,
            self.initial_projections_match,
            self.blockwise_exact,
            self.range_condition,
            self.standard_form,
        ))

    def lines(self) -> list[str]:
        def mark(ok):
            return "ok" if ok else "FAIL"

        out = [
            f"depth N = {self.depth}, interior level m = {self.interior_level}",
            f"U and V are nonzero                     {mark(self.nonzero)}",
            f"U*V == 0 (full truncated space)         {mark(self.orthogonal)}",
            f"U*U == V*V == sum P_x  (modulo E_m)     {mark(self.initial_projections_match)}",
            f"blockwise initial projections (exact)   {mark(self.blockwise_exact)}",
            f"UU* <= U*U and VV* <= V*V (modulo E_m)  {mark(self.range_condition)}",
            f"standard form of initial projections    {mark(self.standard_form)}",
        ]
        for msg in self.messages:
            out.append(f"  note: {msg}")
        out.append(EXACTNESS_NOTE)
        return out


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
