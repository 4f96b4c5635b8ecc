"""Construction and exact verification of the witnessing isometry pairs.

A graph property becomes an operator fact through an explicit pair
(U, V) of partial isometries with orthogonal ranges and equal initial
projections: U = sum_k L_{u_k}, V = sum_k L_{v_k}, the summand words
indexed by pairwise distinct source vertices.

Three constructions are provided, chosen by mode in :func:`construct_pair`:

* double-cycle: from the double-cycle witness at the least base x, with
  distinct first-return cycles w1 != w2, the words u_k = w1^(2k-1) w2 r_k
  and v_k = w1^(2k) w2 r_k, where r_k is a shortest path from the k-th
  vertex that reaches x down to x.  The unital pair splits the vertices
  into parts, one per witness base, and gives each part these words.
* infinite-path: a finite window of the tail construction for the
  built-in countable families (u_k, v_k run from the k-th window vertex
  to the (2k)-th and (2k+1)-th).
* quiver: the single-summand pair (L_{w1}, L_{w2}), which keeps the
  initial projection a finite sum of vertex projections as the norm
  closed algebra requires.

Why no double-cycle word is a left factor of another, which is what
makes every cross product L_a* L_b vanish (a left factor of b is a word
that b ends with, in traversal order, at the same range):

1. A closed path at x factors uniquely into first-return cycles, since
   the edges with source x are exactly the first edges of the cycles.
2. r_k is a shortest path to x, so it meets x only at its end and no
   edge of r_k has source x.  The edges of u_k or v_k with source x are
   therefore exactly the first edges of its cycle blocks.
3. Say a = w1^i w2 r_j ends b = w1^l w2 r_k.  The first edge of a's block
   w2 has source x, so by 2 it starts a block of b, and by 1 the block
   sequence (w2, w1 i times) ends (w2, w1 l times).  As w1 != w2 this
   forces i == l: equal cycle sequences, equal exponents.  Inside a part
   the exponent 2k - 1 or 2k names the summand, and its parity separates
   u from v, so a and b are one summand.
4. Parts with different bases end at different vertices, and a left
   factor shares the range of the word it divides.

:func:`_formally_orthogonal` is still run by every constructor, as a
guard that raises and names the two words if this ever fails.

Everything is verified a posteriori on a truncated Fock space, exactly,
with integers and sets on the pairs' 0/1 partial maps, held as one run
of strictly ascending column and row ordinals per summand (the proof of
the order is in :func:`fock.left_runs`); no identity is claimed past the
interior level at which truncation defects are expected.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

from .fock import FockBasis, Run, left_runs
from .graphs import DoubleCycleWitness, Graph, GraphError, double_cycle_witnesses
from .paths import Path, literal, path_from_literal, word

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

    def iter_json(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json(), indent=2, sort_keys=True)``
        in pieces, one per list and one per key between them.  The schema
        is fixed, so the layout is written here and only the string leaves
        are encoded, by the C encoder that ``json.dumps`` uses for a lone
        string; the pure-Python encoder that ``indent`` selects is never
        run."""
        q = encode_basestring_ascii
        yield '{\n  "initial_set": '
        yield _json_array(list(map(q, sorted(self.initial_set))))
        yield ',\n  "mode": ' + q(self.mode)
        for key, side in (("summands_u", self.u_summands), ("summands_v", self.v_summands)):
            yield f',\n  "{key}": '
            yield _json_array([
                '{\n      "source": %s,\n      "word": %s\n    }' % (q(s.source), q(literal(s.word)))
                for s in side
            ])
        yield "\n}"


def _json_array(items: list[str]) -> str:
    """A list of encoded ``items`` laid out as ``json.dumps(indent=2)`` lays
    out the value of a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


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


def _reverse_distances(g: Graph, base: int) -> dict[int, int]:
    """The length of a shortest path to the vertex id ``base`` from every
    vertex id that reaches it: one breadth-first search along in-edges."""
    in_start, tail = g.in_start, g.in_tail
    dist = {base: 0}
    frontier = [base]
    d = 0
    while frontier:
        d += 1
        level = []
        for v in frontier:
            for u in tail[in_start[v] : in_start[v + 1]]:
                if u not in dist:
                    dist[u] = d
                    level.append(u)
        frontier = level
    return dist


def _part_summands(
    g: Graph, witness: DoubleCycleWitness, members: list[int], dist: dict[int, int]
) -> tuple[list[Summand], list[Summand]]:
    """u_k = w1^(2k-1) w2 r_k and v_k = w1^(2k) w2 r_k for the k-th of the
    vertex ids ``members`` (k from 1), with ``dist`` the distances to the
    witness base.

    r_k takes, at every step, the least-named out-edge, which is the first
    by id, that comes one step closer to the base: the least shortest path
    in traversal order.  So r of a vertex is its first edge followed by r
    of the vertex that edge reaches, and each vertex's first edge is found
    once, whichever members walk through it.  r walks real out-edges down
    to the base, and w1 and w2 are cycles at the base, so each word
    composes and is built as a :class:`Path` directly.
    """
    base, w1, w2 = witness.base, witness.first.word, witness.second.word
    start, out_edge, head, by_id = g.out_start, g.out_edge, g.out_head, g.edge_by_id
    # the r of each vertex id walked so far, ending with w2
    prefixes = {g.vid[base]: w2}
    us, vs = [], []
    for k, xk in enumerate(members, start=1):
        walk, at = [], xk
        while at not in prefixes:
            p = start[at]
            while dist.get(head[p]) != dist[at] - 1:
                p += 1
            walk.append((at, by_id[out_edge[p]].name))
            at = head[p]
        for v, name in reversed(walk):
            prefixes[v] = (name,) + prefixes[at]
            at = v
        # traversal order: connecting path first, then w2, then the w1 blocks
        x = g.vertex_name[xk]
        prefix = prefixes[xk]
        us.append(Summand(x, Path(x, base, prefix + w1 * (2 * k - 1))))
        vs.append(Summand(x, Path(x, base, prefix + w1 * (2 * k))))
    return us, vs


def _formally_orthogonal(pair: FormalIsometryPair) -> None:
    """Raise unless no summand word is a left factor of another, that is
    unless every cross product L_a* L_b vanishes.

    a is a left factor of b iff the key ``(range,) + reversed edges`` of a
    is a prefix of that of b.  Among sorted keys, a key that is a prefix of
    another is a prefix of the next one, so comparing neighbours suffices.
    The keys are joined by NUL, which no name holds and which sorts below
    every other character, so the strings sort as the tuples would and a
    key is a prefix of another iff its string is, up to a NUL; string
    comparison does not step through a long common prefix name by name.
    """
    words = [s.word for s in pair.u_summands + pair.v_summands]
    keys = sorted(("\0".join((p.target,) + p.edges[::-1]) + "\0", i) for i, p in enumerate(words))
    for (a, i), (b, j) in zip(keys, keys[1:]):
        if b.startswith(a):
            raise PairConstructionError(
                f"summand words {literal(words[i])} and {literal(words[j])} interfere: "
                "the first is a left factor of the second"
            )


def _first_witness(g: Graph) -> DoubleCycleWitness:
    witnesses = double_cycle_witnesses(g)
    if not witnesses:
        raise PairConstructionError("graph has no double-cycle")
    return witnesses[0]


def construct_pair_double_cycle(g: Graph) -> FormalIsometryPair:
    """Pair witnessing partial freeness from the double-cycle at the least
    base x.

    The summands are indexed by every vertex that reaches x, in name order,
    and carry the words of :func:`_part_summands`; the module docstring
    proves that no word is a left factor of another.
    """
    witness = _first_witness(g)
    dist = _reverse_distances(g, g.vid[witness.base])
    members = sorted(dist)
    us, vs = _part_summands(g, witness, members, dist)
    pair = FormalIsometryPair("double-cycle", tuple(us), tuple(vs), frozenset(s.source for s in us))
    _formally_orthogonal(pair)
    return pair


def construct_pair_unital(g: Graph) -> FormalIsometryPair:
    """Unital pair for a finite graph with the uniform double-cycle property.

    Taking the witnesses in base order, the part of a base is the vertices
    that reach it and no earlier base, so each vertex joins the least base
    it reaches.  Each part contributes summands by the double-cycle recipe
    at its base, so the initial set is the whole vertex set and the
    materialized operators are isometries up to the interior level.
    """
    if not g.vertices:
        raise PairConstructionError("cannot build a unital pair over the empty graph")
    us: list[Summand] = []
    vs: list[Summand] = []
    assigned: set[int] = set()
    for witness in double_cycle_witnesses(g):
        dist = _reverse_distances(g, g.vid[witness.base])
        members = sorted(dist.keys() - assigned)
        assigned.update(members)
        part_u, part_v = _part_summands(g, witness, members, dist)
        us += part_u
        vs += part_v
    for v in g.roots:
        if v not in assigned:
            raise PairConstructionError(
                f"the saturation of vertex {g.vertex_name[v]!r} contains no double-cycle; "
                "the graph is not uniformly aperiodic"
            )
    pair = FormalIsometryPair("unital", tuple(us), tuple(vs), frozenset(g.vertices))
    _formally_orthogonal(pair)
    return pair


def quiver_pair(g: Graph) -> FormalIsometryPair:
    """The norm-closed witness (L_{w1}, L_{w2}) from the double-cycle at the
    least base; distinct first-return cycles are never left factors of one
    another."""
    witness = _first_witness(g)
    u = Summand(witness.base, word(g, witness.first.word))
    v = Summand(witness.base, word(g, witness.second.word))
    pair = FormalIsometryPair("quiver", (u,), (v,), frozenset({witness.base}))
    _formally_orthogonal(pair)
    return pair


def construct_pair_infinite_path(g: Graph) -> FormalIsometryPair:
    """Finite window of the tail construction on the window ``g`` of a
    built-in family, which ``g.family`` names as ``(family, K)``.

    The summand list is the part of the infinite sum whose words stay
    inside the window.
    """
    from . import catalog  # deferred: catalog builds on this module

    if g.family is None:
        raise PairConstructionError(
            "infinite-path pairs exist only for catalog families with a certificate"
        )
    name, window = g.family
    entry = catalog.builtin(name)
    if entry.certificate is None or entry.window_pair is None:
        raise PairConstructionError(f"family {entry.name!r} carries no infinite-path certificate")
    triples = entry.window_pair(window)
    if not triples:
        raise PairConstructionError(
            f"window {window} is too small for the pair construction of {entry.name!r}"
        )
    us = tuple(Summand(src, word(g, u_edges)) for src, u_edges, _ in triples)
    vs = tuple(Summand(src, word(g, v_edges)) for src, _, v_edges in triples)
    pair = FormalIsometryPair("infinite-path", us, vs, frozenset(s.source for s in us))
    _formally_orthogonal(pair)
    return pair


def construct_pair(g: Graph, mode: str) -> FormalIsometryPair:
    """The pair of ``mode`` (one of :data:`MODES`) on ``g``.  The window of
    a built-in family takes only the infinite-path mode."""
    if mode == "infinite-path":
        return construct_pair_infinite_path(g)
    if g.family is not None:
        raise PairConstructionError(
            f"catalog family {g.family[0]!r} is verified through its "
            "windowed tail construction; use --mode infinite-path"
        )
    if mode == "double-cycle":
        return construct_pair_double_cycle(g)
    if mode == "unital":
        return construct_pair_unital(g)
    if mode == "quiver":
        return quiver_pair(g)
    raise PairConstructionError(f"unknown mode {mode!r}")


WINDOW = 1 << 13  # ordinals per window of verify_pair


@dataclass(frozen=True)
class MaterializedPair:
    """U and V on a truncated Fock space, each as one run ``(cols, rows)``
    of basis ordinals per summand, in summand order (:func:`fock.left_runs`:
    two strictly ascending ``array("i")``, the unit column first), with the
    interior level and per-summand levels.  The runs of one operator have
    disjoint columns, and their union is its 0/1 partial map col -> row;
    ``SparseOp`` sums of ``left_op`` are the test reference."""

    u: tuple[Run, ...]
    v: tuple[Run, ...]
    level: int            # depth minus the longest summand word; < 0 means empty interior
    u_levels: dict[str, int]
    v_levels: dict[str, int]
    pair: FormalIsometryPair
    basis: FockBasis


def materialize(pair: FormalIsometryPair, b: FockBasis) -> MaterializedPair:
    """Build the runs of the summands of U and V.  The words of U and V at
    one source go to :func:`fock.left_runs` together, which scans their
    columns once and steps along their common traversal prefix once; in
    the constructed pairs v_k = u_k w1, so the run of v_k costs |w1|
    steps.  The columns of one operator are disjoint because its sources
    are.

    A word longer than the depth materializes as the empty run.  On the
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
    summands = pair.u_summands + pair.v_summands
    words: dict[str, list[Path]] = {}
    for s in summands:
        words.setdefault(s.source, []).append(s.word)
    # each source's runs come back in the order of its words, so in summand order
    runs = {x: iter(left_runs(b, ws)) for x, ws in words.items()}
    ordered = tuple(next(runs[s.source]) for s in summands)
    nu = len(pair.u_summands)
    return MaterializedPair(
        ordered[:nu], ordered[nu:], b.depth - maxlen, u_levels, v_levels, pair, b
    )


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

    U and V are the partial maps f, g of ``mat``, the unions of their
    runs, and each identity is decided exactly with integers and sets:

    * U*U is [f(i) == f(j)], a projection iff f repeats no row;
    * U*V == 0 iff f and g share no row;
    * UU* is the diagonal of the fibre sizes of f;
    * E_m keeps the ordinals below ``upto(m)``, and both arrays of a run
      are strictly ascending (:func:`fock.left_runs`), so the columns of a
      run in E_m are a prefix, found by bisection, and their rows the
      same prefix of its rows;
    * the columns of one operator are disjoint, as its sources are
      distinct and a run's columns end at its source, so dom f in E_m has
      as many members as those prefixes have entries;
    * the columns of a run share the range vertex of its source, so the
      longest member of dom f at that vertex is the last column of the
      run, since ordinals grow with length.

    The rest is one sweep over the ordinals in windows of ``WINDOW``,
    ``upto(m)`` being a window bound, each run cut into slices by
    bisection, so no set outgrows a window.  Each identity relates equal
    ordinals, which fall in one window:

    * f repeats a row (of two runs: a run repeats none), or shares one
      with g, iff some window does;
    * E_m f*f E_m is a 0/1 diagonal iff f repeats no row of a column in
      E_m, and E_m ff* E_m iff it repeats no row in a window below
      ``upto(m)``;
    * range f in E_m lies in dom f in E_m iff in each window below
      ``upto(m)`` every row of f is a column of f.

    ``SparseOp`` products and the ``partial_isometry_report`` of the
    tests are the reference.
    """
    b, level, initial_set = mat.basis, mat.level, mat.pair.initial_set
    unknown = initial_set - b.vertex_id.keys()
    if unknown:
        raise GraphError(f"unknown vertex {min(unknown)!r}")
    interior = b.upto(level)
    # class sizes: sizes[k][x] is the number of paths of length <= k with
    # range vertex id x; the paths of length k into y are the paths of
    # length k - 1 followed by an edge into y, and once a level is empty
    # so are all longer ones
    ends = list(zip(b.graph.edge_src, b.graph.edge_dst))
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

    def ids(levels: dict[str, int]) -> dict[int, int]:
        return {b.vertex_id[x]: m for x, m in levels.items()}

    def is_block(count: int, top: dict[int, int], levels: dict[int, int]) -> bool:
        """Are ``count`` paths, whose longest one at each range vertex id is
        ``top`` there, exactly the paths p with len(p) <= levels[target(p)]?"""
        size = sum(sizes[min(m, len(sizes) - 1)][x] for x, m in levels.items() if m >= 0)
        return count == size and all(i < b.upto(levels.get(x, -1)) for x, i in top.items())

    def part(run: Sequence[int], lo: int, hi: int) -> Sequence[int]:
        """The members of the ascending ``run`` in [lo, hi)."""
        return run[bisect_left(run, lo) : bisect_left(run, hi)]

    def distinct(parts: list[Sequence[int]]) -> bool:
        """Do the ascending ``parts`` share no member?  A set holds all but the longest."""
        parts = sorted(parts, key=len)
        seen = set(chain.from_iterable(parts[:-1]))
        return len(seen) == sum(map(len, parts[:-1])) and seen.isdisjoint(parts[-1] if parts else ())

    # per operator h: injective, E h*h E and E hh* E 0/1 diagonals, range in domain in E
    names = ("injective", "diagonal", "ranges", "contained")
    flags_u, flags_v = dict.fromkeys(names, True), dict.fromkeys(names, True)
    sides = [(mat.u, flags_u), (mat.v, flags_v)]
    orthogonal = True
    bounds = [*range(0, interior, WINDOW), *range(interior, b.dim, WINDOW), b.dim]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = lo < interior
        rows_in = [[p for _, rows in runs if (p := part(rows, lo, hi))] for runs, _ in sides]
        if not inside and distinct(rows_in[0] + rows_in[1]):
            continue  # no row of f or g repeats here, and none is shared
        images = [set(chain.from_iterable(parts)) for parts in rows_in]
        orthogonal = orthogonal and images[0].isdisjoint(images[1])
        for image, parts, (runs, flags) in zip(images, rows_in, sides):
            if len(image) < sum(map(len, parts)):
                flags["injective"] = False
                flags["ranges"] = flags["ranges"] and not inside
                flags["diagonal"] = flags["diagonal"] and distinct([
                    r[bisect_left(r, lo) : min(bisect_left(r, hi), bisect_left(c, interior))]
                    for c, r in runs
                ])
            if inside:
                image.difference_update(chain.from_iterable(part(cols, lo, hi) for cols, _ in runs))
                flags["contained"] = flags["contained"] and not image

    def judge(runs: tuple[Run, ...], flags: dict[str, bool], levels: dict[str, int]):
        """For the map h of ``runs``: its number of columns, and whether h*h is
        blockwise exact at ``levels``, E h*h E is sum P_x E_m over the initial
        set, and h*h has the standard form over the sources that fit."""
        count = sum(len(cols) for cols, _ in runs)
        # the unit's ordinal is its vertex id, and it heads every non-empty run
        top = {cols[0]: cols[-1] for cols, _ in runs if cols}
        cuts = [bisect_left(cols, interior) for cols, _ in runs]
        compressed = {cols[0]: cols[k - 1] for (cols, _), k in zip(runs, cuts) if k}
        standard = flags["injective"] and is_block(count, top, {x: b.length(i) for x, i in top.items()})
        return (
            count,
            flags["injective"] and is_block(count, top, ids(levels)),
            flags["diagonal"] and is_block(sum(cuts), compressed, ids(dict.fromkeys(initial_set, level))),
            standard and {b.vertices[x] for x in top} == {x for x, m in levels.items() if m >= 0},
        )

    count_u, *checks_u = judge(mat.u, flags_u, mat.u_levels)
    count_v, *checks_v = judge(mat.v, flags_v, mat.v_levels)
    blockwise, initial_match, standard_form = map(all, zip(checks_u, checks_v))
    messages: list[str] = []
    nonzero = bool(count_u) and bool(count_v)
    if not nonzero:
        messages.append("an operator materialized to zero (depth far below the word lengths?)")
    if not orthogonal:
        messages.append("U*V has a nonzero entry")
    if not initial_match:
        messages.append("compressed initial projections disagree")
    if not blockwise:
        messages.append("blockwise initial projection identity fails")
    # on a family window the right-hand side is all of E_m, which holds every range
    family = b.graph.family is not None
    diagonal = flags_u["diagonal"] and flags_v["diagonal"]
    if not (flags_u["ranges"] and flags_v["ranges"] and (family or diagonal)):
        range_condition = False
        messages.append("a range or initial projection is not a 0/1 diagonal")
    else:
        range_condition = family or flags_u["contained"] and flags_v["contained"]
        if not range_condition:
            messages.append("a range projection escapes the initial projection")
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
