"""Test-only references, outside the package.

The CLI and the paper's examples need none of these; tests use them as
independent references.  For the trie: the basis built path by path
and the step from a path to its child along one edge.  For the integer
verification path: ``SparseOp`` projections and sums, the 0/1-diagonal
support, the partial-isometry report, the left-factor test of two paths,
and the bounded isometry search on ``SparseOp`` products.  For the
integer graph index: the in-edges of a vertex, the name-keyed graph
algorithms it replaced (components, witness search, reachability,
reverse distances, the summand walk and Johnson's simple-cycle search)
and the bounded first-return enumeration, which compare names and
``Edge`` tuples where the package compares ids.  The graph algorithms are kept word for word,
except that the components read ``set(g.vertices)`` where they read a
vertex set the graph no longer stores.  Run through pytest, which puts
``tests/`` on the import path.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import AbstractSet, Iterable, Optional, Sequence

from partlyfree.fock import (
    DEFAULT_BASIS_CAP,
    BasisCapError,
    FockBasis,
    SparseOp,
    build_basis,
    left_op,
    length_projection,
    right_op,
)
from partlyfree.graphs import (
    CycleWitness,
    DoubleCycleWitness,
    Edge,
    Graph,
    GraphError,
    PropertyReport,
    saturation_vertices,
    transpose,
)
from partlyfree.oracle import CYCLE_SEARCH_BUDGET, SearchHit, _candidate_operators
from partlyfree.pairs import Summand
from partlyfree.paths import Path, unit


def build_basis_by_parents(g: Graph, depth: int, cap: int = DEFAULT_BASIS_CAP) -> FockBasis:
    """The basis of :func:`fock.build_basis`, built path by path: each
    level past the first is the join of the heads of its parents'
    targets, and the parents' first children are the running sums of
    their out-degrees.  The cap is checked on each level's size before
    the level is joined; ``first_child`` is an ``array("q")``."""
    if depth < 0:
        raise GraphError("depth must be >= 0")
    if depth > cap:
        raise BasisCapError(
            f"depth {depth} is above the cap of {cap}; lower the depth or raise the cap"
        )

    def check(count: int) -> None:
        if count > cap:
            raise BasisCapError(
                f"truncation needs more than {cap} basis paths; lower the depth or raise the cap"
            )

    vertices, start = g.vertex_name, g.out_start
    heads = [array("i", g.out_head[start[v] : start[v + 1]]).tobytes() for v in range(len(vertices))]
    degree = [b - a for a, b in zip(start, start[1:])]
    check(len(vertices))
    target = array("i", range(len(vertices)))
    first_child = array("q", [0]) * len(vertices)
    offsets = [0, len(target)]
    if depth >= 1 and g.edges:
        check(len(target) + len(g.edges))
        target.extend(g.edge_dst)
        offsets.append(len(target))
        for _ in range(2, depth + 1):
            lo, hi = offsets[-2], offsets[-1]
            parents = target[lo:hi]
            children = list(accumulate(map(degree.__getitem__, parents), initial=hi))
            check(children.pop())
            first_child.fromlist(children)
            target.frombytes(b"".join(map(heads.__getitem__, parents)))
            if len(target) == hi:
                break
            offsets.append(len(target))
    offsets += [len(target)] * (depth + 2 - len(offsets))
    return FockBasis(g, depth, vertices, tuple(offsets), target, first_child)


def child(b: FockBasis, i: int, e: str) -> int:
    """Ordinal of path i followed by edge e; e must start at the range
    of path i, which must be shorter than the depth."""
    g = b.graph
    k = g.eid[e]
    return b.offsets[1] + k if i < b.offsets[1] else b.first_child[i] + g.edge_rank[k]


def diagonal_01_support(op: SparseOp) -> Optional[frozenset[int]]:
    """Support of a 0/1 diagonal matrix, or None if not of that form."""
    support = set()
    for (r, c), v in op.entries.items():
        if r != c or v != 1:
            return None
        support.add(r)
    return frozenset(support)


def in_edges(g: Graph, v: str) -> tuple[Edge, ...]:
    """The edges with range ``v``, in name order, off the in-edge index."""
    i = g.vid[v]
    return tuple(map(g.edge_by_id.__getitem__, g.in_edge[g.in_start[i] : g.in_start[i + 1]]))


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
    support = diagonal_01_support(k)
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


def reference_search(
    g: Graph,
    depth: Optional[int] = None,
    max_word_length: int = 4,
    max_summands: int = 2,
) -> list[SearchHit]:
    """The bounded search on ``SparseOp`` products of ``Fraction``s: the
    reference for the partial-map search of :func:`search_isometry_pairs`.

    Word-level prefilters discard pairs whose orthogonality already fails
    (a cross product L_a* L_b is nonzero iff a, b are left-factor
    comparable, and depth >= 2 * max_word_length preserves a witness
    entry of that) or whose diagonal initial supports provably differ;
    every surviving candidate is checked with matrices.
    """
    if depth is None:
        depth = 2 * max_word_length
    if depth < 2 * max_word_length:
        raise ValueError("depth must be at least twice the word bound")
    basis = build_basis(g, depth)
    em = length_projection(basis, depth - max_word_length)
    candidates = _candidate_operators(g, max_word_length, max_summands)

    # the search space is quadratic in the candidate count, so the word
    # divisibility relation is tabulated once over the path pool
    pool = sorted({s.word for cand in candidates for s in cand}, key=lambda p: (p.edges, p.source))
    pool_index = {p: i for i, p in enumerate(pool)}
    interferes: set[tuple[int, int]] = set()
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            if is_left_divisor(a, b) or is_left_divisor(b, a):
                interferes.add((i, j))
    cand_words = [tuple(pool_index[s.word] for s in cand) for cand in candidates]
    cand_sources = [frozenset(s.source for s in cand) for cand in candidates]
    divisor_free = [
        all((a, b) not in interferes for a, b in itertools.combinations(ws, 2))
        for ws in cand_words
    ]

    # everything but U*V is a property of one candidate; compute it once
    profiles: dict[int, Optional[tuple]] = {}

    def profile(i: int) -> Optional[tuple]:
        """(op, adjoint, compressed initial, initial support, range support),
        or None when the candidate is zero or not a partial isometry."""
        if i not in profiles:
            u = sum_left_ops(basis, candidates[i])
            if u.is_zero():
                profiles[i] = None
            else:
                ua = u.adjoint()
                uu = ua * u
                if uu * uu != uu:
                    profiles[i] = None
                else:
                    uu_m = em * uu * em
                    sup_init = diagonal_01_support(uu_m)
                    sup_range = diagonal_01_support(em * (u * ua) * em)
                    if sup_init is None or sup_range is None:
                        raise AssertionError("integer idempotent was not 0/1 diagonal")
                    profiles[i] = (u, ua, uu_m, sup_init, sup_range)
        return profiles[i]

    found: list[SearchHit] = []
    for i, cu in enumerate(candidates):
        wu = cand_words[i]
        u_sources = cand_sources[i]
        for j, cv in enumerate(candidates):
            if any((a, b) in interferes for a in wu for b in cand_words[j]):
                continue  # U*V != 0, exactly
            if divisor_free[i] and divisor_free[j]:
                if u_sources != cand_sources[j]:
                    continue  # 0/1 diagonal initial supports differ at the units
            pu, pv = profile(i), profile(j)
            if pu is None or pv is None:
                continue  # zero or not a partial isometry
            u, u_adj, uu_m, sup_uu, sup_ru = pu
            v, _, vv_m, sup_vv, sup_rv = pv
            if not sup_uu or uu_m != vv_m:
                continue  # compressed initial projections differ or carry no content
            if not (u_adj * v).is_zero():
                continue
            if sup_ru <= sup_uu and sup_rv <= sup_vv:
                found.append(SearchHit(cu, cv))
    return found


# ------------------------------------------------ string-keyed graph search


def _reached_from(g: Graph, sources: AbstractSet[str]) -> frozenset[str]:
    """Vertices reachable from some vertex of ``sources``, sources included."""
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for e in g.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return frozenset(seen)


def _reaches(g: Graph, targets: frozenset[str]) -> frozenset[str]:
    """Vertices from which some vertex of ``targets`` is reachable."""
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for e in in_edges(g, v):
            if e.src not in seen:
                seen.add(e.src)
                frontier.append(e.src)
    return frozenset(seen)


def strongly_connected_components(
    g: Graph, within: Optional[AbstractSet[str]] = None
) -> list[tuple[str, ...]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack.

    With ``within``, the components of the subgraph induced on that vertex set.
    """
    members = set(g.vertices) if within is None else within
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[tuple[str, ...]] = []
    counter = 0

    for root in g.vertices:
        if root in index or root not in members:
            continue
        work = [(root, iter(g.out_edges(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, edge_iter = work[-1]
            advanced = False
            for e in edge_iter:
                w = e.dst
                if w not in members:
                    continue
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.out_edges(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(comp))
    return components


def _component_shape(g: Graph, comp: tuple[str, ...]) -> str:
    """Classify an SCC as 'trivial', 'simple-cycle' or 'branching'.

    A strongly connected component admits a double-cycle exactly when it
    is neither a lone vertex without a loop nor a simple directed cycle
    (internal edge count equal to the vertex count with every internal
    out-degree 1).  In the branching case some vertex u has two internal
    out-edges.  From any vertex x of the component, a shortest path to u
    (it meets x only at its start), either of the two edges, and a
    shortest path back to x (it meets x only at its end) make two distinct
    first-return cycles at x of length <= 2|comp| - 1; so the two
    shortlex-least ones are that short too.
    """
    members = set(comp)
    internal = [e for v in comp for e in g.out_edges(v) if e.dst in members]
    if not internal:
        return "trivial"
    degrees = {v: 0 for v in comp}
    for e in internal:
        degrees[e.src] += 1
    if len(internal) == len(comp) and all(d == 1 for d in degrees.values()):
        return "simple-cycle"
    return "branching"


def _shortlex_cycles(g: Graph, comp: tuple[str, ...], base: str) -> list[tuple[str, ...]]:
    """The two shortlex-least first-return cycle words at ``base`` among
    those of length <= 2|comp| (fewer if there are fewer).

    ``ways[l]`` maps each vertex v of ``comp`` other than ``base`` to the
    number, capped at 2, of walks of length l from v to ``base`` inside
    ``comp`` that meet ``base`` only at their end, and leaves out the
    zeros; ``ways[0]`` is ``{base: 1}``, the empty walk.  A level is made
    from the one before by stepping back along the in-edges of the
    vertices it holds, and the walks that step back onto ``base`` are the
    first-return cycles of that length, counted in ``cycles[l]``.  Levels
    stop once two cycles are known.  Rank 0 or 1 among the cycles of one
    length is then unranked greedily, taking the out-edges of each vertex
    in name order: the cap cannot mislead this, because a capped count is
    never subtracted from a rank below 2.  A level costs the in-degrees of
    the vertices it holds, at most |E_comp|, so the search costs
    O(|comp| |E_comp|), and about |comp| + |E_comp| on a sparse component
    whose levels hold few vertices.
    """
    members = set(comp)
    ways: list[dict[str, int]] = [{base: 1}]
    cycles = [0]
    found = 0
    while found < 2 and len(cycles) <= 2 * len(comp):
        level: dict[str, int] = {}
        for v, count in ways[-1].items():
            for e in in_edges(g, v):
                if e.src in members:
                    level[e.src] = min(2, level.get(e.src, 0) + count)
        cycles.append(level.pop(base, 0))
        found += cycles[-1]
        ways.append(level)

    def unrank(length: int, k: int) -> tuple[str, ...]:
        at, word = base, []
        for left in range(length - 1, -1, -1):
            for e in g.out_edges(at):
                count = ways[left].get(e.dst, 0)
                if k < count:
                    break
                k -= count
            word.append(e.name)
            at = e.dst
        return tuple(word)

    words: list[tuple[str, ...]] = []
    for length, count in enumerate(cycles):
        words += [unrank(length, k) for k in range(min(count, 2 - len(words)))]
    return words


def double_cycle_witnesses(g: Graph) -> list[DoubleCycleWitness]:
    """One double-cycle witness per branching SCC, ordered by base vertex.

    Empty iff the graph has no double-cycle.  The base is the least vertex
    of its component (vertex names compared as plain strings), and the two
    cycle words are the shortlex-least first-return cycles there: shortest
    first, and among equal lengths lexicographic on the traversal-order
    word, edge names compared as plain strings.  Both have length
    < 2|comp| (see :func:`_component_shape`), and the search is polynomial:
    O(|V| + |E|) for the components plus O(|comp| |E_comp|) per branching
    component (:func:`_shortlex_cycles`).
    """
    witnesses = []
    for comp in strongly_connected_components(g):
        if _component_shape(g, comp) != "branching":
            continue
        base = min(comp)
        words = _shortlex_cycles(g, comp, base)
        if len(words) < 2:  # cannot happen for a branching SCC; guard anyway
            raise GraphError(f"component at {base!r} branches but yielded {len(words)} cycles")
        witnesses.append(
            DoubleCycleWitness(base, CycleWitness(base, words[0]), CycleWitness(base, words[1]))
        )
    return sorted(witnesses, key=lambda w: w.base)


def classify_finite(g: Graph) -> PropertyReport:
    """Decide all properties and algebra flags for a finite graph.

    Finite-graph shortcut: the edge set is finite, so a proper infinite
    path (no repeated edges) cannot exist and the aperiodic path property
    reduces to the double-cycle property, uniformly so for the uniform
    variants.  The hyper-reflexivity flag is the sufficient condition
    "the transpose graph has the uniform aperiodic path property" (the
    commutant then contains two isometries with orthogonal ranges).  It is
    read off ``g`` itself: a vertex reaches the bases in the transpose
    exactly when the bases reach it in ``g``.

    The reported witness is the one at the least base, with the two
    shortlex-least first-return cycles there (:func:`double_cycle_witnesses`).
    The whole decision is polynomial: one SCC pass, the witness search in
    O(|comp| |E_comp|) per branching component, so O(|V| |E|) at most,
    and two reachability passes.
    """
    witnesses = double_cycle_witnesses(g)
    witness = witnesses[0] if witnesses else None
    has_dc = bool(witnesses)
    # one witness per branching component, so reaching the bases is reaching
    # every branching vertex; the transpose has the same components with the
    # same shapes, so its uniform property reads off the same bases
    bases = frozenset(w.base for w in witnesses)
    uniform_dc = has_dc and len(_reaches(g, bases)) == len(g.vertices)
    transpose_uniform = has_dc and len(_reached_from(g, bases)) == len(g.vertices)
    warnings = ()
    if not g.vertices:
        warnings = (
            "empty vertex set: uniform properties are vacuously true but reported false",
        )
    return PropertyReport(
        has_double_cycle=has_dc,
        double_cycle_witness=witness,
        uniform_double_cycle=uniform_dc,
        aperiodic_path=has_dc,
        aperiodic_witness=witness,
        uniform_aperiodic_path=uniform_dc,
        lg_partly_free=has_dc,
        lg_unitally_partly_free=uniform_dc,
        ag_partly_free=has_dc,
        ag_unitally_partly_free=bool(g.vertices) and uniform_dc,
        hyperreflexive_sufficient=transpose_uniform,
        vertex_count_finite=True,
        warnings=warnings,
    )


def _reverse_distances(g: Graph, base: str) -> dict[str, int]:
    """The length of a shortest path to ``base`` from every vertex that
    reaches it: one breadth-first search along in-edges."""
    dist = {base: 0}
    frontier = [base]
    while frontier:
        level = []
        for v in frontier:
            for e in in_edges(g, v):
                if e.src not in dist:
                    dist[e.src] = dist[v] + 1
                    level.append(e.src)
        frontier = level
    return dist


def _part_summands(
    g: Graph, witness: DoubleCycleWitness, members: list[str], dist: dict[str, int]
) -> tuple[list[Summand], list[Summand]]:
    """u_k = w1^(2k-1) w2 r_k and v_k = w1^(2k) w2 r_k for the k-th of
    ``members`` (k from 1), with ``dist`` the distances to the witness base.

    r_k takes, at every step, the least-named out-edge that comes one step
    closer to the base: the least shortest path in traversal order.  It
    walks real out-edges down to the base, and w1 and w2 are cycles at the
    base, so each word composes and is built as a :class:`Path` directly.
    """
    base, w1, w2 = witness.base, witness.first.word, witness.second.word
    us, vs = [], []
    for k, xk in enumerate(members, start=1):
        r, at = [], xk
        while dist[at]:
            e = next(e for e in g.out_edges(at) if dist.get(e.dst) == dist[at] - 1)
            r.append(e.name)
            at = e.dst
        # traversal order: connecting path first, then w2, then the w1 blocks
        head = tuple(r) + w2
        us.append(Summand(xk, Path(xk, base, head + w1 * (2 * k - 1))))
        vs.append(Summand(xk, Path(xk, base, head + w1 * (2 * k))))
    return us, vs


def first_return_cycles(
    g: Graph, base: str, max_length: int, limit: Optional[int] = None
) -> list[tuple[str, ...]]:
    """First-return cycle words at ``base``, in lexicographic order.

    Only words of length <= ``max_length`` are produced; with ``limit``
    the search stops after that many cycles.  Edge names are compared as
    plain strings.  This bounded depth-first enumeration is exponential in
    ``max_length``; it is the brute-force reference for the polynomial
    shortlex search of :func:`graphs.double_cycle_witnesses`.
    """
    if not g.has_vertex(base):
        raise GraphError(f"unknown vertex {base!r}")
    reach_base = saturation_vertices(transpose(g), base)
    results: list[tuple[str, ...]] = []
    # iterative depth-first search in sorted edge order; the explicit
    # stack keeps long cycles from exhausting the interpreter stack
    word: list[str] = []
    stack = [iter(g.out_edges(base))]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if word:
                word.pop()
            continue
        if e.dst == base:
            results.append(tuple(word) + (e.name,))
            if limit is not None and len(results) >= limit:
                return results
        elif len(word) + 1 < max_length and e.dst in reach_base:
            word.append(e.name)
            stack.append(iter(g.out_edges(e.dst)))
    return results


def simple_cycles(g: Graph) -> list[tuple[str, ...]]:
    """All vertex-simple directed cycles, as edge-name tuples.

    Johnson's algorithm ("Finding all the elementary circuits of a
    directed graph", SIAM J. Comput. 1975), with explicit stacks.  Take a
    strongly connected component and its least vertex s, list the cycles
    through s inside it, remove s and split the rest into components
    again.  So each cycle is found once, anchored at its least
    vertex, which makes the listing canonical without rotation
    bookkeeping; loops and parallel edges yield distinct cycles.  The
    components (:func:`graphs.strongly_connected_components`) only prune
    the search: the answer comes from the cycles, not from the component
    shapes that the decision reads.  A vertex stays blocked until a cycle
    is found through it or through a vertex that waits on it, so a dead
    end is walked at most once between two cycles, and the search takes
    O((|V| + |E|)(c + 1)) steps for c cycles.  More than
    ``CYCLE_SEARCH_BUDGET`` steps (edges followed, and edges copied out
    with the cycles) raise :class:`GraphError`.
    """
    cycles: list[tuple[str, ...]] = []
    steps = 0
    work = strongly_connected_components(g)
    while work:
        comp = work.pop()
        s = min(comp)
        members = set(comp)
        out = {v: [e for e in g.out_edges(v) if e.dst in members] for v in comp}
        if len(comp) == 1 and not out[s]:
            continue
        blocked = {s}
        waiting: dict[str, set[str]] = {v: set() for v in comp}
        heads, word, closed = [s], [], [False]
        stack = [iter(out[s])]
        while stack:
            for e in stack[-1]:
                steps += 1
                if e.dst == s:
                    cycles.append(tuple(word) + (e.name,))
                    steps += len(word)
                    closed[-1] = True
                elif e.dst not in blocked:
                    blocked.add(e.dst)
                    heads.append(e.dst)
                    word.append(e.name)
                    closed.append(False)
                    stack.append(iter(out[e.dst]))
                    break
            else:
                # every out-edge of v is done: unblock v if a cycle ran
                # through it, else let it wait on its successors
                stack.pop()
                v = heads.pop()
                if word:
                    word.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock.extend(waiting[u])
                            waiting[u].clear()
                else:
                    for e in out[v]:
                        waiting[e.dst].add(v)
            if steps > CYCLE_SEARCH_BUDGET:
                raise GraphError(
                    f"simple-cycle search exceeded its budget of {CYCLE_SEARCH_BUDGET} steps "
                    f"after {len(cycles)} cycles"
                )
        work += strongly_connected_components(g, members - {s})
    return cycles


def _cycle_vertices(g: Graph, cycle: tuple[str, ...]) -> frozenset[str]:
    return frozenset(g.edge(name).src for name in cycle)


def has_double_cycle_bruteforce(g: Graph) -> bool:
    """Two distinct simple cycles through a common vertex?"""
    seen: set[str] = set()
    for cycle in simple_cycles(g):
        vertices = _cycle_vertices(g, cycle)
        if vertices & seen:
            return True
        seen |= vertices
    return False
