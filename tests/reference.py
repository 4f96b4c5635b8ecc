"""Test-only references and helpers, outside the package.

The CLI and the paper's examples need none of these; tests use them as
independent references.  Run through pytest, which puts ``tests/`` on the
import path.

* The trie: the basis built path by path, the step from a path to its
  child along one edge, and :func:`paths.enumerate_paths`, whose sort is
  the oracle for the basis order.
* Helpers that left the package because only tests called them:
  ``length_projection`` and ``vertex_projection`` (formerly in ``fock``),
  ``compose`` (``paths``), ``render_graph``, ``saturation_vertices`` and
  the name-keyed components ``components`` (formerly
  ``graphs.strongly_connected_components``), ``to_json`` (formerly
  ``FormalIsometryPair.to_json``), and the matrix-pattern checks
  ``cycle_residue_conforms``, ``verify_cycle_pattern`` and
  ``verify_structure_examples`` (formerly in ``catalog``).
* The integer verification path: ``SparseOp`` projections and sums, the
  0/1-diagonal support, the partial-isometry report, the left-factor
  test of two paths, and the bounded isometry search on ``SparseOp``
  products.
* The integer graph index: the in-edges of a vertex, the name-keyed
  graph algorithms it replaced (components, witness search,
  reachability, reverse distances, the summand walk and Johnson's
  simple-cycle search) and the bounded first-return enumeration, which
  compare names and ``Edge`` tuples where the package compares ids.  They
  are kept word for word, except that the components read
  ``set(g.vertices)`` where they read a vertex set the graph no longer
  stores.
* The dict-based verification path (``left_map``, ``MaterializedPair``,
  ``materialize``, ``verify_pair``, ``verify_materialized``), kept word
  for word as the reference for the runs of :mod:`partlyfree.fock` and
  :mod:`partlyfree.pairs`: :func:`verify_materialized` must return the
  same report as ``partlyfree.pairs.verify_materialized``, messages
  included, or raise the same error.
* The rational operator path of the package before it was built from
  runs and the trie (``SparseOp``, ``basis_hash``, ``left_op``,
  ``right_op``, ``fourier_coefficients``, ``reconstruct``,
  ``export_sparse``, ``_parse_op_expression``), kept word for word as the
  reference that the tests compare the package against; its P_x is
  ``ref_vertex_projection``, the reference ``left_op`` of a unit, while
  ``vertex_projection`` above builds the package's.  ``SparseOp``
  here is the package's class with its earlier ``+`` and scalar ``*``,
  which add and multiply every entry and filter zeros in the
  constructor; ``basis_hash`` is the earlier ``FockBasis.basis_hash`` as
  a function of the basis, and it and ``fourier_coefficients`` read the
  paths from :func:`paths.enumerate_paths`.

The helpers of this module that build package operators name them
``fock.SparseOp``, ``fock.left_op`` and ``fock.left_map``, since
``SparseOp``, ``left_op``, ``right_op`` and ``left_map`` here are the
references.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from partlyfree import fock
from partlyfree.catalog import DEFAULT_SEED, EntryCheck, builtin
from partlyfree.fock import (
    DEFAULT_BASIS_CAP,
    BasisCapError,
    FockBasis,
    _check_path,
    build_basis,
    fourier_coefficients as package_fourier_coefficients,
)
from partlyfree.graphs import (
    CycleWitness,
    DoubleCycleWitness,
    Edge,
    Graph,
    GraphError,
    PropertyReport,
    _components,
    _reached_from as reached_ids,
    transpose,
)
from partlyfree.oracle import CYCLE_SEARCH_BUDGET, SearchHit, _candidate_operators
from partlyfree.pairs import (
    FormalIsometryPair,
    PairConstructionError,
    Summand,
    VerificationReport,
)
from partlyfree.paths import Path, enumerate_paths, literal, path_from_literal, unit, word


def build_basis_by_parents(g: Graph, depth: int, cap: int = DEFAULT_BASIS_CAP) -> FockBasis:
    """The basis of :func:`fock.build_basis`, built path by path: each
    level past the first is the join of the heads of its parents'
    targets, and the parents' first children are the running sums of
    their out-degrees.  The cap is checked on each level's size before
    the level is joined; ``first_child`` is an ``array("q")``."""
    if depth < 0:
        raise GraphError("depth must be >= 0")

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
    return FockBasis(g, depth, vertices, tuple(offsets), target, first_child)


def child(b: FockBasis, i: int, e: str) -> int:
    """Ordinal of path i followed by edge e; e must start at the range
    of path i, which must be shorter than the depth."""
    g = b.graph
    k = g.eid[e]
    return b.offsets[1] + k if i < b.offsets[1] else b.first_child[i] + g.edge_rank[k]


def diagonal_01_support(op: fock.SparseOp) -> Optional[frozenset[int]]:
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


def source_projection(b: FockBasis, x: str) -> fock.SparseOp:
    """Q_x: diagonal projection onto basis paths with source x."""
    return fock.right_op(b, unit(b.graph, x))


def sum_vertex_projection(b: FockBasis, vertices: Iterable[str]) -> fock.SparseOp:
    vs = set(vertices)
    for x in vs:
        if not b.graph.has_vertex(x):
            raise GraphError(f"unknown vertex {x!r}")
    ids = {b.vertex_id[x] for x in vs}
    one = Fraction(1)
    return fock.SparseOp(b, {(i, i): one for i, t in enumerate(b.target) if t in ids})


def interior_projection(b: FockBasis, degree: int) -> fock.SparseOp:
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
    initial_projection: fock.SparseOp
    vertex_set: Optional[frozenset[str]]
    level: Optional[int]
    per_vertex_levels: Optional[dict[str, int]]


def partial_isometry_report(v: fock.SparseOp) -> PartialIsometryReport:
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
    paths = enumerate_paths(b.graph, b.depth)
    by_vertex: dict[str, list[int]] = {}
    for i in support:
        by_vertex.setdefault(paths[i].target, []).append(i)
    class_counts: dict[str, dict[int, int]] = {}
    for p in paths:
        if p.target in by_vertex:
            class_counts.setdefault(p.target, {})
            class_counts[p.target][len(p)] = class_counts[p.target].get(len(p), 0) + 1
    levels: dict[str, int] = {}
    for x, ordinals in by_vertex.items():
        m = max(len(paths[i]) for i in ordinals)
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


def sum_left_ops(b: FockBasis, summands: Sequence[Summand]) -> fock.SparseOp:
    """The truncated matrix of sum_k L_{w_k} over the summand words, the
    ``SparseOp`` reference for the partial maps of ``pairs.materialize``."""
    out = fock.SparseOp.zero(b)
    for s in summands:
        out = out + fock.left_op(b, s.word)
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


# ------------------------------------------------ helpers moved out of the package


def length_projection(b: FockBasis, max_length: int) -> fock.SparseOp:
    """E_m: diagonal projection onto paths of length <= m (zero for m < 0)."""
    one = Fraction(1)
    return fock.SparseOp._nonzero(b, {(i, i): one for i in range(b.upto(max_length))})


def vertex_projection(b: FockBasis, x: str) -> fock.SparseOp:
    """P_x: diagonal projection onto basis paths with range x."""
    return fock.left_op(b, unit(b.graph, x))


def compose(p: Path, q: Path) -> Optional[Path]:
    """The product ``pq`` (q traversed first), or None when undefined.

    Composition in a semigroupoid is a partial operation; the undefined
    outcome is a value rather than an exception because the operator
    algebra downstream maps it to 0.
    """
    if q.target != p.source:
        return None
    if q.is_unit:
        return p
    if p.is_unit:
        return q
    return Path(q.source, p.target, q.edges + p.edges)


def render_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (modulo comments and blank lines)."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.src} {e.dst}" for e in g.edges]
    return "\n".join(lines) + "\n"


def saturation_vertices(g: Graph, x: str) -> frozenset[str]:
    """Vertices reachable from ``x`` by directed paths, including ``x``.

    This is the vertex part of the saturation of ``x`` (the full
    saturation also contains the paths themselves).
    """
    if not g.has_vertex(x):
        raise GraphError(f"unknown vertex {x!r}")
    return frozenset(map(g.vertex_name.__getitem__, reached_ids(g, (g.vid[x],))))


def components(
    g: Graph, within: Optional[AbstractSet[str]] = None
) -> list[tuple[str, ...]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack
    (:func:`graphs._components`), with the searches started in vertex
    declaration order.

    With ``within``, the components of the subgraph induced on that vertex set.
    """
    num = None
    if within is not None:
        num = [len(g.vertex_name) + 1] * len(g.vertex_name)
        for v in within:
            if v in g.vid:
                num[g.vid[v]] = 0
    names = g.vertex_name.__getitem__
    comps = g.components if num is None else _components(g, g.roots, num)
    return [tuple(map(names, comp)) for comp in comps]


def to_json(pair: FormalIsometryPair) -> dict:
    """The pair as the JSON object that ``FormalIsometryPair.iter_json``
    writes and :func:`pairs.pair_from_json` reads."""
    return {
        "mode": pair.mode,
        "summands_u": [{"source": s.source, "word": literal(s.word)} for s in pair.u_summands],
        "summands_v": [{"source": s.source, "word": literal(s.word)} for s in pair.v_summands],
        "initial_set": sorted(pair.initial_set),
    }


def cycle_residue_conforms(n: int, table: dict) -> bool:
    """Check the matrix-function pattern of the cycle algebra: a_w may be
    nonzero only when |w| == (range index - source index) mod n.

    Vertices of ``cycle(n)`` are named x1..xn; the support of any element
    of the algebra must respect the grading because every path winds
    monotonically around the cycle.
    """
    for path, coeff in table.items():
        if not coeff:
            continue
        i = int(path.source[1:])
        j = int(path.target[1:])
        if (len(path) - (j - i)) % n != 0:
            return False
    return True


def verify_cycle_pattern(n: int, depth: int, seed: int = DEFAULT_SEED) -> bool:
    """Sample elements of the cycle algebra and check the residue pattern."""
    if n < 1 or depth < n:
        raise GraphError("verify_cycle_pattern needs n >= 1 and depth >= n")
    g = builtin(f"cycle({n})").graph
    basis = build_basis(g, depth)
    elements = []
    for w in enumerate_paths(g, min(3, depth)):
        elements.append(fock.left_op(basis, w))
    rng = random.Random(seed)
    gen_words = [unit(g, v) for v in g.vertices] + [word(g, (e.name,)) for e in g.edges]
    for _ in range(20):
        product = fock.left_op(basis, rng.choice(gen_words))
        for _ in range(rng.randint(1, depth - 1)):
            product = product * fock.left_op(basis, rng.choice(gen_words))
        elements.append(product)
        combo = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice(elements)
        elements.append(combo + product)
    return all(cycle_residue_conforms(n, package_fourier_coefficients(a)) for a in elements)


def verify_structure_examples(depth: int, seed: int = DEFAULT_SEED) -> EntryCheck:
    """Check the two matrix identifications of the small finite examples.

    triangle_Lfree: in the block decomposition by the two vertex
    projections, the y-corner of any algebra element is scalar, the
    x-from-y corner vanishes, and the y-from-x corner is supported on
    words through f with no constant term.

    digraph_T: the general element a L_{x1} + b L_{x2} + c L_{x3} +
    l L_e + m L_f at depth 1 is the familiar 5x5 matrix with diagonal
    (a, b, c, b, c) and entries l, m in the first column.
    """
    checks: list[tuple[str, bool, str]] = []
    if depth < 2:
        raise GraphError("verify_structure_examples needs depth >= 2")

    g = builtin("triangle_Lfree").graph
    basis = build_basis(g, depth)
    rng = random.Random(seed)
    elements = [fock.left_op(basis, w) for w in enumerate_paths(g, min(4, depth))]
    for _ in range(10):
        a, b = rng.choice(elements), rng.choice(elements)
        elements.append(Fraction(rng.randint(1, 5)) * a + b)
    px = vertex_projection(basis, "x")
    py = vertex_projection(basis, "y")
    corner_scalar = True
    corner_zero = True
    corner_hinf0 = True
    for a in elements:
        yy = package_fourier_coefficients(py * a * py)
        corner_scalar &= all(w.is_unit and w.source == "y" for w in yy)
        corner_zero &= (px * a * py).is_zero()
        yx = package_fourier_coefficients(py * a * px)
        corner_hinf0 &= all(
            len(w) >= 1 and w.source == "x" and w.target == "y" and w.edges[-1] == "f"
            for w in yx
        )
    checks.append(("triangle: y-corner is scalar", corner_scalar, ""))
    checks.append(("triangle: x-from-y corner vanishes", corner_zero, ""))
    checks.append(("triangle: y-from-x corner lies in f * H_inf", corner_hinf0, ""))

    g5 = builtin("digraph_T").graph
    b5 = build_basis(g5, 1)
    a, b, c, l, m = (Fraction(v) for v in (1, 2, 3, 4, 5))
    x = (
        a * vertex_projection(b5, "x1")
        + b * vertex_projection(b5, "x2")
        + c * vertex_projection(b5, "x3")
        + l * fock.left_op(b5, word(g5, ("e",)))
        + m * fock.left_op(b5, word(g5, ("f",)))
    )
    idx = {literal(p): i for i, p in enumerate(enumerate_paths(g5, 1))}
    expected = {
        (idx["@x1"], idx["@x1"]): a,
        (idx["@x2"], idx["@x2"]): b,
        (idx["@x3"], idx["@x3"]): c,
        (idx["e"], idx["e"]): b,
        (idx["f"], idx["f"]): c,
        (idx["e"], idx["@x1"]): l,
        (idx["f"], idx["@x1"]): m,
    }
    ok = x.entries == expected
    checks.append(("fork: 5x5 matrix matches the displayed pattern", ok, ""))
    return EntryCheck("structure examples", tuple(checks))


# ------------------------------------------------ dict-based verification path


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


# ------------------------------------------------ rational operator path

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
    for p in enumerate_paths(self.graph, self.depth):
        digest.update(literal(p).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:12]


def left_op(b: FockBasis, w: Path) -> SparseOp:
    """The truncated left creation operator L_w (P_x for a unit)."""
    one = Fraction(1)
    return SparseOp(b, {(row, col): one for col, row in zip(*fock.left_map(b, w))})


def ref_vertex_projection(b: FockBasis, x: str) -> SparseOp:
    """P_x: diagonal projection onto basis paths with range x."""
    return left_op(b, unit(b.graph, x))


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


def fourier_coefficients(a: SparseOp) -> dict[Path, Fraction]:
    """Coefficients a_w of the expansion A ~ sum a_w L_w.

    a_w is the entry of A at row w and column unit(source(w)); for
    elements of the truncated algebra this reads the coefficients off the
    columns of the unit vectors, exactly.
    """
    b = a.basis
    table: dict[Path, Fraction] = {}
    for i, w in enumerate(enumerate_paths(b.graph, b.depth)):
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
            op = ref_vertex_projection(basis, lit)
        else:
            raise GraphError(f"unknown operator kind {kind!r} (use L, R or P)")
        total = total + scalar * op
    return total
