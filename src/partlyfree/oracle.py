"""Independent brute-force cross-checks for the decision procedures.

Three oracles live here, each deciding by a route unrelated to the
decision path:

* a simple-cycle enumerator: the double-cycle decision is re-derived as
  "two distinct vertex-simple directed cycles share a vertex".  Two such
  cycles rotate to two distinct first-return cycles at a shared vertex,
  and conversely a strongly connected component that is not a simple
  cycle always contains such a pair, so the two decisions must agree.
* a bounded enumeration of first-return cycles in lexicographic order:
  sorted shortlex, its first two words are the witness words of the
  polynomial search.
* a bounded exhaustive search for isometry pairs over cycle graphs: the
  cycle algebras contain no pair satisfying the partly-free identities,
  and the search confirms that no small sum of L_w's fakes one on the
  truncation either.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .catalog import MAX_GRAPH_SIZE
from .fock import FockBasis, SparseOp, build_basis, left_op, length_projection
from .graphs import (
    Edge,
    Graph,
    GraphError,
    double_cycle_witnesses,
    saturation_vertices,
    strongly_connected_components,
    transpose,
)
from .pairs import Summand
from .paths import enumerate_paths, is_left_divisor

DEFAULT_SEED = 1729

# the steps the simple-cycle search may take before it gives up; two
# million take under a second of pure Python
CYCLE_SEARCH_BUDGET = 2_000_000


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


def random_graph(rng: random.Random, max_vertices: int = 8, max_edges: int = 16) -> Graph:
    if not (1 <= max_vertices and 0 <= max_edges and max_vertices + max_edges <= MAX_GRAPH_SIZE):
        raise GraphError(
            "random graphs need max_vertices >= 1, max_edges >= 0 and at most "
            f"{MAX_GRAPH_SIZE} of both together"
        )
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    m = rng.randint(0, max_edges)
    edges = tuple(
        Edge(f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(m)
    )
    return Graph(vertices, edges)


@dataclass(frozen=True)
class AgreementReport:
    graphs_checked: int
    disagreements: tuple[str, ...]

    @property
    def agreed(self) -> bool:
        return not self.disagreements


def agreement_run(
    count: int = 200,
    seed: int = DEFAULT_SEED,
    max_vertices: int = 8,
    max_edges: int = 16,
) -> AgreementReport:
    """Compare the SCC decision with the brute-force oracle on random graphs."""
    if count < 0:
        raise GraphError("the number of random graphs must be >= 0")
    rng = random.Random(seed)
    disagreements = []
    for i in range(count):
        g = random_graph(rng, max_vertices, max_edges)
        fast = bool(double_cycle_witnesses(g))
        slow = has_double_cycle_bruteforce(g)
        if fast != slow:
            disagreements.append(
                f"graph #{i}: scc says {fast}, brute force says {slow}: "
                + ";".join(f"{e.name}:{e.src}->{e.dst}" for e in g.edges)
            )
    return AgreementReport(count, tuple(disagreements))


def sum_left_ops(b: FockBasis, summands: Sequence[Summand]) -> SparseOp:
    """The truncated matrix of sum_k L_{w_k} over the summand words, the
    ``SparseOp`` reference for the partial maps of ``pairs.materialize``."""
    out = SparseOp.zero(b)
    for s in summands:
        out = out + left_op(b, s.word)
    return out


@dataclass(frozen=True)
class SearchHit:
    """A candidate pair that unexpectedly satisfied the witness identities."""

    u_summands: tuple[Summand, ...]
    v_summands: tuple[Summand, ...]


def _candidate_operators(
    g: Graph, max_word_length: int, max_summands: int
) -> list[tuple[Summand, ...]]:
    paths = enumerate_paths(g, max_word_length)
    singles = [Summand(p.source, p) for p in paths]
    candidates: list[tuple[Summand, ...]] = [(s,) for s in singles]
    if max_summands >= 2:
        for a, b in itertools.combinations(singles, 2):
            if a.source != b.source:
                candidates.append((a, b))
    return candidates


def search_isometry_pairs(
    g: Graph,
    depth: Optional[int] = None,
    max_word_length: int = 4,
    max_summands: int = 2,
) -> list[SearchHit]:
    """Exhaustive bounded search for pairs satisfying the witness identities.

    Candidates are scalar-free sums of at most ``max_summands`` L_w with
    pairwise distinct sources and |w| <= ``max_word_length``.  A pair
    (U, V) counts as found when, in exact arithmetic:

    * U and V are nonzero partial isometries (U*U and V*V idempotent),
    * U*V == 0 on the full truncated space,
    * E_m U*U E_m == E_m V*V E_m != 0 with m = depth - max_word_length,
    * the range supports satisfy UU* <= U*U and VV* <= V*V after E_m.

    Support comparisons are always decidable here: the matrices have
    integer entries, and an integer self-adjoint idempotent is forced to
    be a 0/1 diagonal (each diagonal entry is a squared column norm in
    {0, 1}, and a unit diagonal entry pins the whole column).

    Word-level prefilters discard pairs whose orthogonality already fails
    (a cross product L_a* L_b is nonzero iff a, b are left-factor
    comparable, and depth >= 2 * max_word_length preserves a witness
    entry of that) or whose diagonal initial supports provably differ;
    every surviving candidate is checked with matrices.  On cycle graphs
    the result must be empty.
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
                    sup_init = uu_m.diagonal_01_support()
                    sup_range = (em * (u * ua) * em).diagonal_01_support()
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
