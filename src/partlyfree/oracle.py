"""Independent brute-force cross-checks for the decision procedures.

Two oracles live here, both deliberately unrelated to the SCC-based
decision path:

* a simple-cycle enumerator: the double-cycle decision is re-derived as
  "two distinct vertex-simple directed cycles share a vertex".  Two such
  cycles rotate to two distinct first-return cycles at a shared vertex,
  and conversely a strongly connected component that is not a simple
  cycle always contains such a pair, so the two decisions must agree.
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

from .fock import FockBasis, SparseOp, build_basis, left_op, length_projection
from .graphs import Edge, Graph, double_cycle_witnesses
from .pairs import Summand
from .paths import Path, enumerate_paths, is_left_divisor

DEFAULT_SEED = 1729


def simple_cycles(g: Graph, max_length: Optional[int] = None) -> list[tuple[str, ...]]:
    """All vertex-simple directed cycles, as edge-name tuples.

    Each cycle is anchored at its least vertex, which makes the listing
    canonical without rotation bookkeeping.  Loops and parallel edges
    yield distinct cycles.  Length is bounded by the vertex count
    (vertex-simple), or by ``max_length`` if smaller.
    """
    bound = len(g.vertices) if max_length is None else min(max_length, len(g.vertices))
    cycles: list[tuple[str, ...]] = []

    def extend(anchor: str, v: str, visited: set[str], word: tuple[str, ...]) -> None:
        for e in g.out_edges(v):
            if e.dst == anchor:
                cycles.append(word + (e.name,))
            elif e.dst not in visited and e.dst > anchor and len(word) + 1 < bound:
                extend(anchor, e.dst, visited | {e.dst}, word + (e.name,))

    for anchor in sorted(g.vertices):
        extend(anchor, anchor, {anchor}, ())
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


def _cross_divisible(u_words: list[Path], v_words: list[Path]) -> bool:
    for a in u_words:
        for b in v_words:
            if is_left_divisor(a, b) or is_left_divisor(b, a):
                return True
    return False


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
