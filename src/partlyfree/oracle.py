"""Independent brute-force cross-checks for the decision procedures.

Two oracles live here, each deciding by a route unrelated to the
decision path:

* a simple-cycle enumerator: the double-cycle decision is re-derived as
  "two distinct vertex-simple directed cycles share a vertex".  Two such
  cycles rotate to two distinct first-return cycles at a shared vertex,
  and conversely a strongly connected component that is not a simple
  cycle always contains such a pair, so the two decisions must agree.
* a bounded exhaustive search for isometry pairs over cycle graphs: the
  cycle algebras contain no pair satisfying the partly-free identities,
  and the search confirms that no small sum of L_w's fakes one on the
  truncation either.  Each candidate is a 0/1 partial map, so every
  identity is decided on the map by injectivity and range sets, not by
  matrix products.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .catalog import MAX_GRAPH_SIZE
from .fock import build_basis, left_map
from .graphs import Edge, Graph, GraphError, _components, double_cycle_witnesses
from .pairs import Summand
from .paths import Path, enumerate_paths

DEFAULT_SEED = 1729

# the steps the simple-cycle search may take before it gives up; two
# million take under a second of pure Python
CYCLE_SEARCH_BUDGET = 2_000_000

# the fixed cost of one random graph of an agreement run, in vertices and
# edges; on a 2-core VM a run at the bound of MAX_GRAPH_SIZE takes about
# 6 s with graphs of 1 vertex and 1 edge and about 9 s at the default sizes
GRAPH_FIXED_COST = 4


def simple_cycles(g: Graph) -> list[tuple[str, ...]]:
    """All vertex-simple directed cycles, as edge-name tuples.

    Johnson's algorithm ("Finding all the elementary circuits of a
    directed graph", SIAM J. Comput. 1975), with explicit stacks, on the
    vertex ids of the graph's index.  Take a strongly connected component
    and its least vertex s, list the cycles through s inside it, remove s
    and split the rest into components again, their searches started in
    vertex declaration order.  So each cycle is found once, anchored at
    its least vertex, which makes the listing canonical without rotation
    bookkeeping; loops and parallel edges yield distinct cycles.  The
    components (:func:`graphs._components`) only prune the search: the
    answer comes from the cycles, not from the component shapes that the
    decision reads.  A vertex stays blocked until a cycle is found through
    it or through a vertex that waits on it, so a dead end is walked at
    most once between two cycles, and the search takes
    O((|V| + |E|)(c + 1)) steps for c cycles.  ``inside`` and ``blocked``
    are bytearrays over the ids, and each component costs only its own size.
    More than ``CYCLE_SEARCH_BUDGET`` steps (edges followed, and edges
    copied out with the cycles) raise :class:`GraphError`.
    """
    n = len(g.vertex_name)
    start, out_edge, head, by_id = g.out_start, g.out_edge, g.out_head, g.edge_by_id
    position = [0] * n
    for i, v in enumerate(g.roots):
        position[v] = i
    inside, blocked = bytearray(n), bytearray(n)
    # every vertex outside the searches of _components, and their scratch
    num, scratch = [n + 1] * n, ([0] * n, [0] * n)
    cycles: list[tuple[str, ...]] = []
    steps = 0
    work = list(g.components)
    while work:
        comp = work.pop()
        s = min(comp)
        if len(comp) == 1 and s not in head[start[s] : start[s + 1]]:
            continue  # a lone vertex without a loop
        for v in comp:
            inside[v] = 1
        out = {
            v: [(by_id[out_edge[p]].name, head[p]) for p in range(start[v], start[v + 1]) if inside[head[p]]]
            for v in comp
        }
        blocked[s] = 1
        waiting: dict[int, set[int]] = {}
        heads, word, closed = [s], [], [False]
        stack = [iter(out[s])]
        while stack:
            for name, w in stack[-1]:
                steps += 1
                if w == s:
                    cycles.append(tuple(word) + (name,))
                    steps += len(word)
                    closed[-1] = True
                elif not blocked[w]:
                    blocked[w] = 1
                    heads.append(w)
                    word.append(name)
                    closed.append(False)
                    stack.append(iter(out[w]))
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
                        if blocked[u]:
                            blocked[u] = 0
                            unblock.extend(waiting.pop(u, ()))
                else:
                    for _, w in out[v]:
                        waiting.setdefault(w, set()).add(v)
            if steps > CYCLE_SEARCH_BUDGET:
                raise GraphError(
                    f"simple-cycle search exceeded its budget of {CYCLE_SEARCH_BUDGET} steps "
                    f"after {len(cycles)} cycles"
                )
        for v in comp:
            inside[v] = blocked[v] = 0
        if sum(map(len, out.values())) == len(comp):
            continue  # a simple cycle: without s it holds no cycle
        rest = sorted(comp, key=position.__getitem__)
        rest.remove(s)
        for v in rest:
            num[v] = 0
        work += _components(g, rest, num, scratch)
    return cycles


def _cycle_vertices(g: Graph, cycle: tuple[str, ...]) -> frozenset[int]:
    return frozenset(g.edge_src[g.eid[name]] for name in cycle)


def has_double_cycle_bruteforce(g: Graph) -> bool:
    """Two distinct simple cycles through a common vertex?"""
    seen: set[int] = set()
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
    edges = tuple(Edge(f"e{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(m))
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
    """Compare the SCC decision with the brute-force oracle on random graphs.

    Each graph is charged its largest size plus ``GRAPH_FIXED_COST``, and
    a run charged more than ``MAX_GRAPH_SIZE`` in all is refused, so the
    bound limits the time of a run, tiny graphs included."""
    if count < 0:
        raise GraphError("the number of random graphs must be >= 0")
    cost = max_vertices + max_edges + GRAPH_FIXED_COST
    if count * cost > MAX_GRAPH_SIZE:
        raise GraphError(
            f"{count} random graphs of up to {max_vertices + max_edges} vertices and edges, "
            f"charged {cost} each with the cost of a graph, exceed the bound of "
            f"{MAX_GRAPH_SIZE} in all"
        )
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

    Candidates are scalar-free sums of at most ``max_summands`` (1 or 2)
    L_w with pairwise distinct sources and |w| <= ``max_word_length``.  A
    pair (U, V) counts as found when, in exact arithmetic:

    * U and V are nonzero partial isometries (U*U and V*V idempotent),
    * U*V == 0 on the full truncated space,
    * E_m U*U E_m == E_m V*V E_m != 0 with m = depth - max_word_length,
    * the range supports satisfy UU* <= U*U and VV* <= V*V after E_m.

    Each condition is decided on the 0/1 partial map col -> row of the
    candidate (:func:`fock.left_map`), with no matrix product.  The L_w of
    a candidate have distinct sources, so their columns (paths with range
    source(w)) are disjoint, and U is the union of their maps:

    * U*U is idempotent iff the map is injective.  Entry (c, c') of U*U
      counts the rows that c and c' both map to, so U*U is a sum of
      all-ones blocks, one per fibre; a fibre of two columns gives the
      block [[1,1],[1,1]], whose square is twice itself.
    * Then U*U is the projection onto the domain of the map, and UU* the
      projection onto its range, both 0/1 diagonals in the path basis.
    * U*V == 0 iff the ranges of U and V are disjoint: the entries are
      nonnegative, and entry (c, c') counts the rows hit by both.
    * E_m X E_m keeps the ordinals below ``upto(m)``.  So the compressed
      initial projections are equal iff the compressed domains are, they
      are nonzero iff that domain is not empty, and UU* <= U*U after E_m
      iff the part of the range below ``upto(m)`` lies inside it.
    * The unit at source(w) always maps to w, since |w| <= the word bound
      <= the depth, so no candidate is zero.

    So the candidates that pass alone are grouped by compressed domain,
    and a hit is an ordered pair of one group with disjoint ranges, listed
    by candidate index.  On cycle graphs the result must be empty.
    """
    if max_summands not in (1, 2):
        raise ValueError("max_summands must be 1 or 2")
    if depth is None:
        depth = 2 * max_word_length
    if depth < 2 * max_word_length:
        raise ValueError("depth must be at least twice the word bound")
    basis = build_basis(g, depth)
    upto = basis.upto(depth - max_word_length)
    candidates = _candidate_operators(g, max_word_length, max_summands)

    maps: dict[Path, dict[int, int]] = {}
    survivors: list[tuple[int, frozenset[int], frozenset[int]]] = []
    groups: dict[frozenset[int], list[tuple[int, frozenset[int]]]] = {}
    for i, cand in enumerate(candidates):
        cols: dict[int, int] = {}
        for s in cand:
            if s.word not in maps:
                maps[s.word] = dict(zip(*left_map(basis, s.word)))
            cols.update(maps[s.word])
        rows = frozenset(cols.values())
        if len(rows) < len(cols):
            continue  # two columns share an image: not a partial isometry
        dom_m = frozenset(c for c in cols if c < upto)
        if not dom_m or not all(r in dom_m for r in rows if r < upto):
            continue
        survivors.append((i, dom_m, rows))
        groups.setdefault(dom_m, []).append((i, rows))

    return [
        SearchHit(candidates[i], candidates[j])
        for i, dom_m, rows in survivors
        for j, rows_j in groups[dom_m]
        if rows.isdisjoint(rows_j)
    ]
