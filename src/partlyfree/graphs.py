"""Directed multigraph model, parsing, and the partly-free decision procedures.

A directed graph here is a finite set of named vertices and named edges,
where multi-edges and self-loops are allowed.  An edge ``e`` from source
``x`` to range ``y`` is written ``y e x`` in path notation: paths compose
right-to-left, so the rightmost edge of a word is traversed first.

The decisions implemented on top of this model:

* double-cycle property -- some vertex carries two distinct first-return
  cycles (decided from the strongly connected components),
* uniform double-cycle property -- every vertex can reach such a vertex,
* aperiodic path property and its uniform variant -- for a finite graph
  these coincide with the double-cycle properties, because an infinite
  path in a finite graph must repeat an edge and therefore cannot be a
  proper infinite path; an aperiodic infinite path then forces a
  double-cycle, and conversely a double-cycle w1 != w2 at x yields the
  aperiodic path ... w1^3 w2 w1^2 w2 w1 w2.

The algebra flags derive from the graph properties: the WOT-closed algebra
of a graph is partly free iff the graph has the aperiodic path property
(unitally iff uniformly), and the norm-closed quiver algebra is partly
free iff the graph has a double-cycle (unitally iff additionally the
vertex set is finite and the property is uniform).

Every graph carries one integer index (see :class:`Graph`), built in the
pass that validates it.  Vertex ids follow sorted vertex-name order and
edge ids sorted edge-name order, so the least vertex of a set is its
least id, and shortlex order on edge-name words is shortlex order on
edge-id words.  The components, the witness search, the reachability
passes, the pair construction of :mod:`pairs` and Johnson's cycle oracle
in :mod:`oracle` run on ids, and turn ids back into names only at their
public boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, NamedTuple, Optional, Union


class GraphError(ValueError):
    """Structural problem with a graph or a graph file."""


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _fault(vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> str:
    """The first structural fault, in the order of the checks: each vertex
    in declaration order (name, then duplicate), then each edge in
    declaration order (name, duplicate, endpoints).  Only called on a
    graph that has one."""
    seen = set()
    for v in vertices:
        if not _NAME_RE.match(v):
            return f"invalid vertex name {v!r}"
        if v in seen:
            return f"duplicate vertex {v!r}"
        seen.add(v)
    names = set()
    for e in edges:
        if not _NAME_RE.match(e.name):
            return f"invalid edge name {e.name!r}"
        if e.name in names:
            return f"duplicate edge {e.name!r}"
        if e.src not in seen or e.dst not in seen:
            return f"edge {e.name!r} has undeclared endpoint"
        names.add(e.name)
    raise AssertionError("the graph has no structural fault")


def _rows(key: list[int], ids: list[int], n: int) -> tuple[list[int], list[int]]:
    """Compressed rows: the edge ids grouped by ``key`` (a vertex id per
    edge id, ``ids`` the ids), ascending within a group, and the start of
    each of the ``n`` groups, with the end of the last one appended."""
    order = sorted(ids[: len(key)], key=key.__getitem__)
    start = [0] * (n + 1)
    for v in key:
        start[v + 1] += 1
    return order, list(accumulate(start))


@dataclass
class Graph:
    """Finite directed multigraph with named vertices and edges.

    ``family`` optionally records that the graph was materialized as the
    finite window of a built-in countable family, as ``(family_name, K)``.
    Instances are immutable after construction and safe to share between
    threads; ``components`` and ``edge_rank`` are filled on first read, and
    two threads that read one at once may each build it, with equal
    results.  Their lists are shared, so callers must not change them.

    The integer index, built and checked in one pass by the constructor:

    * ``vertex_name``: the vertex names in sorted order; a vertex id is a
      position in it, and ``vid`` maps a name back to its id;
    * ``roots``: the vertex ids in declaration order;
    * ``edge_by_id``: the edges in sorted name order; an edge id is a
      position in it, and ``eid`` maps a name back to its id;
    * ``edge_src`` and ``edge_dst``: the vertex ids of each edge's ends;
    * ``out_start``, ``out_edge`` and ``out_head``: the out-edges of
      vertex v are the edge ids ``out_edge[out_start[v]:out_start[v + 1]]``,
      ascending, that is in name order, with their ranges at the same
      positions of ``out_head``;
    * ``in_start``, ``in_edge`` and ``in_tail``: likewise the in-edges,
      with their sources;
    * ``edge_rank``: the rank of each edge among the out-edges of its
      source, built on first read (by the Fock basis);
    * ``components``: the strongly connected components, found on first
      read.

    The id lists take an 8-byte slot per entry: three per vertex and six
    per edge, and one more of each kind once ``components`` and
    ``edge_rank`` are read; the ids are int objects shared by all of them.
    A cycle of 100,000 vertices keeps 261 bytes per vertex and edge on top
    of its names and ``Edge`` tuples (tracemalloc, Python 3.11).
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    family: Optional[tuple[str, int]] = None

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.edges = tuple(self.edges)
        if not {Edge}.issuperset(map(type, self.edges)):
            self.edges = tuple(Edge(*e) for e in self.edges)
        vertices, edges = self.vertices, self.edges
        if not all(map(_NAME_RE.match, vertices)):
            raise GraphError(_fault(vertices, edges))
        n, m = len(vertices), len(edges)
        ids = list(range(max(n, m)))
        self.vertex_name = tuple(sorted(vertices))
        self.vid = vid = dict(zip(self.vertex_name, ids))
        self.edge_by_id = by_id = tuple(sorted(edges, key=itemgetter(0)))
        names = [e[0] for e in by_id]
        self.eid = dict(zip(names, ids))
        try:
            if len(vid) < n or len(self.eid) < m or not all(map(_NAME_RE.match, names)):
                raise KeyError
            self.edge_src = src = [vid[e[1]] for e in by_id]
            self.edge_dst = dst = [vid[e[2]] for e in by_id]
        except KeyError:
            raise GraphError(_fault(vertices, edges)) from None
        self.roots = [vid[v] for v in vertices]
        self.out_edge, self.out_start = _rows(src, ids, n)
        self.out_head = [dst[e] for e in self.out_edge]
        self.in_edge, self.in_start = _rows(dst, ids, n)
        self.in_tail = [src[e] for e in self.in_edge]

    @cached_property
    def components(self) -> list[list[int]]:
        """The strongly connected components, as lists of vertex ids, found on
        first read (:func:`_components`, searches started in declaration
        order) and shared by the witness search and the cycle oracle."""
        return _components(self, self.roots)

    @cached_property
    def edge_rank(self) -> list[int]:
        rank = [0] * len(self.edges)
        start, src = self.out_start, self.edge_src
        for p, e in enumerate(self.out_edge):
            rank[e] = p - start[src[e]]
        return rank

    def has_vertex(self, v: str) -> bool:
        return v in self.vid

    def edge(self, name: str) -> Edge:
        try:
            return self.edge_by_id[self.eid[name]]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """The edges with source ``v``, in name order."""
        try:
            i = self.vid[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None
        start = self.out_start
        return tuple(map(self.edge_by_id.__getitem__, self.out_edge[start[i] : start[i + 1]]))


def _first_invalid_vertex(declared: dict[str, int]) -> Optional[GraphError]:
    for name, lineno in declared.items():
        if not _NAME_RE.match(name):
            return GraphError(f"line {lineno}: invalid vertex name {name!r}")
    return None


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph file format.

    ``#`` starts a comment, ``vertex NAME`` declares a vertex and
    ``edge NAME SRC DST`` declares an edge with source ``SRC`` and range
    ``DST``.  Declaration order is preserved.  Errors carry the offending
    line number, except a bad or repeated edge name, which is reported
    (the first one, without a line number) once every line has parsed.

    Each name is checked once: the vertex names at the first bad line, so
    that the error named is always that of the first bad line, or else by
    :class:`Graph` with the edge names as it builds the index.
    """
    declared: dict[str, int] = {}  # vertex name -> line number
    rows: list[list[str]] = []

    def bad_line(lineno: int, message: str) -> GraphError:
        return _first_invalid_vertex(declared) or GraphError(f"line {lineno}: {message}")

    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if len(parts) == 4 and parts[0] == "edge":
            if parts[2] in declared and parts[3] in declared:
                rows.append(parts[1:])
                continue
            end = parts[3] if parts[2] in declared else parts[2]
            raise bad_line(lineno, f"undeclared endpoint {end!r}")
        if len(parts) == 2 and parts[0] == "vertex":
            if parts[1] not in declared:
                declared[parts[1]] = lineno
                continue
            raise bad_line(lineno, f"duplicate vertex {parts[1]!r}")
        if parts:
            raw = text.splitlines()[lineno - 1]
            raise bad_line(lineno, f"malformed line {raw.strip()!r}")
    try:
        return Graph(tuple(declared), tuple(map(Edge._make, rows)))
    except GraphError as exc:
        raise _first_invalid_vertex(declared) or exc from None


def render_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (modulo comments and blank lines)."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.src} {e.dst}" for e in g.edges]
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transpose(g: Graph) -> Graph:
    """Reverse the direction of every edge.  An involution."""
    return Graph(g.vertices, tuple(Edge(e.name, e.dst, e.src) for e in g.edges), g.family)


def saturation_vertices(g: Graph, x: str) -> frozenset[str]:
    """Vertices reachable from ``x`` by directed paths, including ``x``.

    This is the vertex part of the saturation of ``x`` (the full
    saturation also contains the paths themselves).
    """
    if not g.has_vertex(x):
        raise GraphError(f"unknown vertex {x!r}")
    return frozenset(map(g.vertex_name.__getitem__, _reached_from(g, (g.vid[x],))))


def _search(start: list[int], step: list[int], sources: Iterable[int]) -> list[int]:
    """The vertex ids reachable from ``sources`` along the compressed rows
    ``start``, ``step``, sources first, each once."""
    seen = bytearray(len(start) - 1)
    found = list(dict.fromkeys(sources))
    for v in found:
        seen[v] = 1
    frontier = list(found)
    while frontier:
        v = frontier.pop()
        for w in step[start[v] : start[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                found.append(w)
                frontier.append(w)
    return found


def _reached_from(g: Graph, sources: Iterable[int]) -> list[int]:
    """Vertex ids reachable from some id of ``sources``, sources included."""
    return _search(g.out_start, g.out_head, sources)


def _reaches(g: Graph, targets: Iterable[int]) -> list[int]:
    """Vertex ids from which some id of ``targets`` is reachable."""
    return _search(g.in_start, g.in_tail, targets)


def _components(
    g: Graph,
    roots: Iterable[int],
    num: Optional[list[int]] = None,
    scratch: Optional[tuple[list[int], list[int]]] = None,
) -> list[list[int]]:
    """Tarjan's algorithm on vertex ids, iterative so deep graphs cannot
    overflow the stack.

    The components of the subgraph induced on the ids v with ``num[v]``
    zero (all ids when ``num`` is None), each listed in the order its ids
    leave the stack, with the depth-first searches started at ``roots`` in
    order and the out-edges taken in name order.  ``num[v]`` becomes the
    visit number of v, and once v's component is found it is set to
    ``len(num) + 1``, above every visit number.  The other entries must
    hold that value already: to the search, a vertex outside the subgraph
    looks like one whose component is found.  So the low-link minimum
    skips both without an on-stack set or a membership test.  The low
    link and the next out-edge position of a vertex are set when it is
    visited, in the two lists of ``scratch``, one entry per vertex; a
    caller that splits many subgraphs passes one ``num`` and one
    ``scratch`` to every search, and pays for each only the size of its
    subgraph.
    """
    start, head = g.out_start, g.out_head
    n = len(g.vertex_name)
    if num is None:
        num = [0] * n
    low, position = scratch or ([0] * n, [0] * n)
    done = n + 1
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in roots:
        if num[root]:
            continue
        counter += 1
        num[root] = low[root] = counter
        position[root] = start[root]
        calls = [root]
        stack.append(root)
        while calls:
            v = calls[-1]
            p, end, lv = position[v], start[v + 1], low[v]
            while p < end:
                w = head[p]
                p += 1
                k = num[w]
                if not k:
                    position[v], low[v] = p, lv
                    counter += 1
                    num[w] = low[w] = counter
                    position[w] = start[w]
                    calls.append(w)
                    stack.append(w)
                    break
                if k < lv:
                    lv = k
            else:
                calls.pop()
                if lv == num[v]:
                    w = stack.pop()
                    num[w] = done
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        num[w] = done
                        comp.append(w)
                    components.append(comp)
                elif lv < low[calls[-1]]:
                    low[calls[-1]] = lv
    return components


def strongly_connected_components(
    g: Graph, within: Optional[AbstractSet[str]] = None
) -> list[tuple[str, ...]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack
    (:func:`_components`), with the searches started in vertex declaration
    order.

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


@dataclass(frozen=True)
class CycleWitness:
    """A first-return cycle: a closed path at ``base`` whose only edge with
    source ``base`` is the first edge traversed.

    ``word`` stores edge names in traversal order (first-traversed first);
    in right-to-left path notation the word reads reversed.
    """

    base: str
    word: tuple[str, ...]

    def validate(self, g: Graph) -> None:
        if not self.word:
            raise GraphError("cycle word must be nonempty")
        at = self.base
        for i, name in enumerate(self.word):
            e = g.edge(name)
            if e.src != at:
                raise GraphError(f"cycle word does not compose at {name!r}")
            if i > 0 and e.src == self.base:
                raise GraphError("cycle revisits its base vertex as a source")
            at = e.dst
        if at != self.base:
            raise GraphError("cycle word does not return to its base")


@dataclass(frozen=True)
class DoubleCycleWitness:
    base: str
    first: CycleWitness
    second: CycleWitness

    def validate(self, g: Graph) -> None:
        if self.first.base != self.base or self.second.base != self.base:
            raise GraphError("double-cycle witnesses must share the base vertex")
        if self.first.word == self.second.word:
            raise GraphError("double-cycle witnesses must be distinct words")
        self.first.validate(g)
        self.second.validate(g)


@dataclass(frozen=True)
class InfinitePathCertificate:
    """Machine-checkable description of a proper infinite path.

    ``prefix(m)`` yields the first ``m`` edges (traversal order) of the
    infinite word; a proper infinite path never repeats an edge and every
    finite segment must compose.
    """

    family: str
    rule: str
    prefix: Callable[[int], tuple[Edge, ...]] = field(compare=False)

    def validate(self, m: int) -> None:
        edges = self.prefix(m)
        if len(edges) != m:
            raise GraphError(f"certificate prefix({m}) returned {len(edges)} edges")
        names = [e.name for e in edges]
        if len(set(names)) != len(names):
            raise GraphError("certificate repeats an edge")
        for a, b in zip(edges, edges[1:]):
            if a.dst != b.src:
                raise GraphError(f"certificate segment {a.name!r},{b.name!r} does not compose")
        if m >= 2 and tuple(self.prefix(m // 2)) != tuple(edges[: m // 2]):
            raise GraphError("certificate prefixes are inconsistent")


AperiodicWitness = Union[DoubleCycleWitness, InfinitePathCertificate]


def _component_shape(g: Graph, comp: list[int], label: list[int]) -> str:
    """Classify an SCC as 'trivial', 'simple-cycle' or 'branching'; its ids
    are the ``v`` with ``label[v] == label[comp[0]]``.

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
    c = label[comp[0]]
    start, head = g.out_start, g.out_head
    internal = most = 0
    for v in comp:
        degree = 0
        for w in head[start[v] : start[v + 1]]:
            if label[w] == c:
                degree += 1
        internal += degree
        most = max(most, degree)
    if not internal:
        return "trivial"
    # |comp| internal edges, none of them a second one out of a vertex
    if internal == len(comp) and most == 1:
        return "simple-cycle"
    return "branching"


def _shortlex_cycles(g: Graph, comp: list[int], label: list[int], base: int) -> list[tuple[str, ...]]:
    """The two shortlex-least first-return cycle words at ``base`` among
    those of length <= 2|comp| (fewer if there are fewer), as edge names;
    the component is labelled as in :func:`_component_shape`.

    ``ways[l]`` maps each vertex v of ``comp`` other than ``base`` to the
    number, capped at 2, of walks of length l from v to ``base`` inside
    ``comp`` that meet ``base`` only at their end, and leaves out the
    zeros; ``ways[0]`` is ``{base: 1}``, the empty walk.  A level is made
    from the one before by stepping back along the in-edges of the
    vertices it holds, and the walks that step back onto ``base`` are the
    first-return cycles of that length, counted in ``cycles[l]``.  Levels
    stop once two cycles are known.  Rank 0 or 1 among the cycles of one
    length is then unranked greedily, taking the out-edges of each vertex
    in name order, which is id order: the cap cannot mislead this, because
    a capped count is never subtracted from a rank below 2.  A level costs
    the in-degrees of the vertices it holds, at most |E_comp|, so the
    search costs O(|comp| |E_comp|), and about |comp| + |E_comp| on a
    sparse component whose levels hold few vertices.
    """
    c = label[base]
    in_start, tail = g.in_start, g.in_tail
    ways: list[dict[int, int]] = [{base: 1}]
    cycles = [0]
    found = 0
    while found < 2 and len(cycles) <= 2 * len(comp):
        level: dict[int, int] = {}
        for v, count in ways[-1].items():
            for u in tail[in_start[v] : in_start[v + 1]]:
                if label[u] == c:
                    total = level.get(u, 0) + count
                    level[u] = total if total < 2 else 2
        cycles.append(level.pop(base, 0))
        found += cycles[-1]
        ways.append(level)

    start, out_edge, head, by_id = g.out_start, g.out_edge, g.out_head, g.edge_by_id

    def unrank(length: int, k: int) -> tuple[str, ...]:
        at, word = base, []
        for left in range(length - 1, -1, -1):
            level = ways[left]
            for p in range(start[at], start[at + 1]):
                count = level.get(head[p], 0)
                if k < count:
                    break
                k -= count
            word.append(by_id[out_edge[p]].name)
            at = head[p]
        return tuple(word)

    words: list[tuple[str, ...]] = []
    for length, count in enumerate(cycles):
        words += [unrank(length, k) for k in range(min(count, 2 - len(words)))]
    return words


def double_cycle_witnesses(g: Graph) -> list[DoubleCycleWitness]:
    """One double-cycle witness per branching SCC, ordered by base vertex.

    Empty iff the graph has no double-cycle.  The base is the least vertex
    of its component (vertex names compared as plain strings, which is
    the least id), and the two cycle words are the shortlex-least
    first-return cycles there: shortest first, and among equal lengths
    lexicographic on the traversal-order word, edge names compared as
    plain strings.  Both have length < 2|comp| (see
    :func:`_component_shape`), and the search is polynomial: O(|V| + |E|)
    for the components plus O(|comp| |E_comp|) per branching component
    (:func:`_shortlex_cycles`).
    """
    start, head = g.out_start, g.out_head
    # label[v] == c marks the vertices of the c-th component, once it is examined
    label = [-1] * len(g.vertex_name)
    found = []
    for c, comp in enumerate(g.components):
        if len(comp) == 1:
            v = comp[0]
            if head[start[v] : start[v + 1]].count(v) < 2:
                continue  # a lone vertex with fewer than two loops
        for v in comp:
            label[v] = c
        if len(comp) > 1 and _component_shape(g, comp, label) != "branching":
            continue
        base = min(comp)
        words = _shortlex_cycles(g, comp, label, base)
        if len(words) < 2:  # cannot happen for a branching SCC; guard anyway
            raise GraphError(
                f"component at {g.vertex_name[base]!r} branches but yielded {len(words)} cycles"
            )
        found.append((base, words))
    witnesses = []
    for base, (w1, w2) in sorted(found):
        x = g.vertex_name[base]
        witnesses.append(DoubleCycleWitness(x, CycleWitness(x, w1), CycleWitness(x, w2)))
    return witnesses


@dataclass(frozen=True)
class PropertyReport:
    """The four graph properties and the derived algebra classifications.

    All decisions are exact.  ``warnings`` flags degenerate inputs; in
    particular the uniform properties over an empty vertex set are
    vacuously true but reported ``False`` here, since they would otherwise
    assert a unital inclusion into a zero algebra.
    """

    has_double_cycle: bool
    double_cycle_witness: Optional[DoubleCycleWitness]
    uniform_double_cycle: bool
    aperiodic_path: bool
    aperiodic_witness: Optional[AperiodicWitness]
    uniform_aperiodic_path: bool
    lg_partly_free: bool
    lg_unitally_partly_free: bool
    ag_partly_free: bool
    ag_unitally_partly_free: bool
    hyperreflexive_sufficient: bool
    vertex_count_finite: bool
    warnings: tuple[str, ...] = ()

    def flags(self) -> dict[str, bool]:
        return {
            "has_double_cycle": self.has_double_cycle,
            "uniform_double_cycle": self.uniform_double_cycle,
            "aperiodic_path": self.aperiodic_path,
            "uniform_aperiodic_path": self.uniform_aperiodic_path,
            "lg_partly_free": self.lg_partly_free,
            "lg_unitally_partly_free": self.lg_unitally_partly_free,
            "ag_partly_free": self.ag_partly_free,
            "ag_unitally_partly_free": self.ag_unitally_partly_free,
            "hyperreflexive_sufficient": self.hyperreflexive_sufficient,
            "vertex_count_finite": self.vertex_count_finite,
        }


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
    bases = [g.vid[w.base] for w in witnesses]
    uniform_dc = has_dc and len(_reaches(g, bases)) == len(g.vertices)
    transpose_uniform = has_dc and len(_reached_from(g, bases)) == len(g.vertices)
    warnings = ()
    if not g.vertices:
        warnings = ("empty vertex set: uniform properties are vacuously true but reported false",)
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
