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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, NamedTuple, Optional, Union


class GraphError(ValueError):
    """Structural problem with a graph or a graph file."""


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass
class Graph:
    """Finite directed multigraph with named vertices and edges.

    ``family`` optionally records that the graph was materialized as the
    finite window of a built-in countable family, as ``(family_name, K)``.
    Instances are immutable after construction and safe to share between
    threads.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    family: Optional[tuple[str, int]] = None
    _vertex_set: frozenset = field(init=False, repr=False, compare=False, default=frozenset())
    _edge_by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _out: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _in: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.edges = tuple(Edge(*e) for e in self.edges)
        seen = set()
        for v in self.vertices:
            if not _NAME_RE.match(v):
                raise GraphError(f"invalid vertex name {v!r}")
            if v in seen:
                raise GraphError(f"duplicate vertex {v!r}")
            seen.add(v)
        self._vertex_set = frozenset(self.vertices)
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        by_name = {}
        for e in self.edges:
            if not _NAME_RE.match(e.name):
                raise GraphError(f"invalid edge name {e.name!r}")
            if e.name in by_name:
                raise GraphError(f"duplicate edge {e.name!r}")
            if e.src not in self._vertex_set or e.dst not in self._vertex_set:
                raise GraphError(f"edge {e.name!r} has undeclared endpoint")
            by_name[e.name] = e
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._edge_by_name = by_name
        # sorted adjacency gives deterministic search and witness order
        self._out = {v: tuple(sorted(es)) for v, es in out.items()}
        self._in = {v: tuple(sorted(es)) for v, es in inc.items()}

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._in[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph file format.

    ``#`` starts a comment, ``vertex NAME`` declares a vertex and
    ``edge NAME SRC DST`` declares an edge with source ``SRC`` and range
    ``DST``.  Declaration order is preserved.  Errors carry the offending
    line number.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            name = parts[1]
            if not _NAME_RE.match(name):
                raise GraphError(f"line {lineno}: invalid vertex name {name!r}")
            if name in declared:
                raise GraphError(f"line {lineno}: duplicate vertex {name!r}")
            declared.add(name)
            vertices.append(name)
        elif parts[0] == "edge" and len(parts) == 4:
            name, src, dst = parts[1:]
            if src not in declared:
                raise GraphError(f"line {lineno}: undeclared endpoint {src!r}")
            if dst not in declared:
                raise GraphError(f"line {lineno}: undeclared endpoint {dst!r}")
            edges.append(Edge(name, src, dst))
        else:
            raise GraphError(f"line {lineno}: malformed line {raw.strip()!r}")
    try:
        return Graph(tuple(vertices), tuple(edges))
    except GraphError as exc:
        raise GraphError(str(exc)) from None


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
    return _reached_from(g, {x})


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
        for e in g.in_edges(v):
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
    members = g._vertex_set if within is None else within
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
            for e in g.in_edges(v):
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
