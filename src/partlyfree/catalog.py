"""Built-in example graphs with ground-truth classifications.

Finite entries are classified by the decision procedures and the stored
expectations act as regression anchors.  Countable families cannot be
decided from a finite window (a window of the one-way infinite line is a
finite line and would misclassify), so family entries carry their known
classification together with a machine-checkable certificate of the
proper infinite path where one exists, plus a rule that produces the
windowed tail pair for simulation.

Entry names accept an integer argument in parentheses where meaningful:
``cycle(5)``, ``n_loops(3)``, ``tree_Gn(2)``, ``cycle_inf(17)`` (for
families the argument overrides the default window).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from .fock import DEFAULT_BASIS_CAP, BasisCapError, build_basis, left_op, right_op
from .graphs import (
    Edge,
    Graph,
    GraphError,
    InfinitePathCertificate,
    PropertyReport,
    classify_finite,
    double_cycle_witnesses,
    transpose,
)
from .pairs import FormalIsometryPair, Summand, construct_pair, verify_materialized
from .paths import Path, enumerate_paths, unit, word

DEFAULT_SEED = 1729

# The most vertices plus edges a parameter or window may give a graph.
# They are its paths of length <= 1, so a larger graph has no Fock
# truncation of depth >= 1 under the default cap; refusing it before it is
# built keeps a huge parameter from running for minutes.
MAX_GRAPH_SIZE = DEFAULT_BASIS_CAP


def _check_size(label: str, size: int) -> None:
    if size > MAX_GRAPH_SIZE:
        raise GraphError(
            f"{label} would have {size} vertices and edges, more than {MAX_GRAPH_SIZE}"
        )


def _check_window(name: str, k: int, least: int, size: int) -> None:
    """Refuse a window below ``least`` or one whose graph has ``size``
    vertices and edges above the bound."""
    if k < least:
        raise GraphError(f"{name} needs a window >= {least}")
    _check_size(f"{name} at window {k}", size)


# windowed vertex/edge ids for integer-indexed families: x3, x0, xm2 ...
def _ix(i: int) -> str:
    return f"x{i}" if i >= 0 else f"xm{-i}"


def _ie(i: int) -> str:
    return f"e{i}" if i >= 0 else f"em{-i}"


_LOOP_LETTERS = "efghijklmnopqrstuvwxyzabcd"


def _loop_names(n: int) -> list[str]:
    if n <= len(_LOOP_LETTERS):
        return [_LOOP_LETTERS[i] for i in range(n)]
    return [f"e{i + 1}" for i in range(n)]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "finite" | "family" | "metadata"
    notes: str
    expected_flags: dict
    graph: Optional[Graph] = None
    truncate: Optional[Callable[[int], Graph]] = None
    default_window: Optional[int] = None
    default_depth: int = 6
    certificate: Optional[InfinitePathCertificate] = None
    window_pair: Optional[Callable[[int], list]] = None


def _flags(
    dc=False,
    uniform_dc=False,
    aperiodic=False,
    uniform_aperiodic=False,
    hyper=False,
    finite=True,
) -> dict:
    return {
        "has_double_cycle": dc,
        "uniform_double_cycle": uniform_dc,
        "aperiodic_path": aperiodic,
        "uniform_aperiodic_path": uniform_aperiodic,
        "lg_partly_free": aperiodic,
        "lg_unitally_partly_free": uniform_aperiodic,
        "ag_partly_free": dc,
        "ag_unitally_partly_free": finite and uniform_dc,
        "hyperreflexive_sufficient": hyper,
        "vertex_count_finite": finite,
    }


_ALL_FALSE = _flags()
_ALL_TRUE = _flags(dc=True, uniform_dc=True, aperiodic=True, uniform_aperiodic=True, hyper=True)


def _single_loop() -> CatalogEntry:
    g = Graph(("x",), (Edge("e", "x", "x"),))
    return CatalogEntry(
        "single_loop",
        "finite",
        "one vertex with one loop; the analytic Toeplitz algebra, not partly free",
        _ALL_FALSE,
        graph=g,
    )


def _n_loops(n: Optional[int]) -> CatalogEntry:
    n = 2 if n is None else n
    if n < 1:
        raise GraphError("n_loops needs n >= 1")
    _check_size(f"n_loops({n})", 1 + n)
    g = Graph(("x",), tuple(Edge(name, "x", "x") for name in _loop_names(n)))
    expected = _ALL_TRUE if n >= 2 else _ALL_FALSE
    return CatalogEntry(
        f"n_loops({n})",
        "finite",
        "one vertex with n loops; for n >= 2 the free semigroup algebra itself",
        expected,
        graph=g,
        default_depth=6,
    )


def _triangle_lfree() -> CatalogEntry:
    g = Graph(("x", "y"), (Edge("e", "x", "x"), Edge("f", "x", "y")))
    return CatalogEntry(
        "triangle_Lfree",
        "finite",
        "loop at x plus an edge x->y; a 2x2 matrix function algebra, not partly free",
        _ALL_FALSE,
        graph=g,
    )


def _partly_free_d() -> CatalogEntry:
    g = Graph(("x", "y"), (Edge("e", "x", "x"), Edge("f", "x", "y"), Edge("g", "y", "x")))
    return CatalogEntry(
        "partly_free_D",
        "finite",
        "loop at x, edge x->y and return edge y->x; smallest unitally partly free example",
        _ALL_TRUE,
        graph=g,
        default_depth=8,
    )


def _digraph_t() -> CatalogEntry:
    g = Graph(("x1", "x2", "x3"), (Edge("e", "x1", "x2"), Edge("f", "x1", "x3")))
    return CatalogEntry(
        "digraph_T",
        "finite",
        "acyclic fork on three vertices; a finite-dimensional digraph algebra",
        _ALL_FALSE,
        graph=g,
        default_depth=1,
    )


def _cycle(n: Optional[int]) -> CatalogEntry:
    n = 3 if n is None else n
    if n < 1:
        raise GraphError("cycle needs n >= 1")
    _check_size(f"cycle({n})", 2 * n)
    vertices = tuple(f"x{k}" for k in range(1, n + 1))
    edges = tuple(Edge(f"e{k}", f"x{k}", f"x{k % n + 1}") for k in range(1, n + 1))
    return CatalogEntry(
        f"cycle({n})",
        "finite",
        "directed n-cycle; the cycle algebras are the finite graphs that are not partly free",
        _ALL_FALSE,
        graph=Graph(vertices, edges),
    )


def _two_vertex_multi(k: Optional[int]) -> CatalogEntry:
    k = 2 if k is None else k
    if k < 1:
        raise GraphError("two_vertex_multi needs k >= 1")
    _check_size(f"two_vertex_multi({k})", 2 + k)
    edges = tuple(Edge(f"e{j}", "x1", "x2") for j in range(1, k + 1))
    return CatalogEntry(
        f"two_vertex_multi({k})",
        "finite",
        "k parallel edges x1->x2; unitarily equivalent to its commutant, not partly free",
        _ALL_FALSE,
        graph=Graph(("x1", "x2"), edges),
    )


def _ray_certificate(family: str, start: int) -> InfinitePathCertificate:
    def prefix(m: int) -> tuple[Edge, ...]:
        return tuple(Edge(_ie(k), _ix(k), _ix(k + 1)) for k in range(start, start + m))

    return InfinitePathCertificate(family, f"follow the edge ray upward from {_ix(start)}", prefix)


def _line_window_pair(vertices: list[str], edges: list[str]) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Tail pair along a line window, given its vertex names along the ray
    and the names of the edges between them: the k-th vertex maps to the
    (2k)-th and (2k+1)-th, with the connecting ray words as summands."""
    return [
        (vertices[k - 1], tuple(edges[k - 1 : 2 * k - 1]), tuple(edges[k - 1 : 2 * k]))
        for k in range(1, (len(vertices) - 1) // 2 + 1)
    ]


# the lines: name -> (default window, two-way, a loop at every vertex,
# hyper-reflexive, notes).  A window K has the vertices x1..xK, or xmK..xK
# for a two-way line, the edge e_i from x_i to x_(i+1), and the loop w_i at x_i.
_LINES = {
    "cycle_inf": (
        9, False, False, False,
        "one-way infinite line; unitally partly free though every finite cycle is not",
    ),
    "int_line": (
        4, True, False, True,
        "two-way infinite line; every saturation contains a proper infinite tail",
    ),
    "int_line_loops": (
        4, True, True, True,
        "two-way infinite line with a loop at every vertex; isomorphic to its own transpose; "
        "every saturation contains a proper infinite tail",
    ),
    "half_line_loops": (
        9, False, True, False,
        "one-way infinite line with loops; unitally partly free, its transpose not even partly free",
    ),
}


def _line(name: str, window: Optional[int]) -> CatalogEntry:
    default, two_way, loops, hyper, notes = _LINES[name]

    def ids(k: int) -> list[int]:
        return list(range(-k, k + 1) if two_way else range(1, k + 1))

    def truncate(k: int) -> Graph:
        n = 2 * k + 1 if two_way else k
        _check_window(name, k, 0 if two_way else 1, n + (n - 1) + (n if loops else 0))
        line = ids(k)
        edges = [Edge(_ie(i), _ix(i), _ix(i + 1)) for i in line[:-1]]
        if loops:
            edges += [Edge(f"w{_ix(i)[1:]}", _ix(i), _ix(i)) for i in line]
        return Graph(tuple(map(_ix, line)), tuple(edges), family=(name, k))

    def window_pair(k: int):
        line = ids(k)
        return _line_window_pair([*map(_ix, line)], [*map(_ie, line)])

    return CatalogEntry(
        name,
        "family",
        notes,
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=hyper, finite=False),
        truncate=truncate,
        default_window=default if window is None else window,
        certificate=_ray_certificate(name, 0 if two_way else 1),
        window_pair=window_pair,
    )


def _tree_gn(n: Optional[int], window: int = 3) -> CatalogEntry:
    n = 2 if n is None else n
    if not 1 <= n <= 9:
        raise GraphError("tree_Gn supports n in 1..9 (single-character branch labels)")

    def words_up_to(depth: int) -> list[str]:
        level = [""]
        out = [""]
        for _ in range(depth):
            level = [str(i) + w for w in level for i in range(1, n + 1)]
            level.sort()
            out.extend(level)
        return out

    def size(k: int) -> int:
        """Vertices plus edges of the window k, counted only up to just past the bound."""
        vertices = level = 1
        for _ in range(min(k, MAX_GRAPH_SIZE)):
            level *= n
            vertices += level
            if vertices > MAX_GRAPH_SIZE:
                break
        return 2 * vertices - 1

    def truncate(k: int) -> Graph:
        _check_window(f"tree_Gn({n})", k, 1, size(k))
        vertices = tuple("x" + w for w in words_up_to(k))
        edges = tuple(
            Edge("e" + str(i) + w, "x" + w, "x" + str(i) + w)
            for w in words_up_to(k - 1)
            for i in range(1, n + 1)
        )
        return Graph(vertices, edges, family=(f"tree_Gn({n})", k))

    def window_pair(k: int):
        if n == 1:  # the line x, x1, x11, ... along the edges e1, e11, ...
            return _line_window_pair(["x" + "1" * j for j in range(k + 1)], ["e" + "1" * t for t in range(1, k + 1)])
        return [("x" + w, ("e1" + w,), ("e2" + w,)) for w in words_up_to(k - 1)]

    def ray_prefix(m: int) -> tuple[Edge, ...]:
        return tuple(
            Edge("e" + "1" * t, "x" + "1" * (t - 1), "x" + "1" * t) for t in range(1, m + 1)
        )

    return CatalogEntry(
        f"tree_Gn({n})",
        "family",
        "sideways n-ary infinite tree indexed by free semigroup words; for n = 1 the infinite line",
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=False, finite=False),
        truncate=truncate,
        default_window=window,
        certificate=InfinitePathCertificate(
            f"tree_Gn({n})", "follow the branch of 1-labelled edges", ray_prefix
        ),
        window_pair=window_pair,
    )


def _star_in(window: Optional[int]) -> CatalogEntry:
    window = 6 if window is None else window

    def truncate(k: int) -> Graph:
        _check_window("star_in", k, 1, 2 * k - 1)
        vertices = tuple(f"x{i}" for i in range(1, k + 1))
        edges = tuple(Edge(f"e{i}", "x1", f"x{i}") for i in range(2, k + 1))
        return Graph(vertices, edges, family=("star_in", k))

    return CatalogEntry(
        "star_in",
        "family",
        "infinitely many edges out of one vertex; no infinite paths or double-cycles",
        _flags(finite=False),
        truncate=truncate,
        default_window=window,
    )


def _zigzag(window: Optional[int]) -> CatalogEntry:
    window = 3 if window is None else window

    def truncate(k: int) -> Graph:
        _check_window("zigzag", k, 1, 4 * k + 1)
        ids = list(range(-k, k + 1))
        vertices = tuple(_ix(i) for i in ids)
        edges = []
        for i in ids[:-1]:
            if i % 2 == 0:
                edges.append(Edge(_ie(i), _ix(i), _ix(i + 1)))
            else:
                edges.append(Edge(_ie(i), _ix(i + 1), _ix(i)))
        return Graph(vertices, tuple(edges), family=("zigzag", k))

    return CatalogEntry(
        "zigzag",
        "family",
        "alternating edges into every odd vertex; all paths have length <= 1",
        _flags(finite=False),
        truncate=truncate,
        default_window=window,
    )


def _rationals_q() -> CatalogEntry:
    def ray_prefix(m: int) -> tuple[Edge, ...]:
        return tuple(Edge(f"e{t}_{t - 1}", f"x{t - 1}", f"x{t}") for t in range(1, m + 1))

    return CatalogEntry(
        "rationals_Q",
        "metadata",
        "vertices indexed by the rationals with an edge p->q whenever p <= q; "
        "every vertex has infinite out-degree, so no finite window is materialized",
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=True, finite=False),
        certificate=InfinitePathCertificate(
            "rationals_Q", "follow the integer ray inside the rationals", ray_prefix
        ),
    )


_BUILDERS: dict[str, Callable[[Optional[int]], CatalogEntry]] = {
    "single_loop": lambda p: _require_no_param("single_loop", p, _single_loop),
    "n_loops": _n_loops,
    "triangle_Lfree": lambda p: _require_no_param("triangle_Lfree", p, _triangle_lfree),
    "partly_free_D": lambda p: _require_no_param("partly_free_D", p, _partly_free_d),
    "digraph_T": lambda p: _require_no_param("digraph_T", p, _digraph_t),
    "cycle": _cycle,
    "two_vertex_multi": _two_vertex_multi,
    **{name: lambda p, name=name: _line(name, p) for name in _LINES},
    "tree_Gn": _tree_gn,
    "star_in": _star_in,
    "zigzag": _zigzag,
    "rationals_Q": lambda p: _require_no_param("rationals_Q", p, _rationals_q),
}


def _require_no_param(name: str, param: Optional[int], builder: Callable[[], CatalogEntry]):
    if param is not None:
        raise GraphError(f"catalog entry {name!r} takes no argument")
    return builder()


class UnknownEntryError(GraphError):
    """No catalog entry has this name."""


_NAME_WITH_PARAM = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\((\d+)\))?$")


def builtin(name: str) -> CatalogEntry:
    """Look up a catalog entry, e.g. ``cycle(5)`` or ``cycle_inf``."""
    m = _NAME_WITH_PARAM.match(name.strip())
    if not m or m.group(1) not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog entry {name!r}")
    digits = m.group(2)
    if digits and len(digits.lstrip("0")) > len(str(MAX_GRAPH_SIZE)):
        raise GraphError(f"catalog entry {m.group(1)!r}: parameter exceeds {MAX_GRAPH_SIZE}")
    return _BUILDERS[m.group(1)](int(digits) if digits else None)


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


DEFAULT_FINITE_NAMES = (
    "single_loop", "n_loops(2)", "triangle_Lfree", "partly_free_D", "digraph_T", "cycle(3)",
    "two_vertex_multi(2)",
)

FAMILY_NAMES = (
    "cycle_inf", "int_line", "int_line_loops", "half_line_loops", "tree_Gn(1)", "tree_Gn(2)",
    "star_in", "zigzag", "rationals_Q",
)


def family_truncation(name: str, window: Optional[int] = None) -> Graph:
    entry = builtin(name)
    if entry.truncate is None:
        raise GraphError(f"catalog entry {entry.name!r} has no finite truncation")
    return entry.truncate(window if window is not None else entry.default_window)


def classify_family(name: str, window: Optional[int] = None) -> PropertyReport:
    """Stored ground-truth classification of a countable family.

    The attached certificate witnesses the aperiodic path where the flags
    say one exists.  A finite window of the family is available through
    :func:`family_truncation` for simulation, but it never drives the
    classification: a window of an infinite line is a finite line and
    classifies differently.
    """
    entry = builtin(name)
    if entry.kind == "finite":
        raise GraphError(f"catalog entry {entry.name!r} is finite; use classify_finite")
    return PropertyReport(
        **entry.expected_flags,
        double_cycle_witness=None,
        aperiodic_witness=entry.certificate if entry.expected_flags["aperiodic_path"] else None,
    )


def _implications_hold(flags: dict) -> bool:
    ok = (not flags["uniform_double_cycle"]) or flags["has_double_cycle"]
    ok &= (not flags["uniform_aperiodic_path"]) or flags["aperiodic_path"]
    ok &= flags["lg_partly_free"] == flags["aperiodic_path"]
    ok &= flags["lg_unitally_partly_free"] == flags["uniform_aperiodic_path"]
    ok &= flags["ag_partly_free"] == flags["has_double_cycle"]
    ok &= flags["ag_unitally_partly_free"] == (
        flags["vertex_count_finite"] and flags["uniform_double_cycle"]
    )
    ok &= (not flags["has_double_cycle"]) or flags["aperiodic_path"]
    return ok


@dataclass(frozen=True)
class EntryCheck:
    name: str
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for label, ok, detail in self.checks:
            suffix = f" ({detail})" if detail else ""
            out.append(f"{'ok  ' if ok else 'FAIL'} {label}{suffix}")
        return out


def check_entry(name: str, depth: Optional[int] = None) -> EntryCheck:
    """Regression check: classification against stored truth, plus pair
    construction and exact verification wherever the flags promise one.

    A depth below 0 or above the basis cap, and a pair check whose
    truncation exceeds the cap, raise :class:`GraphError`: the depth is a
    usage error, not a failed check.
    """
    entry = builtin(name)
    depth = entry.default_depth if depth is None else depth
    if not 0 <= depth <= DEFAULT_BASIS_CAP:
        raise GraphError(f"depth {depth} is outside 0..{DEFAULT_BASIS_CAP}")
    checks: list[tuple[str, bool, str]] = []

    checks.append(("stored flags internally consistent", _implications_hold(entry.expected_flags), ""))

    if entry.kind == "finite":
        computed = classify_finite(entry.graph).flags()
        ok = computed == entry.expected_flags
        detail = "" if ok else f"computed {computed}"
        checks.append(("classification matches stored truth", ok, detail))
        g = entry.graph
        if entry.expected_flags["ag_partly_free"]:
            checks.append(_pair_check(g, "quiver", depth))
            checks.append(_pair_check(g, "double-cycle", depth))
        if entry.expected_flags["lg_unitally_partly_free"]:
            checks.append(_pair_check(g, "unital", depth))
    else:
        if entry.truncate is not None:
            window = entry.default_window
            truncation = entry.truncate(window)
            ok = truncation.family == (entry.name, window)
            if not entry.expected_flags["has_double_cycle"]:
                # a window of a double-cycle-free family must stay free of them
                ok &= not double_cycle_witnesses(truncation)
            checks.append((f"window K={window} builds", ok, f"{len(truncation.vertices)} vertices"))
        if entry.certificate is not None:
            try:
                entry.certificate.validate(32)
                checks.append(("infinite-path certificate valid", True, "first 32 edges"))
            except GraphError as exc:
                checks.append(("infinite-path certificate valid", False, str(exc)))
        if entry.window_pair is not None and entry.expected_flags["lg_partly_free"]:
            checks.append(_pair_check(truncation, "infinite-path", depth))
    return EntryCheck(entry.name, tuple(checks))


def _pair_check(g: Graph, mode: str, depth: int) -> tuple[str, bool, str]:
    """Construct the ``mode`` pair on ``g`` and verify it at ``depth``, or
    at its longest word where that is deeper and ``g`` is no family window.
    A :class:`BasisCapError` propagates; other errors fail the check."""
    label = f"{mode} pair verifies" if g.family is None else "windowed tail pair verifies"
    try:
        pair = construct_pair(g, mode)
        if g.family is None:
            depth = max(depth, pair.max_word_length())
            at = f"N={depth}"
        else:
            at = f"K={g.family[1]}, N={depth}"
        report = verify_materialized(pair, build_basis(g, depth))
    except BasisCapError:
        raise
    except GraphError as exc:
        return (label, False, str(exc))
    return (f"{label} ({at})", report.passed, "; ".join(report.messages))


def example_pair_partly_free_D(g: Optional[Graph] = None) -> FormalIsometryPair:
    """The classical unital pair on the partly_free_D graph:
    U = L_e^2 + L_f L_g and V = L_e L_g + L_f L_e.

    Both operators split over the two vertices, so U*U = V*V = I up to
    the interior level, and no word is a left factor of another, so
    U*V = 0 exactly.
    """
    if g is None:
        g = builtin("partly_free_D").graph
    return FormalIsometryPair(
        "unital",
        (Summand("x", word(g, ("e", "e"))), Summand("y", word(g, ("g", "f")))),
        (Summand("y", word(g, ("g", "e"))), Summand("x", word(g, ("e", "f")))),
        frozenset({"x", "y"}),
    )


def commutant_check(g: Graph, depth: int, seed: int = DEFAULT_SEED) -> bool:
    """L_a R_b == R_b L_a exactly, for all generators and sampled words,
    and the right regular representation matches the left one of the
    transpose graph under word reversal."""
    basis = build_basis(g, depth)
    gens = [unit(g, v) for v in g.vertices] + [word(g, (e.name,)) for e in g.edges]
    rights = [right_op(basis, b) for b in gens]
    for a in gens:
        la = left_op(basis, a)
        for rb in rights:
            if la * rb != rb * la:
                return False
    rng = random.Random(seed)
    words = enumerate_paths(g, min(3, depth))
    for _ in range(50):
        a, b = rng.choice(words), rng.choice(words)
        la, rb = left_op(basis, a), right_op(basis, b)
        if la * rb != rb * la:
            return False

    basis_t = build_basis(transpose(g), depth)
    # a path and its reversal in the transpose have reversed literals, and
    # the same length; a unit's literal is its own
    index = {lit: i for i, lit in enumerate(chain.from_iterable(basis_t.literal_levels()))}
    perm = [index[b".".join(lit.split(b".")[::-1])] for lit in chain.from_iterable(basis.literal_levels())]
    for w in gens + [rng.choice(words) for _ in range(10)]:
        rw = right_op(basis, w)
        lw_t = left_op(basis_t, Path(w.target, w.source, tuple(reversed(w.edges))))
        mapped = {(perm[r], perm[c]): v for (r, c), v in rw.entries.items()}
        if mapped != lw_t.entries:
            return False
    return True
