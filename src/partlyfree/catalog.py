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
from fractions import Fraction
from typing import Callable, Optional

from .fock import (
    DEFAULT_BASIS_CAP,
    BasisCapError,
    build_basis,
    fourier_coefficients,
    left_op,
    right_op,
    vertex_projection,
)
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
from .paths import Path, enumerate_paths, literal, unit, word

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


def _line_window_pair(indices: list[int]) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Tail pair along an enumerated line window: k-th vertex maps to the
    (2k)-th and (2k+1)-th, with the connecting ray words as summands."""
    triples = []
    k = 1
    while 2 * k + 1 <= len(indices):
        src = indices[k - 1]
        u_edges = tuple(_ie(i) for i in indices[k - 1 : 2 * k - 1])
        v_edges = tuple(_ie(i) for i in indices[k - 1 : 2 * k])
        triples.append((_ix(src), u_edges, v_edges))
        k += 1
    return triples


def _cycle_inf(window: Optional[int]) -> CatalogEntry:
    window = 9 if window is None else window

    def truncate(k: int) -> Graph:
        _check_window("cycle_inf", k, 1, 2 * k - 1)
        vertices = tuple(f"x{i}" for i in range(1, k + 1))
        edges = tuple(Edge(f"e{i}", f"x{i}", f"x{i + 1}") for i in range(1, k))
        return Graph(vertices, edges, family=("cycle_inf", k))

    def window_pair(k: int):
        return _line_window_pair(list(range(1, k + 1)))

    return CatalogEntry(
        "cycle_inf",
        "family",
        "one-way infinite line; unitally partly free though every finite cycle is not",
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=False, finite=False),
        truncate=truncate,
        default_window=window,
        certificate=_ray_certificate("cycle_inf", 1),
        window_pair=window_pair,
    )


def _int_line(window: Optional[int], with_loops: bool) -> CatalogEntry:
    window = 4 if window is None else window
    name = "int_line_loops" if with_loops else "int_line"

    def truncate(k: int) -> Graph:
        _check_window(name, k, 0, (6 if with_loops else 4) * k + (2 if with_loops else 1))
        ids = list(range(-k, k + 1))
        vertices = tuple(_ix(i) for i in ids)
        edges = [Edge(_ie(i), _ix(i), _ix(i + 1)) for i in ids[:-1]]
        if with_loops:
            edges += [Edge(f"w{_ix(i)[1:]}", _ix(i), _ix(i)) for i in ids]
        return Graph(vertices, tuple(edges), family=(name, k))

    def window_pair(k: int):
        return _line_window_pair(list(range(-k, k + 1)))

    notes = "two-way infinite line"
    if with_loops:
        notes += " with a loop at every vertex; isomorphic to its own transpose"
    return CatalogEntry(
        name,
        "family",
        notes + "; every saturation contains a proper infinite tail",
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=True, finite=False),
        truncate=truncate,
        default_window=window,
        certificate=_ray_certificate(name, 0),
        window_pair=window_pair,
    )


def _half_line_loops(window: Optional[int]) -> CatalogEntry:
    window = 9 if window is None else window

    def truncate(k: int) -> Graph:
        _check_window("half_line_loops", k, 1, 3 * k - 1)
        vertices = tuple(f"x{i}" for i in range(1, k + 1))
        edges = [Edge(f"e{i}", f"x{i}", f"x{i + 1}") for i in range(1, k)]
        edges += [Edge(f"w{i}", f"x{i}", f"x{i}") for i in range(1, k + 1)]
        return Graph(vertices, tuple(edges), family=("half_line_loops", k))

    def window_pair(k: int):
        return _line_window_pair(list(range(1, k + 1)))

    return CatalogEntry(
        "half_line_loops",
        "family",
        "one-way infinite line with loops; unitally partly free, its transpose not even partly free",
        _flags(aperiodic=True, uniform_aperiodic=True, hyper=False, finite=False),
        truncate=truncate,
        default_window=window,
        certificate=_ray_certificate("half_line_loops", 1),
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
        if n == 1:
            triples = []
            j = 1
            while 2 * j + 1 <= k + 1:  # positions 1..k+1 along the single ray
                src = "x" + "1" * (j - 1)
                u_edges = tuple("e" + "1" * t for t in range(j, 2 * j))
                v_edges = tuple("e" + "1" * t for t in range(j, 2 * j + 1))
                triples.append((src, u_edges, v_edges))
                j += 1
            return triples
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
    "cycle_inf": _cycle_inf,
    "int_line": lambda p: _int_line(p, with_loops=False),
    "int_line_loops": lambda p: _int_line(p, with_loops=True),
    "half_line_loops": _half_line_loops,
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
        elements.append(left_op(basis, w))
    rng = random.Random(seed)
    gen_words = [unit(g, v) for v in g.vertices] + [word(g, (e.name,)) for e in g.edges]
    for _ in range(20):
        product = left_op(basis, rng.choice(gen_words))
        for _ in range(rng.randint(1, depth - 1)):
            product = product * left_op(basis, rng.choice(gen_words))
        elements.append(product)
        combo = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice(elements)
        elements.append(combo + product)
    return all(cycle_residue_conforms(n, fourier_coefficients(a)) for a in elements)


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
    elements = [left_op(basis, w) for w in enumerate_paths(g, min(4, depth))]
    for _ in range(10):
        a, b = rng.choice(elements), rng.choice(elements)
        elements.append(Fraction(rng.randint(1, 5)) * a + b)
    px = vertex_projection(basis, "x")
    py = vertex_projection(basis, "y")
    corner_scalar = True
    corner_zero = True
    corner_hinf0 = True
    for a in elements:
        yy = fourier_coefficients(py * a * py)
        corner_scalar &= all(w.is_unit and w.source == "y" for w in yy)
        corner_zero &= (px * a * py).is_zero()
        yx = fourier_coefficients(py * a * px)
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
        + l * left_op(b5, word(g5, ("e",)))
        + m * left_op(b5, word(g5, ("f",)))
    )
    idx = {literal(p): i for i, p in enumerate(b5.paths)}
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

    gt = transpose(g)
    basis_t = build_basis(gt, depth)
    perm = {
        i: basis_t.ordinal(Path(p.target, p.source, tuple(reversed(p.edges))))
        for i, p in enumerate(basis.paths)
    }
    for w in gens + [rng.choice(words) for _ in range(10)]:
        rw = right_op(basis, w)
        lw_t = left_op(basis_t, Path(w.target, w.source, tuple(reversed(w.edges))))
        mapped = {(perm[r], perm[c]): v for (r, c), v in rw.entries.items()}
        if mapped != lw_t.entries:
            return False
    return True
