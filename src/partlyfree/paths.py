"""The free semigroupoid of a directed graph: units, edge words, composition.

A path is either a unit (a vertex) or a nonempty composable word of
edges.  Words are stored in traversal order: ``edges[0]`` is traversed
first, so in the usual right-to-left notation the stored tuple reads
reversed.  The path literal syntax used by files and the CLI is
dot-separated with the *last*-traversed edge leftmost (``g.f`` is the
path that traverses ``f`` then ``g``); units are written ``@x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError


@dataclass(frozen=True)
class Path:
    """Element of the free semigroupoid: ``source`` --word--> ``target``."""

    source: str
    target: str
    edges: tuple[str, ...]

    @property
    def is_unit(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)


def unit(g: Graph, x: str) -> Path:
    if not g.has_vertex(x):
        raise GraphError(f"unknown vertex {x!r}")
    return Path(x, x, ())


def word(g: Graph, edge_names: Iterable[str]) -> Path:
    """Build a word path from edge names in traversal order."""
    names = tuple(edge_names)
    if not names:
        raise GraphError("a word path needs at least one edge; use unit() for vertices")
    edges = [g.edge(n) for n in names]
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            raise GraphError(f"edges {a.name!r},{b.name!r} do not compose")
    return Path(edges[0].src, edges[-1].dst, names)


def path_from_literal(g: Graph, text: str) -> Path:
    """Parse ``@x`` or a dot-separated word like ``e3.e2.e1``.

    In the literal the leftmost edge is applied last, matching the
    right-to-left path notation.
    """
    text = text.strip()
    if not text:
        raise GraphError("empty path literal")
    if text.startswith("@"):
        return unit(g, text[1:])
    parts = text.split(".")
    if any(not p for p in parts):
        raise GraphError(f"malformed path literal {text!r}")
    return word(g, tuple(reversed(parts)))


def literal(p: Path) -> str:
    if p.is_unit:
        return f"@{p.source}"
    return ".".join(reversed(p.edges))


def enumerate_paths(g: Graph, max_length: int) -> list[Path]:
    """All paths of length 0..max_length, ordered by (length, word, source).

    Words compare lexicographically on their traversal-order edge names.
    The order is deterministic and each level extends the previous one,
    so the listing for a smaller bound is a prefix of the listing for a
    larger bound.
    """
    if max_length < 0:
        raise GraphError("max_length must be >= 0")
    level = sorted((unit(g, v) for v in g.vertices), key=lambda p: p.source)
    out = list(level)
    out_edges = {v: g.out_edges(v) for v in g.vertices}
    for _ in range(max_length):
        nxt = []
        for p in level:
            for e in out_edges[p.target]:
                nxt.append(Path(p.source, e.dst, p.edges + (e.name,)))
        if not nxt:
            break
        level = sorted(nxt, key=lambda p: (p.edges, p.source))
        out.extend(level)
    return out
