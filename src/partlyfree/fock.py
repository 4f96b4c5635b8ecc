"""Truncated Fock space of a graph and exact sparse operators on it.

The Fock space of a graph has an orthonormal basis indexed by the paths
of the free semigroupoid; the truncation at depth N keeps the paths of
length <= N.  On that finite space the creation-type generators act by

    L_w xi_v = xi_{wv}  if wv composes and |wv| <= N, else 0
    R_w xi_v = xi_{vw}  if vw composes and |vw| <= N, else 0

with L_x = P_x (projection onto paths with range x) and R_x = Q_x
(projection onto paths with source x) for a vertex x.  All generator
matrices are 0/1 and every operator built from them stays exactly
rational, so identities are checked with zero tolerance.

Truncation semantics: images that would exceed length N map to 0.
Identities that hold on the infinite space only up to this boundary are
always stated against the interior projections E_m (onto paths of length
<= m) rather than by comparing raw matrices.

The basis is a trie of flat integer arrays (:class:`FockBasis`), one
entry per path; building, hashing and applying L_w and R_w to it create
no :class:`Path` objects, and a path is read back up the trie only where
needed (the Fourier tables' unit columns).  L_w is read off the trie as
a run, two strictly ascending ``array("i")`` of ordinals (:func:`left_runs`
proves the order), on which :mod:`pairs` decides its identities; sums of
q times such 0/1 maps are added into one dict by :func:`combine_runs`.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import mul
from struct import Struct, pack
from sys import byteorder
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Graph, GraphError
from .paths import Path, enumerate_paths, literal, unit

DEFAULT_BASIS_CAP = 2_000_000
MAX_PATHS = (1 << 31) - 1  # ordinals and first children are int32
CHUNK = 1 << 10  # parents per chunk of a level built path by path
PIECE = 1 << 14  # int32 lanes per piece of a memo block in build_basis
MEMO_COST = 16  # paths that one step of the memo costs per vertex and edge
RUN_CHUNK = 1 << 12  # scanned columns per chunk of left_runs
_LANE = Struct("i").pack


class BasisCapError(GraphError):
    """The requested truncation is larger than the configured cap."""


@dataclass
class FockBasis:
    """Ordered basis of all paths of length <= depth, stored as a trie.

    Ordinals follow :func:`paths.enumerate_paths`, by (length, word,
    source): first the units in vertex-name order, then the one-edge paths
    in edge-name order.  At every level >= 1 the children of a path (the
    path followed by one more edge) are contiguous, in the order of their
    parents, and siblings are in edge-name order.  So the child of a path
    i of length >= 1 along e is ``first_child[i]`` plus the rank of e among
    the out-edges of its source, and the child of a unit along e is the
    one-edge path e (the step in :meth:`ordinal`).

    * ``vertices``: the vertex names in sorted order; a vertex id is a
      position in it, which is also the ordinal of its unit;
    * ``offsets[k]``: the ordinal of the first path of length k, for
      k = 0..depth + 1, so ``offsets[depth + 1] == dim``;
    * ``target[i]``: the vertex id of the range of path i;
    * ``first_child[i]``: for 1 <= len(path i) < depth, the ordinal of its
      first child (units hold an unused 0); both are ``array("i")``.

    ``paths`` is a cached view: the tuple of :class:`Path` objects in
    ordinal order, built on first read and then kept.
    """

    graph: Graph
    depth: int
    vertices: tuple[str, ...]
    offsets: tuple[int, ...]
    target: array = field(repr=False)
    first_child: array = field(repr=False)

    def __post_init__(self):
        # vertex and edge ids are those of the graph's index
        self.vertex_id = self.graph.vid

    @property
    def dim(self) -> int:
        return len(self.target)

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        return tuple(enumerate_paths(self.graph, self.depth))

    def upto(self, m: int) -> int:
        """Number of basis paths of length <= m; they are the ordinals below it."""
        return self.offsets[min(m, self.depth) + 1] if m >= 0 else 0

    def length(self, i: int) -> int:
        return bisect_right(self.offsets, i) - 1

    def ordinal(self, p: Path) -> int:
        g = self.graph
        i = self.vertex_id.get(p.source)
        if i is not None and len(p) <= self.depth:
            eid, src, rank = g.eid, g.edge_src, g.edge_rank
            one, first_child, target = self.offsets[1], self.first_child, self.target
            for e in p.edges:
                k = eid.get(e)
                if k is None or src[k] != target[i]:
                    break
                # the child of path i along e
                i = one + k if i < one else first_child[i] + rank[k]
            else:
                if self.vertices[self.target[i]] == p.target:
                    return i
        raise GraphError(f"path {literal(p)} is not in the basis")

    def path(self, i: int) -> Path:
        """The path with ordinal i, read back up the trie: the parent of a
        path i of length >= 2 is the last path j one shorter with
        ``first_child[j] <= i`` (found by bisection, as ``first_child``
        grows over a level, :func:`left_runs`), along the out-edge of rank
        ``i - first_child[j]``."""
        if not 0 <= i < self.dim:
            raise GraphError(f"ordinal {i} is not in the basis")
        k = self.length(i)
        end = self.vertices[self.target[i]]
        if k == 0:
            return Path(end, end, ())
        g = self.graph
        edges = []
        for k in range(k, 1, -1):
            j = bisect_right(self.first_child, i, self.offsets[k - 1], self.offsets[k]) - 1
            e = g.out_edge[g.out_start[self.target[j]] + i - self.first_child[j]]
            edges.append(g.edge_by_id[e].name)
            i = j
        first = g.edge_by_id[i - self.offsets[1]]
        edges.append(first.name)
        return Path(first.src, end, tuple(reversed(edges)))

    def literal_levels(self) -> Iterator[list[bytes]]:
        """The UTF-8 literals of the basis paths in ordinal order, one list
        per length up to the longest path; the children of a parent are
        ``e.parent`` for the out-edges e of its range, by rank."""
        yield [f"@{v}".encode() for v in self.vertices]
        out = map(self.graph.out_edges, self.vertices)
        prefixes = [[f"{e.name}.".encode() for e in edges] for edges in out]
        for k in range(1, self.depth + 1):
            lo, hi = self.offsets[k - 1], self.offsets[k]
            if hi == self.offsets[k + 1]:
                return
            if k == 1:
                level = [e.name.encode() for e in self.graph.edge_by_id]
            else:
                level = [
                    step + parent
                    for parent, t in zip(level, self.target[lo:hi])
                    for step in prefixes[t]
                ]
            yield level

    def basis_hash(self) -> str:
        """SHA-256 of the depth and each basis literal and newline, 12 hex digits."""
        digest = hashlib.sha256()
        digest.update(str(self.depth).encode())
        for level in self.literal_levels():
            if level:
                digest.update(b"\n".join(level))
                digest.update(b"\n")
        return digest.hexdigest()[:12]


def build_basis(g: Graph, depth: int, cap: int = DEFAULT_BASIS_CAP) -> FockBasis:
    """Build the depth-N truncation level by level, refusing absurd dimensions.

    Let sigma^m(x) be the targets of the paths of length m from vertex x
    in ordinal order; sigma^1(x) is ``heads[x]``, the heads of the
    out-edges of x by rank.  Children follow their parents' order,
    siblings by rank, and a path of length m + 1 from x is an out-edge to
    a head h and a path of length m from h.  So (1) sigma^(m+1)(x) is the
    join of sigma^m(h) over the heads h of x, and (2) level a + m is the
    join of sigma^m(t) over the targets t of level a; level k is the join
    of sigma^(k-1)(dst e) over the edges e.

    In (2) the paths of level a + m - 1 below a path of level a ending at
    t are sigma^(m-1)(t), and their children the block sigma^m(t).  Let
    fc^m(x) be the first children of sigma^(m-1)(x) relative to the start
    of sigma^m(x); fc^1(x) = (0).  By (1) the paths of sigma^m(x) and their
    children are grouped alike by their first edge, so (3) fc^(m+1)(x) is
    the join of fc^m(h) over the heads h of x, each raised by the sizes of
    sigma^m of the heads before h; and the first children of level
    a + m - 1 are the join of fc^m(t) over the targets t of level a, each
    raised by the start of its block (:func:`_raised`).

    Level a is the *anchor*.  A level of at most ``MEMO_COST`` (|V| + |E|)
    paths becomes the next anchor, and the next level is built path by
    path (m = 1), ``CHUNK`` parents at a time.  After a longer level the
    memo of sigma^m and fc^m, for all vertices in pieces of at most
    ``PIECE`` lanes, takes a step of (1) and (3), O(|V| + |E|) work paid
    by that level; the next level is a join and a sum over the anchor,
    which is shorter.  So the build takes O(dim + N) steps besides byte
    copies.  Each level's size is checked against the cap, and 2**31 - 1,
    before its paths are added, so a runaway graph is refused early.
    """
    if depth < 0:
        raise GraphError("depth must be >= 0")
    if depth > cap:
        # ``offsets`` keeps an entry for every level, the empty ones too
        raise BasisCapError(
            f"depth {depth} is above the cap of {cap}; lower the depth or raise the cap"
        )
    limit = min(cap, MAX_PATHS)

    def check(count: int) -> None:
        if count > limit:
            raise BasisCapError(
                f"truncation needs more than {limit} basis paths; lower the depth"
                + (" or raise the cap" if cap < MAX_PATHS else " (ordinals are int32)")
            )

    vertices, start, head = g.vertex_name, g.out_start, g.out_head
    check(len(vertices))
    target = array("i", range(len(vertices)))
    first_child = array("i", [0]) * len(vertices)
    offsets = [0, len(target)]
    if depth >= 1 and g.edges:
        check(len(target) + len(g.edges))
        target.extend(g.edge_dst)
        offsets.append(len(target))
        room = MEMO_COST * len(target)
        degree = [b - a for a, b in zip(start, start[1:])]
        most = max(degree)
        if depth >= 2:
            lanes = array("i", head).tobytes()
            heads = [lanes[4 * a : 4 * b] for a, b in zip(start, start[1:])]
        for _ in range(2, depth + 1):
            lo, hi = offsets[-2], offsets[-1]
            if hi - lo <= room:
                anchor, fc = target[lo:hi], None
                if hi + (hi - lo) * most > limit:  # check the size before any of it is joined
                    check(hi + sum(map(degree.__getitem__, anchor)))
                for i in range(0, hi - lo, CHUNK):
                    chunk = anchor[i : i + CHUNK]
                    ends = list(accumulate(map(degree.__getitem__, chunk), initial=len(target)))
                    ends.pop()
                    first_child.fromlist(ends)
                    target.frombytes(b"".join(map(heads.__getitem__, chunk)))
            else:
                if fc is None:  # sigma^1 and fc^1 as lists of pieces, and the heads of each vertex
                    sig, size, fc = [[h] for h in heads], degree, [[bytes(4)]] * len(vertices)
                    outs = [head[a:b] for a, b in zip(start, start[1:])]
                # (3) and (1) for every vertex
                raises = [accumulate(map(size.__getitem__, h), initial=0) for h in outs]
                fc = [_raised([*map(fc.__getitem__, h)], r) for h, r in zip(outs, raises)]
                size = [sum(map(size.__getitem__, h)) for h in outs]
                sig = [_joined(chain.from_iterable(map(sig.__getitem__, h))) for h in outs]
                # (2) over the anchor
                ends = list(accumulate(map(size.__getitem__, anchor), initial=hi))
                check(ends[-1])
                for piece in _raised([*map(fc.__getitem__, anchor)], ends):
                    first_child.frombytes(piece)
                for piece in _joined(chain.from_iterable(map(sig.__getitem__, anchor))):
                    target.frombytes(piece)
            if len(target) == hi:
                break
            offsets.append(len(target))
    offsets += [len(target)] * (depth + 2 - len(offsets))
    return FockBasis(g, depth, vertices, tuple(offsets), target, first_child)


def _raised(blocks: list[list[bytes]], starts: Iterable[int]) -> list[bytes]:
    """The int32 lanes of ``blocks``, lists of pieces, each block's lanes
    raised by its start, in the pieces of :func:`_cuts`.  Each piece is one
    sum of two big integers; no lane carries, as each sum is a first child,
    at most the dimension, which :func:`build_basis` keeps below 2**31."""
    pieces = [*chain.from_iterable(blocks)]
    starts = [*map(_LANE, chain.from_iterable(map(repeat, starts, map(len, blocks))))]
    lanes = [len(piece) >> 2 for piece in pieces]
    out = []
    for i, j in _cuts(lanes):
        joined = b"".join(pieces[i:j])
        total = int.from_bytes(joined, byteorder)
        total += int.from_bytes(b"".join(map(mul, starts[i:j], lanes[i:j])), byteorder)
        out.append(total.to_bytes(len(joined), byteorder))
    return out


def _joined(pieces: Iterable[bytes]) -> list[bytes]:
    """The join of ``pieces`` in the pieces of :func:`_cuts`."""
    pieces = [*pieces]
    return [b"".join(pieces[i:j]) for i, j in _cuts([len(piece) >> 2 for piece in pieces])]


def _cuts(lanes: list[int]) -> list[tuple[int, int]]:
    """Runs ``[i, j)`` of consecutive pieces of ``lanes`` int32 lanes, of at
    most ``PIECE`` lanes or one longer piece.  A piece of at most 64 KiB is
    below the 128 KiB from which glibc's malloc maps memory, so freeing one
    never raises that threshold, which would keep later large arrays in
    the heap, where their memory is not returned when they are freed."""
    ends = [*accumulate(lanes, initial=0)]
    cuts = [0]
    while cuts[-1] < len(lanes):
        i = cuts[-1]
        cuts.append(max(i + 1, bisect_right(ends, ends[i] + PIECE) - 1))
    return [*zip(cuts, cuts[1:])]


class SparseOp:
    """Exact sparse matrix over a Fock basis, entries in Q.

    Entries are stored as ``(row, col) -> Fraction`` with no explicit
    zeros; equality is entrywise exact.  The adjoint is the transpose
    since every operator here has real rational entries.  Instances are
    immutable by convention; arithmetic returns new operators.  Results
    nonzero by construction skip the constructor's zero filter.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis: FockBasis, entries: Mapping[tuple[int, int], Fraction]):
        self.basis = basis
        self.entries = {k: v for k, v in entries.items() if v != 0}

    @classmethod
    def _nonzero(cls, basis: FockBasis, entries: dict) -> "SparseOp":
        """``entries``, all known to be nonzero, neither copied nor checked."""
        op = cls.__new__(cls)
        op.basis = basis
        op.entries = entries
        return op

    @classmethod
    def zero(cls, basis: FockBasis) -> "SparseOp":
        return cls._nonzero(basis, {})

    @classmethod
    def identity(cls, basis: FockBasis) -> "SparseOp":
        one = Fraction(1)
        return cls._nonzero(basis, {(i, i): one for i in range(basis.dim)})

    def _check_same_basis(self, other: "SparseOp") -> None:
        if self.basis is not other.basis and (
            self.basis.graph != other.basis.graph or self.basis.depth != other.basis.depth
        ):
            raise GraphError("operators live over different bases")

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other: "SparseOp") -> "SparseOp":
        self._check_same_basis(other)
        a, b = self.entries, other.entries
        out = {**a, **b}
        # only where both have an entry can the sum be zero
        for k in a.keys() & b.keys():
            s = a[k] + b[k]
            if s:
                out[k] = s
            else:
                del out[k]
        return SparseOp._nonzero(self.basis, out)

    def __sub__(self, other: "SparseOp") -> "SparseOp":
        return self + (-other)

    def __neg__(self) -> "SparseOp":
        return SparseOp._nonzero(self.basis, {k: -v for k, v in self.entries.items()})

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
            if not q:
                return SparseOp.zero(self.basis)
            # q times each distinct entry object, once: the entries of a 0/1 map share one
            products = {i: q * v for i, v in {id(v): v for v in self.entries.values()}.items()}
            out = {k: products[id(v)] for k, v in self.entries.items()}
            return SparseOp._nonzero(self.basis, out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "SparseOp":
        return SparseOp._nonzero(self.basis, {(c, r): v for (r, c), v in self.entries.items()})

    def __repr__(self):
        return f"SparseOp(dim={self.basis.dim}, nnz={self.nnz})"


Run = tuple[array, array]


def left_runs(b: FockBasis, words: Sequence[Path]) -> list[Run]:
    """The runs of the truncated L_w, one for each of ``words``, which
    must share one source.

    The run of L_w is its 0/1 partial map v |-> wv, for every path v with
    range source(w) and |wv| <= N, as two ``array("i")`` of basis
    ordinals: the columns v and, at the same positions, the rows wv.  A
    word longer than the depth gives the empty run.  A sum of L_w over
    distinct sources is the union of their runs, since their columns are
    disjoint.

    One scan finds the columns of the shortest word that fits, ``RUN_CHUNK``
    ordinals at a time; each longer word keeps a prefix of them (found by
    bisection).  The unit column maps to w itself, and every longer column
    takes |w| child steps along the edges of w; the steps along the common
    traversal prefix of the words are taken once for all of them.  So no
    path is built or hashed, and a chunk's lists are the only Python ints
    held.

    Both arrays of a run are strictly ascending, the unit column first:

    * the columns are scanned in ordinal order; the unit's ordinal is its
      vertex id, below every path of length >= 1;
    * the unit maps to w, and every other row wv is longer than w, as
      |v| >= 1; ordinals grow with length, so w comes first;
    * the other rows start as the columns and take the same child steps.
      The columns of a run share one range, so after each step the rows
      still share a range, and the next edge has one rank among its
      out-edges; a step adds that rank to ``first_child``.  The children
      of each level are contiguous in the order of their parents, and a
      level's children follow all of its own paths, so ``first_child``
      strictly increases over the paths that have children.  Every row
      has a child along the next edge of w, so each step keeps the rows
      strictly ascending.
    """
    for w in words:
        _check_path(b.graph, w)
    fits = [w for w in words if len(w) <= b.depth]
    if not fits:
        return [(array("i"), array("i")) for _ in words]
    s = b.vertex_id[fits[0].source]
    target, first_child = b.target, b.first_child

    eid, edge_rank = b.graph.eid, b.graph.edge_rank

    def steps(rows: list[int], edges: tuple[str, ...]) -> list[int]:
        for e in edges:
            rank = edge_rank[eid[e]]
            rows = [first_child[i] + rank for i in rows]
        return rows

    shortest = min(map(len, fits))
    common = 0
    while common < shortest and len({w.edges[common] for w in fits}) == 1:
        common += 1
    runs = [(array("i"), array("i")) for _ in words]
    for w, (cols, rows) in zip(words, runs):
        if len(w) <= b.depth:
            cols.append(s)
            rows.append(b.ordinal(w))
    # each word's columns end below its cut; a word past the depth has cut 0
    cuts = [b.upto(b.depth - len(w)) for w in words]
    end = b.upto(b.depth - shortest)
    for lo in range(b.offsets[1], end, RUN_CHUNK):
        hi = min(lo + RUN_CHUNK, end)
        # on one vertex every path ends at s
        scan = list(range(lo, hi)) if len(b.vertices) == 1 else [
            i for i, t in enumerate(target[lo:hi], lo) if t == s
        ]
        shared = steps(scan, fits[0].edges[:common])
        for w, (cols, rows), cut in zip(words, runs, cuts):
            if lo < cut:
                n = bisect_left(scan, cut)
                # packing converts a list about twice as fast as array.fromlist
                fmt = f"{n}i"
                cols.frombytes(pack(fmt, *scan[:n]))
                rows.frombytes(pack(fmt, *steps(shared[:n], w.edges[common:])))
    return runs


def left_map(b: FockBasis, w: Path) -> Run:
    """The truncated L_w as its run ``(cols, rows)``: two strictly
    ascending ``array("i")`` of basis ordinals, the unit column first,
    with L_w xi_cols[k] = xi_rows[k] (:func:`left_runs`)."""
    return left_runs(b, (w,))[0]


def right_map(b: FockBasis, w: Path) -> Run:
    """The truncated right-regular operator R_w (Q_x for a unit) as its
    0/1 partial map ``(cols, rows)``, two ``array("i")`` of basis
    ordinals, with R_w xi_cols[k] = xi_rows[k].

    R_w maps the unit at target(w) to w, and v followed by an edge e to
    R_w v followed by e; so every column's image is one child step from
    the image of its parent, which has a lower ordinal.  A word longer
    than the depth gives the empty map."""
    _check_path(b.graph, w)
    if len(w) > b.depth:
        return array("i"), array("i")
    g = b.graph
    start, out_edge = g.out_start, g.out_edge
    one, first_child, target = b.offsets[1], b.first_child, b.target

    rows = {b.vertex_id[w.target]: b.ordinal(w)}
    # the parents: columns whose children v still have |vw| <= N.  A column
    # and its image end at the same vertex t; their children along the
    # out-edge at position p of t are the one-edge path out_edge[p] for a
    # unit, else first_child + p - start[t]
    for i in range(b.upto(b.depth - len(w) - 1)):
        image = rows.get(i)
        if image is not None:
            t = target[i]
            lo = start[t]
            c, r = first_child[i] - lo, first_child[image] - lo
            for p in range(lo, start[t + 1]):
                rows[one + out_edge[p] if i < one else c + p] = (
                    one + out_edge[p] if image < one else r + p
                )
    fmt = f"{len(rows)}i"
    return array("i", pack(fmt, *rows)), array("i", pack(fmt, *rows.values()))


def left_op(b: FockBasis, w: Path) -> SparseOp:
    """The truncated left creation operator L_w (P_x for a unit)."""
    return combine_runs(b, [(1, left_map(b, w))])


def right_op(b: FockBasis, w: Path) -> SparseOp:
    """The truncated right-regular operator R_w (Q_x for a unit)."""
    return combine_runs(b, [(1, right_map(b, w))])


def combine_runs(b: FockBasis, terms: Sequence[tuple[Fraction, Run]]) -> SparseOp:
    """sum_t q_t T_t for terms ``(q_t, (cols, rows))``, each T_t a 0/1 map.

    An entry reached by one term shares that term's coefficient object;
    only the entries reached by several terms are summed, and of those the
    zero sums are dropped.  So no Fraction is multiplied, and none is
    added or compared at an entry that one term alone reaches.
    """
    out: dict[tuple[int, int], Fraction] = {}
    collided: set[tuple[int, int]] = set()
    for q, (cols, rows) in terms:
        if q:
            q = Fraction(q)
            new = dict.fromkeys(zip(rows, cols), q)
            both = new.keys() & out.keys()
            for k in both:
                new[k] = out[k] + q
            collided |= both
            out.update(new)
    for k in collided:
        if not out[k]:
            del out[k]
    return SparseOp._nonzero(b, out)


def _check_path(g: Graph, w: Path) -> None:
    if w.is_unit:
        if not g.has_vertex(w.source):
            raise GraphError(f"path {literal(w)} is not a path of this graph")
        return
    at = w.source
    for name in w.edges:
        e = g.edge(name)
        if e.src != at:
            raise GraphError(f"path {literal(w)} is not a path of this graph")
        at = e.dst
    if at != w.target:
        raise GraphError(f"path {literal(w)} is not a path of this graph")


def vertex_projection(b: FockBasis, x: str) -> SparseOp:
    """P_x: diagonal projection onto basis paths with range x."""
    return left_op(b, unit(b.graph, x))


def length_projection(b: FockBasis, max_length: int) -> SparseOp:
    """E_m: diagonal projection onto paths of length <= m (zero for m < 0)."""
    one = Fraction(1)
    return SparseOp._nonzero(b, {(i, i): one for i in range(b.upto(max_length))})


def fourier_coefficients(a: SparseOp) -> dict[Path, Fraction]:
    """Coefficients a_w of the expansion A ~ sum a_w L_w.

    a_w is the entry of A at row w and column unit(source(w)); for
    elements of the truncated algebra this reads the coefficients off the
    columns of the unit vectors, exactly.
    """
    b = a.basis
    table: dict[Path, Fraction] = {}
    # the unit at a vertex has the vertex id as its ordinal
    units = b.offsets[1]
    for r, c, value in sorted((r, c, v) for (r, c), v in a.entries.items() if c < units):
        w = b.path(r)
        if b.vertex_id[w.source] == c and value:
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
    terms = []
    for w, coeff in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0].edges, kv[0].source)):
        if len(w) > degree:
            continue
        weight = Fraction(coeff)
        if mode == "cesaro":
            weight *= 1 - Fraction(len(w), degree + 1)
        if weight:
            terms.append((weight, left_map(b, w)))
    return combine_runs(b, terms)


def export_sparse(a: SparseOp) -> str:
    """Line-based export: header ``dim N basis-hash``, then sorted entries."""
    b = a.basis
    lines = [f"{b.dim} {b.depth} {b.basis_hash()}"]
    text: dict[int, str] = {}  # each distinct entry object is formatted once
    for (r, c) in sorted(a.entries):
        v = a.entries[(r, c)]
        if id(v) not in text:
            text[id(v)] = f"{v.numerator}/{v.denominator}"
        lines.append(f"{r} {c} {text[id(v)]}")
    return "\n".join(lines) + "\n"
