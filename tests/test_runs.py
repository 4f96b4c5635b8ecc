"""The runs of ``fock.left_runs`` and the run-based ``pairs.verify_pair``
against independent references: the paths themselves for every run, a
per-word ``left_map`` for the shared-prefix runs of ``materialize``, and
the dict-based verification path of ``reference`` for every
report, on constructed pairs and on mutations of them."""

import random
from bisect import bisect_left
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from partlyfree import (
    FormalIsometryPair,
    GraphError,
    Path,
    Summand,
    build_basis,
    catalog,
    construct_pair,
    enumerate_paths,
    left_map,
    left_op,
    materialize,
    right_op,
    verify_materialized,
)
from partlyfree import fock, pairs
from partlyfree.fock import BasisCapError, left_runs, right_map
from partlyfree.oracle import random_graph
from partlyfree.pairs import PairConstructionError

import reference as _reference_verify
from reference import compose, to_json

# the Fock dimensions the reference comparisons may build
CAP = 20_000

FINITE_MODES = ("double-cycle", "unital", "quiver")

MUTATIONS = (
    "none",
    "v-word-into-u",
    "cut-to-prefix",
    "cut-to-left-factor",
    "extend",
    "drop",
    "extra-initial",
    "u-equals-v",
    "left-factor-at-other-source",
)

MESSAGES = (
    "an operator materialized to zero (depth far below the word lengths?)",
    "U*V has a nonzero entry",
    "compressed initial projections disagree",
    "blockwise initial projection identity fails",
    "a range or initial projection is not a 0/1 diagonal",
    "a range projection escapes the initial projection",
    "standard-form decomposition does not match the predicted vertex set",
)


def _left_factor(g, w: Path, j: int) -> Path:
    """The left factor of w made of its edges after the first j >= 1
    (traversal order): w ends with it, at the same range."""
    return Path(g.edge(w.edges[j - 1]).dst, w.target, w.edges[j:])


def _prefix(g, w: Path, j: int) -> Path:
    """The first j edges of w, in traversal order."""
    target = g.edge(w.edges[j - 1]).dst if j else w.source
    return Path(w.source, target, w.edges[:j])


def _replace(side: tuple, summand: Summand) -> tuple:
    """``side`` with ``summand`` in place of the one at its source, or added."""
    kept = [s for s in side if s.source != summand.source]
    at = next((i for i, s in enumerate(side) if s.source == summand.source), len(kept))
    return tuple(kept[:at]) + (summand,) + tuple(kept[at:])


def _mutate(g, pair: FormalIsometryPair, kind: str, rng: random.Random):
    """A mutation of ``pair``, or None where it does not apply or makes no
    well-formed pair."""
    us, vs, initial = pair.u_summands, pair.v_summands, pair.initial_set
    side = rng.randrange(2)
    words = (us, vs)[side]
    try:
        if kind == "none":
            return pair
        if kind == "v-word-into-u":
            s = rng.choice(vs)
            us = _replace(us, s)
        elif kind in ("cut-to-prefix", "cut-to-left-factor", "extend"):
            s = rng.choice(words)
            if kind == "extend":
                out = g.out_edges(s.word.target)
                if not out:
                    return None
                e = rng.choice(out)
                new = Summand(s.source, Path(s.source, e.dst, s.word.edges + (e.name,)))
            else:
                if not s.word.edges:
                    return None
                j = rng.randrange(len(s.word.edges))
                if kind == "cut-to-prefix":
                    new = Summand(s.source, _prefix(g, s.word, j))
                else:
                    w = _left_factor(g, s.word, j + 1)
                    new = Summand(w.source, w)
                    words = tuple(t for t in words if t != s)
            words = _replace(words, new)
        elif kind == "drop":
            s = rng.choice(words)
            words = tuple(t for t in words if t != s)
        elif kind == "extra-initial":
            spare = sorted(set(g.vertices) - initial)
            if not spare:
                return None
            initial = initial | {rng.choice(spare)}
        elif kind == "u-equals-v":
            us = vs
        elif kind == "left-factor-at-other-source":
            factors = [
                w
                for t in words
                for j in range(1, len(t.word.edges) + 1)
                if (w := _left_factor(g, t.word, j)).source != t.source
            ]
            if not factors:
                return None
            w = rng.choice(factors)
            words = _replace(words, Summand(w.source, w))
        else:
            raise ValueError(kind)
        if kind in ("cut-to-prefix", "cut-to-left-factor", "extend", "drop",
                    "left-factor-at-other-source"):
            us, vs = (words, vs) if side == 0 else (us, words)
        # a quiver pair that gains or loses a summand is checked as a double-cycle one
        mode = "double-cycle" if pair.mode == "quiver" and len(us) + len(vs) != 2 else pair.mode
        return FormalIsometryPair(mode, us, vs, initial)
    except PairConstructionError:
        return None


def _outcome(verify, pair, b):
    """The report of ``verify``, or the type and text of what it raised."""
    try:
        return verify(pair, b)
    except GraphError as err:
        return type(err), str(err)


def _finite_case(seed: int, mode: str, extra: int, kind: str):
    """A constructed pair on a random graph of at most 6 vertices, at depth
    L + extra with L its longest word, mutated by ``kind``; None when the
    graph has no such pair or the truncation is too large."""
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=6, max_edges=10)
    try:
        pair = construct_pair(g, mode)
    except PairConstructionError:
        return None
    mutated = _mutate(g, pair, kind, rng)
    if mutated is None:
        return None
    try:
        b = build_basis(g, pair.max_word_length() + extra, cap=CAP)
    except BasisCapError:
        return None
    return mutated, b


WINDOW_FAMILIES = tuple(
    name for name in catalog.FAMILY_NAMES if catalog.builtin(name).window_pair is not None
)


def _window_case(name: str, window: int, depth: int, kind: str, seed: int):
    """The windowed pair of family ``name`` at depth ``depth``, mutated by
    ``kind``; None when the window is too small for the pair, the depth is
    more than two past its longest word or the mutation does not apply."""
    g = catalog.family_truncation(name, window)
    try:
        pair = construct_pair(g, "infinite-path")
    except PairConstructionError:
        return None
    mutated = _mutate(g, pair, kind, random.Random(seed))
    if mutated is None or depth > pair.max_word_length() + 2:
        return None
    return mutated, build_basis(g, depth)


def _window_cases():
    """Every windowed family pair at windows 2..5 and every depth, with
    each mutation."""
    for name in WINDOW_FAMILIES:
        for window in range(2, 6):
            for depth in range(9):
                for kind in MUTATIONS:
                    case = _window_case(name, window, depth, kind, depth)
                    if case is not None:
                        yield case


def _check_same(pair, b):
    new = _outcome(verify_materialized, pair, b)
    ref = _outcome(_reference_verify.verify_materialized, pair, b)
    assert new == ref, (to_json(pair), b.depth)
    return new


CASES = st.one_of(
    st.tuples(
        st.just(_finite_case),
        st.integers(0, 2**32),
        st.sampled_from(FINITE_MODES),
        st.integers(0, 2),
        st.sampled_from(MUTATIONS),
    ),
    st.tuples(
        st.just(_window_case),
        st.sampled_from(WINDOW_FAMILIES),
        st.integers(2, 5),
        st.integers(0, 8),
        st.sampled_from(MUTATIONS),
        st.integers(0, 2**32),
    ),
)


@contextmanager
def _tiny_chunks_and_windows():
    """``fock.RUN_CHUNK`` at 1 and ``pairs.WINDOW`` at 3, so that every
    run crosses chunk and window bounds."""
    saved = fock.RUN_CHUNK, pairs.WINDOW
    fock.RUN_CHUNK, pairs.WINDOW = 1, 3
    try:
        yield
    finally:
        fock.RUN_CHUNK, pairs.WINDOW = saved


def _check_drawn(drawn, context=nullcontext):
    make, *args = drawn
    case = make(*args)
    if case is not None:
        with context():
            _check_same(*case)


@settings(max_examples=500, deadline=None)
@given(CASES)
def test_verify_matches_reference(drawn):
    """The run-based verification returns the reference's report, or
    raises its error, on constructed pairs on random graphs at depths L,
    L + 1 and L + 2 and on windowed family pairs at every depth, each
    mutated or not."""
    _check_drawn(drawn)


@settings(max_examples=500, deadline=None)
@given(CASES)
def test_verify_matches_reference_across_chunks_and_windows(drawn):
    """The same, with runs filled one column at a time and identities
    decided three ordinals at a time."""
    _check_drawn(drawn, _tiny_chunks_and_windows)


def _check_every_message(context=nullcontext):
    reached = set()
    reports = errors = 0
    cases = [
        _finite_case(seed, mode, extra, kind)
        for seed in range(20)
        for mode in FINITE_MODES
        for extra in range(3)
        for kind in MUTATIONS
    ]
    cases = [c for c in cases if c is not None] + list(_window_cases())
    with context():
        outcomes = [_check_same(*case) for case in cases]
    for out in outcomes:
        if isinstance(out, tuple):
            errors += 1
        else:
            reports += 1
            reached.update(out.messages)
    assert reached == set(MESSAGES)
    assert errors and reports > 1000


def test_every_verification_message_is_reached():
    """On a fixed corpus of constructed and mutated pairs the run-based
    verification and the reference agree, and every message of
    ``verify_pair`` appears, so each failing branch is exercised."""
    _check_every_message()


def test_every_verification_message_is_reached_across_chunks_and_windows():
    """The same, with runs filled one column at a time and identities
    decided three ordinals at a time, so that each failing branch is
    decided across windows."""
    _check_every_message(_tiny_chunks_and_windows)


# ---------------------------------------------------------------- runs


def _run_graphs():
    rng = random.Random(23)
    graphs = [random_graph(rng, max_vertices=5, max_edges=8) for _ in range(20)]
    graphs += [catalog.builtin(name).graph for name in catalog.DEFAULT_FINITE_NAMES]
    graphs += [catalog.family_truncation(name, 3) for name in catalog.FAMILY_NAMES
               if catalog.builtin(name).truncate is not None]
    return graphs


@pytest.mark.parametrize("depth", range(5))
def test_runs_are_ascending_and_match_the_paths(depth):
    """Each run of L_w lists, in strictly ascending order and the unit
    column first, exactly the pairs (v, wv) of basis paths, and each map
    of R_w the pairs (v, vw); ``left_op`` and ``right_op`` hold the same
    entries.  The basis order is that of :func:`enumerate_paths`."""
    checked = 0
    for g in _run_graphs():
        try:
            b = build_basis(g, depth, cap=500)
        except BasisCapError:
            continue
        checked += 1
        paths = enumerate_paths(g, depth)
        index = {p: i for i, p in enumerate(paths)}
        into, out_of = {x: [] for x in g.vertices}, {x: [] for x in g.vertices}
        for j, v in enumerate(paths):
            into[v.target].append(j)
            out_of[v.source].append(j)
        for w in enumerate_paths(g, depth + 1):
            for (cols, rows), op, unit_column, images in (
                (left_map(b, w), left_op(b, w), w.source,
                 ((j, compose(w, paths[j])) for j in into[w.source])),
                (right_map(b, w), right_op(b, w), w.target,
                 ((j, compose(paths[j], w)) for j in out_of[w.target])),
            ):
                expected = [(j, index[p]) for j, p in images if len(p) <= depth]
                assert list(zip(cols, rows)) == expected
                assert all(a < c for a, c in zip(cols, cols[1:]))
                assert all(a < c for a, c in zip(rows, rows[1:]))
                if cols:
                    assert cols[0] == b.vertex_id[unit_column]
                assert {(r, c) for c, r in zip(cols, rows)} == set(op.entries)
    assert checked >= 20


def test_shared_prefix_runs_match_per_word_runs():
    """``left_runs`` on several words at one source, with shared prefixes
    of every length, equals ``left_map`` word by word."""
    rng = random.Random(31)
    checked = 0
    for g in _run_graphs():
        for depth in range(6):
            try:
                b = build_basis(g, depth, cap=2000)
            except BasisCapError:
                continue
            by_source = {}
            for w in enumerate_paths(g, depth + 1):
                by_source.setdefault(w.source, []).append(w)
            for words in by_source.values():
                for _ in range(3):
                    group = rng.sample(words, min(len(words), rng.randint(1, 4)))
                    assert left_runs(b, group) == [left_map(b, w) for w in group]
                    checked += 1
    assert checked > 500


def test_materialize_runs_match_per_word_runs():
    """The runs of ``materialize``, which share the scan and the common
    prefix of the U and V words at a source, equal a per-word
    ``left_map``, in summand order."""
    checked = 0
    for g in _run_graphs():
        for mode in FINITE_MODES:
            try:
                pair = construct_pair(g, mode)
                b = build_basis(g, pair.max_word_length() + 2, cap=CAP)
            except (PairConstructionError, BasisCapError):
                continue
            mat = materialize(pair, b)
            assert mat.u == tuple(left_map(b, s.word) for s in pair.u_summands)
            assert mat.v == tuple(left_map(b, s.word) for s in pair.v_summands)
            for side in (mat.u, mat.v):
                for cols, rows in side:
                    assert list(cols) == sorted(set(cols)) and list(rows) == sorted(set(rows))
                    assert bisect_left(cols, b.offsets[1]) == 1
            checked += 1
    for name in catalog.FAMILY_NAMES:
        if catalog.builtin(name).window_pair is None:
            continue
        g = catalog.family_truncation(name, 4)
        pair = construct_pair(g, "infinite-path")
        for depth in range(pair.max_word_length() + 2):
            mat = materialize(pair, build_basis(g, depth))
            assert mat.u == tuple(left_map(mat.basis, s.word) for s in pair.u_summands)
            assert mat.v == tuple(left_map(mat.basis, s.word) for s in pair.v_summands)
            checked += 1
    assert checked >= 30
