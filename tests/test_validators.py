"""The validators of RootedForest and EdgeColoredForest against the
reference loops that name a fault.

A fast accept test stays only where it pays.  RootedForest checks with
``_check_parents`` alone.  EdgeColoredForest first runs the one-pass
``_properly_colored``, which accepts only valid colorings, is also the
oracles' filter and runs in well under half the time of
``_check_coloring``; only on rejection does it run the reference loops.
Drawn parent maps and colorings, valid and broken in each way the loops
report, must get the same outcome from the constructor as from the loops,
and ``_properly_colored`` alone must never accept what
``_check_coloring`` rejects.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from forestcodec import EdgeColoredForest, RootedForest
from forestcodec.forests import (
    _check_coloring,
    _check_parents,
    _cycle_vertex,
    _properly_colored,
)

SETTINGS = settings(max_examples=300, deadline=None)
JUNK = (True, 1.0, "1", None)


def outcome(check, *args):
    """None if the call passes, else its exception's type and message."""
    try:
        check(*args)
    except Exception as exc:  # the reference may raise TypeError too
        return type(exc).__name__, str(exc)
    return None


@st.composite
def forests(draw, max_n=12):
    """A valid parent map: vertices in a drawn order, each below 0 (a root)
    or below a vertex drawn before it."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    parents = [0] * n
    for i, v in enumerate(order):
        parents[v - 1] = draw(st.sampled_from((0,) + tuple(order[:i])))
    return parents


def below(parents, u, v):
    """True iff u lies strictly below v."""
    while parents[u - 1]:
        u = parents[u - 1]
        if u == v:
            return True
    return False


@st.composite
def parent_maps(draw):
    """A valid parent map, or one with a cycle, a self-parent, a parent
    above n, a negative parent, or a parent that is not an int."""
    parents = draw(forests())
    n = len(parents)
    fault = draw(st.sampled_from(("none", "cycle", "self", "high", "low", "junk")))
    if n and fault != "none":
        v = draw(st.integers(1, n))
        if fault == "cycle":
            under = [u for u in range(1, n + 1) if below(parents, u, v)]
            parents[v - 1] = draw(st.sampled_from(under)) if under else v
        elif fault == "self":
            parents[v - 1] = v
        elif fault == "high":
            parents[v - 1] = draw(st.integers(n + 1, n + 3))
        elif fault == "low":
            parents[v - 1] = draw(st.integers(-n - 2, -1))
        else:
            parents[v - 1] = draw(st.sampled_from(JUNK))
    return tuple(parents)


@SETTINGS
@given(parent_maps())
def test_rooted_validator_matches_reference(parents):
    expected = outcome(_check_parents, parents)
    assert outcome(RootedForest, parents) == expected


def three_state_cycle_vertex(parents):
    """The reference walk: follow parents from each vertex, marking the
    vertices of the current path 1 and finished ones 2."""
    n = len(parents)
    state = [0] * (n + 1)
    for start in range(1, n + 1):
        path = []
        v = start
        while v != 0 and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parents[v - 1]
        if v != 0 and state[v] == 1:
            return v
        for u in path:
            state[u] = 2
    return 0


@SETTINGS
@given(
    parent_maps().filter(
        lambda ps: all(type(p) is int and 0 <= p <= len(ps) for p in ps)
    )
)
def test_cycle_vertex_names_the_reference_vertex(parents):
    # _check_parents reports this vertex, so the walk order is pinned here.
    assert _cycle_vertex(parents) == three_state_cycle_vertex(parents)


@st.composite
def colorings(draw):
    """(parents, color count, colors): a valid forest with a greedy proper
    coloring where one exists, or broken by a nonzero root color, an edge
    color out of range or not an int, a repeat at a vertex between its own
    edge and a child's (the child end) or between two children's edges (the
    parent end), a short color list, or a negative color count."""
    parents = draw(forests())
    n = len(parents)
    kc = draw(st.integers(1, 4))
    colors = [0] * n
    used = [set() for _ in range(n + 1)]
    order = sorted(range(1, n + 1), key=lambda v: depth(parents, v))
    for v in order:
        p = parents[v - 1]
        if p:
            free = [c for c in range(1, kc + 1) if c not in used[p]]
            colors[v - 1] = draw(st.sampled_from(free or list(range(1, kc + 1))))
            used[p].add(colors[v - 1])
            used[v].add(colors[v - 1])
    edges = [v for v in range(1, n + 1) if parents[v - 1]]
    fault = draw(
        st.sampled_from(
            ("none", "root", "range", "junk", "child", "parent", "short", "kc")
        )
    )
    if fault == "root" and n:
        roots = [v for v in range(1, n + 1) if not parents[v - 1]]
        colors[draw(st.sampled_from(roots)) - 1] = draw(st.integers(1, kc))
    elif fault == "range" and edges:
        bad = draw(st.sampled_from((0, kc + 1, -1)))
        colors[draw(st.sampled_from(edges)) - 1] = bad
    elif fault == "junk" and edges:
        colors[draw(st.sampled_from(edges)) - 1] = draw(st.sampled_from(JUNK))
    elif fault == "child":
        pairs = [v for v in edges if parents[parents[v - 1] - 1]]
        if pairs:
            v = draw(st.sampled_from(pairs))
            colors[v - 1] = colors[parents[v - 1] - 1]
    elif fault == "parent":
        pairs = [
            (u, v)
            for u in edges
            for v in edges
            if u < v and parents[u - 1] == parents[v - 1]
        ]
        if pairs:
            u, v = draw(st.sampled_from(pairs))
            colors[v - 1] = colors[u - 1]
    elif fault == "short" and n:
        colors.pop()
    elif fault == "kc":
        kc = -1
    return tuple(parents), kc, tuple(colors)


def depth(parents, v):
    d = 0
    while parents[v - 1]:
        v = parents[v - 1]
        d += 1
    return d


@SETTINGS
@given(colorings())
def test_colored_validator_matches_reference(drawn):
    parents, kc, colors = drawn
    expected = outcome(_check_coloring, parents, kc, colors)
    got = outcome(EdgeColoredForest, RootedForest(parents), kc, colors)
    assert got == expected
    if _properly_colored(parents, kc, colors):
        assert expected is None
    if all(type(c) is int for c in colors):
        assert _properly_colored(parents, kc, colors) == (expected is None)


@pytest.mark.parametrize(
    "parents, message",
    [
        ((2, 3, 1), "parent map has a cycle through vertex 1"),
        ((0, 2), "vertex 2 is its own parent"),
        ((0, 7), "parent of vertex 2 out of range: 7"),
        ((0, -1), "parent of vertex 2 out of range: -1"),
        ((0, "1"), "parent of vertex 2 out of range: '1'"),
    ],
)
def test_rooted_messages(parents, message):
    with pytest.raises(ValueError) as info:
        RootedForest(parents)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parents, kc, colors, message",
    [
        ((0, 1), 2, (1, 1), "root 1 must carry color 0"),
        ((0, 1), 2, (0, 3), "color of edge into 2 out of range: 3"),
        ((0, 1, 2), 2, (0, 1, 1), "edges at vertex 2 repeat a color"),
        ((0, 1, 1), 2, (0, 2, 2), "edges at vertex 1 repeat a color"),
        ((0, 1), 2, (0,), "one color entry per vertex is required"),
        ((0, 1), -1, (0, 1), "color count must be nonnegative"),
    ],
)
def test_colored_messages(parents, kc, colors, message):
    with pytest.raises(ValueError) as info:
        EdgeColoredForest(RootedForest(parents), kc, colors)
    assert str(info.value) == message
