"""Codec identities at sizes the exhaustive oracles cannot reach.

Forests are grown by hypothesis independently of the codec: each new vertex
hangs below an earlier one, so the result is a tree rooted at 1.  Traces
are drawn position by position within their bounds.  The run engine behind
the codec and the sampler must agree there with the public steps it
replaces (``_inverse_run`` and ``_step_encode`` of ``test_engine``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from forestcodec import (
    ChoiceTrace,
    EdgeColoredForest,
    PlaneForest,
    PlaneNode,
    RootedForest,
    decode,
    encode,
    trace_bounds,
)
from test_engine import _inverse_run, _step_encode, check_sampler

MAX_N = 300
SETTINGS = settings(max_examples=8, deadline=None)


@st.composite
def tree_edges(draw, max_children=None):
    """(n, order, parents): a random tree on 1..n rooted at 1.

    ``order`` lists the non-root vertices in the order they were attached,
    which also fixes the left-to-right order of siblings.  With
    ``max_children`` no vertex takes more children than that.
    """
    n = draw(st.integers(1, MAX_N))
    rest = draw(st.permutations(range(2, n + 1)))
    parents = [0] * n
    placed, degree = [1], {1: 0}
    for v in rest:
        room = [u for u in placed if max_children is None or degree[u] < max_children]
        u = room[draw(st.integers(0, len(room) - 1))]
        parents[v - 1] = u
        degree[u] += 1
        degree[v] = 0
        placed.append(v)
    return n, list(rest), parents


@st.composite
def plain_trees(draw):
    _, _, parents = draw(tree_edges())
    return RootedForest(tuple(parents))


@st.composite
def plane_trees(draw):
    n, order, parents = draw(tree_edges())
    kids = {v: [] for v in range(1, n + 1)}
    for v in order:
        kids[parents[v - 1]].append(v)
    # Build bottom-up: a vertex is attached after its parent, so the reverse
    # attachment order meets every child before its parent.
    nodes = {}
    for v in reversed([1] + order):
        nodes[v] = PlaneNode(v, tuple(nodes[c] for c in kids[v]))
    return PlaneForest((nodes[1],))


@st.composite
def colored_trees(draw):
    """A special properly colored tree: the root offers colors 1..kc-1,
    every other vertex the kc-1 colors its own edge leaves free."""
    kc = draw(st.integers(2, 4))
    n, order, parents = draw(tree_edges(max_children=kc - 1))
    colors = [0] * n
    used = {v: set() for v in range(1, n + 1)}
    for v in order:
        p = parents[v - 1]
        top = kc - 1 if p == 1 else kc
        free = [c for c in range(1, top + 1) if c not in used[p]]
        c = free[draw(st.integers(0, len(free) - 1))]
        colors[v - 1] = c
        used[p].add(c)
        used[v].add(c)
    return EdgeColoredForest(RootedForest(tuple(parents)), kc, tuple(colors))


@st.composite
def traces(draw, family):
    n = draw(st.integers(1, MAX_N))
    kc = draw(st.integers(2, 4)) if family == "colored" else 0
    bounds = trace_bounds(family, n, kc)
    choices = tuple(draw(st.integers(1, b)) for b in bounds)
    return ChoiceTrace(family, n, kc, choices)


@SETTINGS
@given(plain_trees())
def test_plain_decode_encode(forest):
    assert decode(encode(forest)) == forest


@SETTINGS
@given(plane_trees())
def test_plane_decode_encode(forest):
    assert decode(encode(forest)) == forest


@SETTINGS
@given(colored_trees())
def test_colored_decode_encode(forest):
    assert decode(encode(forest)) == forest


@pytest.mark.parametrize("family", ("plain", "plane", "colored"))
@SETTINGS
@given(data=st.data())
def test_encode_decode(family, data):
    trace = data.draw(traces(family))
    assert encode(decode(trace)) == trace


@pytest.mark.parametrize("family", ("plain", "plane", "colored"))
@SETTINGS
@given(data=st.data())
def test_engine_matches_the_steps(family, data):
    trace = data.draw(traces(family))
    forest = _inverse_run(trace.family, trace.n, trace.colors, trace.choices)
    assert decode(trace) == forest
    assert encode(forest) == _step_encode(forest) == trace


@pytest.mark.parametrize("family", ("plain", "plane", "colored"))
@SETTINGS
@given(data=st.data())
def test_sampler_matches_the_steps(family, data):
    """Draws for roots 1, 2, 3 or n-1, run conditioned and not."""
    trace = data.draw(traces(family))
    n, bounds = trace.n, trace_bounds(family, trace.n, trace.colors)
    roots = data.draw(
        st.sampled_from([r for r in (1, 2, 3, n - 1) if 1 <= r <= max(n - 1, 1)])
    )
    drawn = trace.choices[: len(bounds) - roots + 1]
    check_sampler(family, n, trace.colors, roots, drawn)
