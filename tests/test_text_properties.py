"""Forest and trace text: round trips, the JSON writer, and malformed input.

Forests are drawn independently of the parsers: a random parent map with
any roots, sibling order and, for plane forests, unlabeled leaves; a proper
edge coloring with a free color drawn at each edge.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from forestcodec import (
    EdgeColoredForest,
    ParseError,
    PlaneForest,
    PlaneNode,
    RootedForest,
    parse_colored,
    parse_forest,
    parse_plane,
    parse_trace,
    render_colored,
    render_forest,
    render_plane,
    render_trace,
)
from forestcodec.cli import _dumps, _to_json
from forestcodec.enumeration import plane_key
from forestcodec.forests import _plane_arrays, _plane_forest
from test_properties import traces

MAX_N = 40
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def parent_maps(draw):
    """(n, order, parents): a forest on 1..n whose vertices were placed in
    ``order``; each is a root or hangs below an earlier one."""
    n = draw(st.integers(1, MAX_N))
    order = draw(st.permutations(range(1, n + 1)))
    roots = draw(st.integers(1, n))
    parents = [0] * n
    for i, v in enumerate(order[roots:], start=roots):
        parents[v - 1] = order[draw(st.integers(0, i - 1))]
    return n, order, parents


@st.composite
def rooted_forests(draw):
    return RootedForest(tuple(draw(parent_maps())[2]))


@st.composite
def plane_forests(draw):
    """Trees in ascending root order; siblings in placement order, with
    unlabeled leaves inserted anywhere below labeled vertices."""
    n, order, parents = draw(parent_maps())
    kids: dict[int, list] = {v: [] for v in order}
    for v in order:
        if parents[v - 1]:
            kids[parents[v - 1]].append(v)
    for _ in range(draw(st.integers(0, n))):
        below = kids[draw(st.sampled_from(order))]
        below.insert(draw(st.integers(0, len(below))), None)
    nodes: dict = {None: PlaneNode(None)}
    for v in reversed(order):
        nodes[v] = PlaneNode(v, tuple(nodes[c] for c in kids[v]))
    roots = sorted(v for v in order if parents[v - 1] == 0)
    return PlaneForest(tuple(nodes[r] for r in roots))


@st.composite
def colored_forests(draw):
    n, order, parents = draw(parent_maps())
    edges = [0] * (n + 1)  # edges at each vertex
    for v in order:
        if parents[v - 1]:
            edges[v] += 1
            edges[parents[v - 1]] += 1
    kc = max(edges) + draw(st.integers(0, 2))
    colors = [0] * n
    used: dict[int, set] = {v: set() for v in order}
    for v in order:  # a parent is placed, and colored, before its children
        p = parents[v - 1]
        if p:
            free = [c for c in range(1, kc + 1) if c not in used[p]]
            colors[v - 1] = c = draw(st.sampled_from(free))
            used[p].add(c)
            used[v].add(c)
    return EdgeColoredForest(RootedForest(tuple(parents)), kc, tuple(colors))


@SETTINGS
@given(rooted_forests())
def test_rooted_round_trip(forest):
    assert parse_forest(render_forest(forest)) == forest


@SETTINGS
@given(plane_forests())
def test_plane_round_trip(forest):
    assert parse_plane(render_plane(forest)) == forest


@SETTINGS
@given(plane_forests())
def test_plane_word_round_trips(forest):
    """The word survives the node trees and the flat arrays a step edits."""
    assert PlaneForest(forest.trees) == forest
    _, kids, label = _plane_arrays(forest)
    assert _plane_forest(kids, label) == forest


def nested(node):
    return (node.label or 0, tuple(map(nested, node.children)))


@SETTINGS
@given(plane_forests(), plane_forests())
def test_plane_key_orders_as_nested_tuples(a, b):
    """``plane_key`` reads the word; the nested tuples read the node trees."""
    x, y = tuple(map(nested, a.trees)), tuple(map(nested, b.trees))
    assert (plane_key(a) < plane_key(b)) == (x < y)
    assert (plane_key(a) == plane_key(b)) == (x == y) == (a == b)


@SETTINGS
@given(colored_forests())
def test_colored_round_trip(forest):
    assert parse_colored(render_colored(forest), forest.color_count) == forest


@pytest.mark.parametrize("family", ("plain", "plane", "colored"))
@SETTINGS
@given(data=st.data())
def test_trace_round_trip(family, data):
    trace = data.draw(traces(family))
    assert parse_trace(render_trace(trace)) == trace


@SETTINGS
@given(st.one_of(rooted_forests(), plane_forests(), colored_forests()))
def test_json_writer_matches_json_dumps(forest):
    doc = _to_json(forest)
    assert _dumps(doc) == json.dumps(doc, sort_keys=True)


# Characters of every format, a letter, and a non-ASCII digit.
FUZZ = st.text(" \n0123456789-()*,;:x٣", max_size=30)


def parse_only_fails_cleanly(parse, text):
    try:
        parse(text)
    except (ParseError, ValueError):
        pass


@st.composite
def mutated(draw, rendered):
    """A valid rendering with one character deleted, inserted or replaced."""
    text = draw(rendered)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(" 0123456789-()*,;:x٣"))
    edit = draw(st.sampled_from(("delete", "insert", "replace")))
    if edit == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + (c if edit == "replace" else "") + text[i + 1 :]


PARSERS = {
    "rooted": (parse_forest, rooted_forests().map(render_forest)),
    "plane": (parse_plane, plane_forests().map(render_plane)),
    "colored": (
        lambda text: parse_colored(text, 3),
        colored_forests().map(render_colored),
    ),
    "trace": (
        parse_trace,
        st.sampled_from(("plain", "plane", "colored"))
        .flatmap(traces)
        .map(render_trace),
    ),
}


@pytest.mark.parametrize("kind", PARSERS)
@SETTINGS
@given(data=st.data())
def test_malformed_text_raises_only_value_errors(kind, data):
    parse, rendered = PARSERS[kind]
    parse_only_fails_cleanly(parse, data.draw(FUZZ))
    parse_only_fails_cleanly(parse, data.draw(mutated(rendered)))
