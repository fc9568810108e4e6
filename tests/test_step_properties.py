"""Bijection steps of every family at sizes the exhaustive oracles cannot
reach.

The codec runs no public step, and its engine starts from one root; here
the plain, multipartite, plane, leaf-unlabeled plane and colored steps are
stepped at a drawn k.
Forests are grown by hypothesis independently of the bijections: roots
1..k-1 come first, each later vertex hangs below an earlier one, and the
pivot (the largest label, or the first label of part 2) goes to a vertex of
tree 1, as the forward step requires.  Every step output is checked anew
on the validating construction path (``helpers.revalidate``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import revalidate

from forestcodec import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    PlaneNode,
    RootedForest,
    colored_choice_count,
    colored_forward,
    colored_inverse,
    leafplane_choice_count,
    leafplane_forward,
    leafplane_inverse,
    partite_choice_count,
    partite_forward,
    partite_inverse,
    plane_choice_count,
    plain_choice_count,
    plain_forward,
    plain_inverse,
    plane_forward,
    plane_inverse,
)

MAX_LABELS = 40
SETTINGS = settings(max_examples=50, deadline=None)


def steps_invert(forward, inverse, count, f, k, data) -> None:
    """The forward step from f and back, then the inverse at a drawn choice
    and forward again; every output is checked anew."""
    g, c = forward(f, k)
    revalidate(g)
    back = inverse(g, k, c)
    revalidate(back)
    assert back == f
    c = data.draw(st.integers(1, count(g, k)))
    h = inverse(g, k, c)
    revalidate(h)
    again = forward(h, k)
    revalidate(again[0])
    assert again == (g, c)


@st.composite
def grown(draw, leafy):
    """(forest, k): a member of the family with roots 1..k-1 and its largest
    label m in tree 1.  With ``leafy`` the vertices 1..m are internal and
    every leaf is unlabeled; otherwise every vertex is labeled."""
    m = draw(st.integers(3, MAX_LABELS))
    k = draw(st.integers(2, m - 1))
    # Grow the shape on slots 0..m-1: slots 0..k-2 are the roots, each later
    # slot hangs below an earlier one, and the first of them below root 0.
    parent = list(range(k - 1))
    kids = [[] for _ in range(m)]
    for j in range(k - 1, m):
        u = 0 if j == k - 1 else draw(st.integers(0, j - 1))
        parent.append(u)
        kids[u].append(j)
    # Labels k..m go to the non-root slots, m to one in tree 1.  The forward
    # step swaps labels exactly when m lies below k, which a uniform pick
    # seldom gives, so half the draws put m below k on purpose.
    tree = parent[: k - 1] + [0] * (m - k + 1)
    for j in range(k - 1, m):
        tree[j] = tree[parent[j]]
    in_tree_1 = [j for j in range(k - 1, m) if tree[j] == 0]
    heads = [j for j in in_tree_1 if kids[j]]
    if heads and draw(st.booleans()):
        k_slot = draw(st.sampled_from(heads))
        below = [j for j in range(k_slot, m) if _descends(parent, j, k_slot)]
        m_slot = draw(st.sampled_from(below))
    else:
        m_slot = draw(st.sampled_from(in_tree_1))
        others = [j for j in range(k - 1, m) if j != m_slot]
        k_slot = draw(st.sampled_from(others))
    rest = [j for j in range(k - 1, m) if j not in (k_slot, m_slot)]
    label = list(range(1, k)) + [0] * (m - k + 1)
    label[k_slot], label[m_slot] = k, m
    for j, v in zip(rest, draw(st.permutations(range(k + 1, m)))):
        label[j] = v
    # A slot's children come after it, so building in reverse meets them
    # first.
    nodes = [None] * m
    for j in reversed(range(m)):
        below = [nodes[c] for c in kids[j]]
        if leafy:
            for _ in range(draw(st.integers(0 if below else 1, 2))):
                below.insert(draw(st.integers(0, len(below))), PlaneNode(None))
        nodes[j] = PlaneNode(label[j], tuple(below))
    return PlaneForest(tuple(nodes[: k - 1])), k


def _descends(parent, j, i):
    """True iff slot j lies strictly below slot i; roots are their own parent."""
    while parent[j] != j:
        j = parent[j]
        if j == i:
            return True
    return False


@SETTINGS
@given(grown(leafy=False), st.data())
def test_plane_steps_invert(start, data):
    steps_invert(plane_forward, plane_inverse, plane_choice_count, *start, data)


@SETTINGS
@given(grown(leafy=True), st.data())
def test_leafplane_steps_invert(start, data):
    steps_invert(
        leafplane_forward, leafplane_inverse, leafplane_choice_count, *start, data
    )


@st.composite
def partite_grown(draw):
    """(forest, k, parts): roots 1..k-1, every edge between two parts, and
    the pivot, the first label of part 2, in tree 1."""
    sizes = (draw(st.integers(2, 8)),) + tuple(
        draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    )
    parts = PartAssignment(sizes)
    n, pivot = parts.n, sizes[0] + 1
    k = draw(st.integers(2, sizes[0]))
    part = [0] + [parts.part_of(v) for v in range(1, n + 1)]
    parents = [0] * n
    root = list(range(n + 1))
    placed = list(range(1, k))

    def hang(v, u):
        parents[v - 1], root[v] = u, root[u]
        placed.append(v)

    # The forward step swaps labels exactly when the pivot lies below k, so
    # half the draws start with the chain 1 -> x -> k -> pivot, x a vertex
    # outside part 1 other than the pivot, where there is one.
    others = range(pivot + 1, n + 1)
    if others and draw(st.booleans()):
        x = draw(st.sampled_from(others))
        hang(x, 1)
        hang(k, x)
        hang(pivot, k)
    # The rest hang below placed vertices in other parts, the pivot in tree
    # 1, in a drawn order; one with no such vertex yet waits its next turn.
    queue = list(draw(st.permutations(
        [v for v in range(k, n + 1) if v not in placed]
    )))
    while queue:
        v = queue.pop(0)
        options = [
            u for u in placed
            if part[u] != part[v] and (v != pivot or root[u] == 1)
        ]
        if options:
            hang(v, draw(st.sampled_from(options)))
        else:
            queue.append(v)
    return RootedForest(tuple(parents)), k, parts


@SETTINGS
@given(partite_grown(), st.data())
def test_partite_steps_invert(start, data):
    f, k, parts = start
    steps_invert(
        lambda f, k: partite_forward(f, k, parts),
        lambda g, k, c: partite_inverse(g, k, parts, c),
        lambda g, k: partite_choice_count(g, k, parts),
        f, k, data,
    )


@st.composite
def labeled_grown(draw):
    """(parents, k, order): a forest on 1..n with roots 1..k-1 and vertex n
    in tree 1; ``order`` lists the vertices in the order they were hung,
    each below an earlier one."""
    n = draw(st.integers(3, MAX_LABELS))
    k = draw(st.integers(2, n - 1))
    parents = [0] * n
    root = list(range(n + 1))
    order = list(range(1, k))

    def hang(v, u):
        parents[v - 1], root[v] = u, root[u]
        order.append(v)

    # The forward step swaps labels exactly when n lies below k, so half
    # the draws start with the chain 1 -> k -> n.
    if draw(st.booleans()):
        hang(k, 1)
        hang(n, k)
    for v in draw(st.permutations([v for v in range(k, n + 1) if v not in order])):
        hang(v, draw(st.sampled_from([u for u in order if v != n or root[u] == 1])))
    return parents, k, order


@st.composite
def colored_grown(draw):
    """(forest, k): a special colored member of ``labeled_grown``'s shape,
    with just enough colors or one more, each edge's color drawn from those
    free at its parent."""
    parents, k, order = draw(labeled_grown())
    n = len(parents)
    degree = [0] * (n + 1)
    for p in parents:
        degree[p] += 1
    # A root's edges avoid the last color; a non-root's edge in takes one.
    kc = 1 + max(degree[v] for v in range(1, n + 1)) + draw(st.integers(0, 1))
    colors = [0] * n
    for v in order:  # a parent is hung, and its edge colored, before its children
        p = parents[v - 1]
        if p:
            used = {colors[u - 1] for u in order if parents[u - 1] == p}
            used |= {colors[p - 1], kc if not parents[p - 1] else 0}
            colors[v - 1] = draw(st.sampled_from(
                [c for c in range(1, kc + 1) if c not in used]
            ))
    return EdgeColoredForest(RootedForest(tuple(parents)), kc, tuple(colors)), k


@SETTINGS
@given(labeled_grown(), st.data())
def test_plain_steps_invert(start, data):
    parents, k, _ = start
    f = RootedForest(tuple(parents))
    steps_invert(plain_forward, plain_inverse, plain_choice_count, f, k, data)


@SETTINGS
@given(colored_grown(), st.data())
def test_colored_steps_invert(start, data):
    steps_invert(colored_forward, colored_inverse, colored_choice_count, *start, data)
