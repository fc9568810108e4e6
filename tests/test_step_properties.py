"""Plane and leaf-unlabeled plane steps at sizes the exhaustive oracles
cannot reach.

The codec runs only the fully labeled plane steps, and only from one root;
here both plane families are stepped at a drawn k.  Forests are grown by
hypothesis independently of the bijections: roots 1..k-1 come first, each
later vertex hangs below an earlier one, and the largest label goes to a
vertex of tree 1, as the forward step requires.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from forestcodec import (
    PlaneForest,
    PlaneNode,
    leafplane_forward,
    leafplane_inverse,
    plane_choice_count,
    plane_forward,
    plane_inverse,
)

MAX_LABELS = 40
SETTINGS = settings(max_examples=50, deadline=None)


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
    f, k = start
    g, c = plane_forward(f, k)
    assert plane_inverse(g, k, c) == f
    c = data.draw(st.integers(1, plane_choice_count(g, k)))
    assert plane_forward(plane_inverse(g, k, c), k) == (g, c)


@SETTINGS
@given(grown(leafy=True), st.data())
def test_leafplane_steps_invert(start, data):
    f, r = start
    g, c = leafplane_forward(f, r)
    assert leafplane_inverse(g, r, c) == f
    c = data.draw(st.integers(1, g.leaf_count))
    assert leafplane_forward(leafplane_inverse(g, r, c), r) == (g, c)
