"""Any depth: every public function and value protocol on a 20,000-deep
chain of each family, under the default recursion limit.

Each chain is one path from root 1.  The protocols are equality, hashing,
``repr``, pickling, ``copy.copy``, ``copy.deepcopy`` and ``replace``; the
text format rendered and parsed back, and the JSON and dot renderings; the
codec's ``encode`` then ``decode`` for the codec families; and one forward
and one inverse step at k = 2 for each step family.  A walk that recursed
once per level would raise ``RecursionError`` here.
"""

import copy
import json
import pickle
import sys

import pytest

from forestcodec import (
    EdgeColoredForest,
    PartAssignment,
    RootedForest,
    attach_subtree,
    bijections,
    children,
    decode,
    degree,
    detach_subtree,
    encode,
    is_descendant,
    parse_colored,
    parse_forest,
    parse_plane,
    render_colored,
    render_forest,
    render_plane,
    reroot_switch,
    reroot_tree,
    subtree_vertices,
    swap_colored_labels,
    swap_labels,
)
from forestcodec.cli import _render
from forestcodec.forests import plane_relabel

DEPTH = 20_000
HALF = DEPTH // 2
PARTS = PartAssignment((HALF, HALF))

# Part 1 holds 1..HALF and part 2 the rest; the chain visits 1, HALF + 1,
# 2, HALF + 2, ..., so each edge joins the two parts.
_PARTITE_ORDER = [v for i in range(1, HALF + 1) for v in (i, HALF + i)]
_PARTITE = [0] * DEPTH
for _up, _v in zip(_PARTITE_ORDER, _PARTITE_ORDER[1:]):
    _PARTITE[_v - 1] = _up


def chain():
    return RootedForest(tuple(range(DEPTH)))  # vertex v below v - 1


# family -> (its 20,000-deep chain, text renderer, text parser, the step
# parameters after k)
FAMILIES = {
    "plain": (chain, render_forest, parse_forest, ()),
    "partite": (
        lambda: RootedForest(tuple(_PARTITE)),
        render_forest,
        parse_forest,
        (PARTS,),
    ),
    "plane": (
        lambda: parse_plane("(".join(map(str, range(1, DEPTH + 1))) + ")" * (DEPTH - 1)),
        render_plane,
        parse_plane,
        (),
    ),
    "leafplane": (
        lambda: parse_plane("(".join(map(str, range(1, DEPTH))) + "(*" + ")" * (DEPTH - 1)),
        render_plane,
        parse_plane,
        (),
    ),
    "colored": (
        # kc = 3, and the edge into v takes color 1 or 2 as v is even or odd.
        lambda: EdgeColoredForest(
            chain(), 3, (0, *(1 if v % 2 == 0 else 2 for v in range(2, DEPTH + 1)))
        ),
        render_colored,
        lambda text: parse_colored(text, 3),
        (),
    ),
}


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


@pytest.mark.parametrize("family", FAMILIES)
def test_value_protocols(family):
    make, render, parse, _ = FAMILIES[family]
    value = make()
    twin = make()
    assert value == twin and hash(value) == hash(twin)
    assert repr(value) == repr(twin) and len(repr(value)) > DEPTH
    for copier in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert copier(value) == value
    field = type(value).__slots__[-1]
    assert value.replace(**{field: getattr(value, field)}) == value
    assert parse(render(value)) == value
    doc = _render(value, "json")
    if "plane" in family:  # nested once per level, deeper than json.loads reads
        assert doc.count('"label"') == DEPTH
    else:
        assert json.loads(doc)["n"] == DEPTH
    assert _render(value, "dot").count("->") == DEPTH - 1


@pytest.mark.parametrize("family", ["plain", "plane", "colored"])
def test_codec_round_trip(family):
    value = FAMILIES[family][0]()
    assert decode(encode(value)) == value


@pytest.mark.parametrize("family", ["plain", "partite", "plane", "leafplane", "colored"])
def test_one_step_forward_and_back(family):
    make, _, _, params = FAMILIES[family]
    value = make()
    forward = getattr(bijections, f"{family}_forward")
    inverse = getattr(bijections, f"{family}_inverse")
    count = getattr(bijections, f"{family}_choice_count")
    out, choice = forward(value, 2, *params)
    assert 1 <= choice <= count(out, 2, *params)
    assert inverse(out, 2, *params, choice) == value


def test_structural_operations():
    forest = chain()
    assert is_descendant(forest, DEPTH, 1) and not is_descendant(forest, 1, DEPTH)
    assert subtree_vertices(forest, 2) == frozenset(range(2, DEPTH + 1))
    assert children(forest, 1) == (2,) and degree(forest, DEPTH) == 0
    cut = detach_subtree(forest, HALF)
    assert cut.roots == (1, HALF)
    assert attach_subtree(cut, HALF, HALF - 1) == forest
    assert reroot_tree(forest, DEPTH).parents == (*range(2, DEPTH + 1), 0)
    assert reroot_switch(forest) == reroot_tree(forest, 2)
    assert swap_labels(swap_labels(forest, 1, DEPTH), 1, DEPTH) == forest
    ef = FAMILIES["colored"][0]()
    assert swap_colored_labels(swap_colored_labels(ef, 2, DEPTH), 2, DEPTH) == ef
    pf = FAMILIES["plane"][0]()
    assert plane_relabel(plane_relabel(pf, 1, DEPTH), 1, DEPTH) == pf
