"""The contract of the eight value types: equality and hashing by field
values, ``NotImplemented`` against other types, the dataclass-style
``repr``, immutability, and ``pickle`` and ``copy.deepcopy`` round trips."""

import copy
import pickle

import pytest

from forestcodec.codec import (
    ChoiceTrace,
    SplitMix64,
    decode,
    sample_uniform,
    trace_bounds,
)
from forestcodec.enumeration import FamilySpec, RecurrenceRow
from forestcodec.forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneNode,
    RootedForest,
    parse_plane,
)

# name -> (a maker of one value, a field of it, the value's repr)
VALUES = {
    "RootedForest": (
        lambda: RootedForest((0, 1, 1)),
        "parents",
        "RootedForest(parents=(0, 1, 1))",
    ),
    "EdgeColoredForest": (
        lambda: EdgeColoredForest(RootedForest((0, 1, 1)), 3, (0, 1, 2)),
        "colors",
        "EdgeColoredForest(base=RootedForest(parents=(0, 1, 1)), color_count=3, "
        "colors=(0, 1, 2))",
    ),
    "PartAssignment": (
        lambda: PartAssignment((2, 3)),
        "sizes",
        "PartAssignment(sizes=(2, 3))",
    ),
    "PlaneNode": (
        lambda: PlaneNode(1, (PlaneNode(None),)),
        "label",
        "PlaneNode(label=1, children=(PlaneNode(label=None, children=()),))",
    ),
    "PlaneForest": (
        lambda: parse_plane("1(*,2);3"),
        "preorder_labels",
        "PlaneForest(trees=(PlaneNode(label=1, children=(PlaneNode(label=None, "
        "children=()), PlaneNode(label=2, children=()))), PlaneNode(label=3, "
        "children=())))",
    ),
    "ChoiceTrace": (
        lambda: ChoiceTrace("colored", 4, 3, (2, 5, 1)),
        "choices",
        "ChoiceTrace(family='colored', n=4, colors=3, choices=(2, 5, 1))",
    ),
    "FamilySpec": (
        lambda: FamilySpec("partite", part_sizes=(2, 3)),
        "family",
        "FamilySpec(family='partite', n=0, roots=1, root_set=None, part_sizes=(2, 3), "
        "leaves=None, colors=0, arity=0, conditioned=False, labeled=True, degrees=None)",
    ),
    "RecurrenceRow": (
        lambda: RecurrenceRow("n=4 k=3", 16, 4, 4),
        "lhs",
        "RecurrenceRow(label='n=4 k=3', lhs=16, multiplier=4, rhs=4)",
    ),
}


@pytest.fixture(params=VALUES)
def case(request):
    return VALUES[request.param]


def test_equal_values_are_equal_and_hash_alike(case):
    make, _, _ = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_other_types_are_not_implemented(case):
    make, _, _ = case
    value = make()
    for other in (object(), (), None, *(m() for m, _, _ in VALUES.values())):
        if type(other) is not type(value):
            assert value.__eq__(other) is NotImplemented
            assert value != other


def test_repr(case):
    make, _, text = case
    assert repr(make()) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    make, field, _ = case
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


# name -> (a maker of one value from a sequence type, its sequence fields)
SEQUENCES = {
    "RootedForest": (lambda seq: RootedForest(seq([0, 1, 1])), ("parents",)),
    "EdgeColoredForest": (
        lambda seq: EdgeColoredForest(RootedForest((0, 1, 1)), 3, seq([0, 1, 2])),
        ("colors",),
    ),
    "PartAssignment": (lambda seq: PartAssignment(seq([2, 3])), ("sizes",)),
    "PlaneNode": (lambda seq: PlaneNode(1, seq([PlaneNode(None)])), ("children",)),
    "PlaneForest": (
        lambda seq: parse_plane("1").replace(
            preorder_labels=seq([1, 0, 2, 3]), preorder_degrees=seq([2, 0, 0, 0])
        ),
        ("preorder_labels", "preorder_degrees"),
    ),
    "ChoiceTrace": (
        lambda seq: ChoiceTrace("colored", 4, 3, seq([2, 5, 1])),
        ("choices",),
    ),
    "FamilySpec": (
        lambda seq: FamilySpec(
            "partite", root_set=seq([1]), part_sizes=seq([2, 3]),
            degrees=seq([2, 1, 0, 0, 0]),
        ),
        ("root_set", "part_sizes", "degrees"),
    ),
    "replace": (
        lambda seq: RootedForest((0,)).replace(parents=seq([0, 1, 1])),
        ("parents",),
    ),
}


@pytest.mark.parametrize("name", SEQUENCES)
def test_sequence_fields_are_stored_as_tuples(name):
    make, fields = SEQUENCES[name]
    listed, tupled = make(list), make(tuple)
    assert listed == tupled and hash(listed) == hash(tupled)
    for field in fields:
        assert type(getattr(listed, field)) is tuple


def test_replace_of_an_unknown_field():
    with pytest.raises(TypeError, match="^RootedForest has no field 'bogus'$"):
        RootedForest((0, 1, 1)).replace(bogus=1)


@pytest.mark.parametrize("copier", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-0", "deepcopy", "copy"])
def test_copies_round_trip(case, copier):
    make, _, text = case
    value = make()
    twin = copier(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == text


# A trace's counts and choices, and the sampler's numbers, are ints: the
# call and its ValueError.
NON_INTEGERS = {
    "choice": (
        lambda: ChoiceTrace("plain", 4, 0, (1.0, 2)),
        "n, colors and choices must be ints, got 1.0",
    ),
    "trace colors": (
        lambda: decode(ChoiceTrace("colored", 4, 3.0, (1, 1, 1))),
        "n, colors and choices must be ints, got 3.0",
    ),
    "trace n": (
        lambda: ChoiceTrace("plain", 4.0, 0, (1, 2)),
        "n, colors and choices must be ints, got 4.0",
    ),
    "bounds colors": (
        lambda: trace_bounds("colored", 4, 2.5),
        "n and colors must be ints, got 2.5",
    ),
    "draw bound": (lambda: SplitMix64(1).below(2.5), "bound must be an int, got 2.5"),
    "generator seed": (lambda: SplitMix64(1.5), "seed must be an int, got 1.5"),
    "sampler seed": (
        lambda: sample_uniform("plain", 5, 1.5),
        "seed must be an int, got 1.5",
    ),
    "sampler roots": (
        lambda: sample_uniform("plain", 5, 1, roots=2.0),
        "roots must be an int, got 2.0",
    ),
}


@pytest.mark.parametrize("case", NON_INTEGERS)
def test_non_integers_are_rejected(case):
    make, message = NON_INTEGERS[case]
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
