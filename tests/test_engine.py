"""The run engine behind decode, encode and sample_uniform, against the
public bijection steps it replaces.

``_inverse_run`` and ``_step_encode`` below run the public steps one by
one; the engine must give the same forest and the same trace on every
trace of the small sizes, and the sampler the same forest for every draw
sequence, conditioned or not, at roots 1, 2, 3 and n-1.  Every output is
also checked anew on the validating construction path
(``helpers.revalidate``).
"""

import random
import re
from itertools import product

import pytest
from helpers import revalidate

from forestcodec import (
    ChoiceTrace,
    EdgeColoredForest,
    RootedForest,
    SplitMix64,
    decode,
    encode,
    parse_colored,
    parse_forest,
    parse_plane,
    sample_uniform,
    swap_colored_labels,
    swap_labels,
    trace_bounds,
)
from forestcodec import bijections as bij
from forestcodec.codec import _family_of, _split_head
from forestcodec.forests import _child_index, _plane_word, _preorder, plane_relabel


# --------------------------------------------------------------------------
# The step-by-step references: the public steps, one call per step
# --------------------------------------------------------------------------


def _base(family: str, n: int, colors: int = 0, base_color: int = 0):
    """Roots 1..n-1 and vertex n below root 1, its edge colored base_color."""
    if family == "plane":
        # In preorder: root 1 and n below it, then the roots 2..n-1.
        labels = (1, n, *range(2, n)) if n > 1 else (1,)
        return _plane_word(labels, (int(n > 1),) + (0,) * (len(labels) - 1))
    base = RootedForest((0,) * (n - 1) + (int(n > 1),))
    if family == "plain":
        return base
    return EdgeColoredForest(base, colors, (0,) * (n - 1) + (base_color,))


def _inverse_run(family: str, n: int, colors: int, choices: tuple[int, ...]):
    """Run the public inverse steps k = n-1, n-2, ... from the maximal-root
    state, one per choice; a colored run first takes the base color.

    The step-by-step reference for ``codec._run``, which ``decode`` and
    ``sample_uniform`` use.
    """
    base_color, choices = _split_head(family, n, choices)
    forest = _base(family, n, colors, base_color)
    inverse = getattr(bij, f"{family}_inverse")
    for k, c in zip(range(n - 1, 1, -1), choices):
        forest = inverse(forest, k, c)
    return forest


def _step_encode(forest) -> ChoiceTrace:
    """``encode`` by the public forward steps k = 2, ..., n-1: the
    step-by-step reference for the ``codec._run`` replay."""
    family, n, colors = _family_of(forest)
    getattr(bij, f"{family}_choice_count")(forest, 1)  # raises unless a member
    forward = getattr(bij, f"{family}_forward")
    chosen = []
    for k in range(2, n):
        forest, c = forward(forest, k)
        chosen.append(c)
    head = _base_check(family, n, colors, forest)
    return ChoiceTrace(family, n, colors, head + tuple(reversed(chosen)))


def _base_check(family: str, n: int, colors: int, forest) -> tuple[int, ...]:
    """The trace head of a forest that must be the maximal-root state: the
    color of the edge into n when colored.  Raises if it is not that state."""
    # A colored trace opens with the color of the edge into n.
    head = (forest.colors[n - 1],) if family == "colored" and n > 1 else ()
    if head == (colors,):  # n's edge, out of root 1 in the base state
        raise ValueError("an edge out of a root carries the last color")
    if forest != _base(family, n, colors, *head):
        raise ValueError(f"input is not a one-root {family} family member")
    return head


SMALL = (
    [("plain", n, 0) for n in range(1, 7)]
    + [("plane", n, 0) for n in range(1, 6)]
    + [("colored", n, 3) for n in range(1, 5)]
    # kc = 2: a root offers one color; kc = 5: a free-color rank reaches 3.
    + [("colored", n, 2) for n in range(1, 7)]
    + [("colored", n, 5) for n in range(1, 5)]
)

RELABEL = {
    "plain": swap_labels,
    "plane": plane_relabel,
    "colored": swap_colored_labels,
}


class Scripted:
    """Stands in for SplitMix64: ``below`` returns the given draws in order."""

    def __init__(self, draws) -> None:
        self.draws = iter(draws)

    def below(self, bound: int) -> int:
        d = next(self.draws)
        assert 0 <= d < bound
        return d


def step_sample(family, n, colors, drawn, j):
    """What sample_uniform returns for the inverse-step choices ``drawn``
    and the root j that takes label 1, by the public steps."""
    return RELABEL[family](_inverse_run(family, n, colors, drawn), 1, j)


def root_counts(n: int) -> list[int]:
    return sorted({r for r in (1, 2, 3, n - 1) if 1 <= r <= max(n - 1, 1)})


def check_sampler(family, n, colors, roots, drawn) -> None:
    """sample_uniform against step_sample, conditioned and not, for one
    choice sequence and every root j."""
    draws = [c - 1 for c in drawn]
    want = _inverse_run(family, n, colors, drawn)
    got = sample_uniform(
        family, n, 0, colors=colors, roots=roots, rng=Scripted(draws)
    )
    assert got == want
    revalidate(got)
    for j in range(1, roots + 1) if roots > 1 else ():
        got = sample_uniform(
            family, n, 0, colors=colors, roots=roots, conditioned=False,
            rng=Scripted(draws + [j - 1]),
        )
        assert got == step_sample(family, n, colors, drawn, j)
        revalidate(got)


class Unchecked(Scripted):
    """Scripted, without the range check: ``below`` returns any draw."""

    def below(self, bound: int):
        return next(self.draws)


class Skewed(SplitMix64):
    """A SplitMix64 whose draws fall one past their bound."""

    def below(self, bound: int) -> int:
        return bound


@pytest.mark.parametrize(
    "rng, n, roots, conditioned, message",
    [
        (Unchecked([4, 0]), 4, 1, True, "draw 4 out of range 0..3"),
        (Unchecked([0, -1]), 4, 1, True, "draw -1 out of range 0..3"),
        (Unchecked([1.0, 0]), 4, 1, True, "draw must be an int, got 1.0"),
        # The draw of the root that takes label 1, among roots 1..3.
        (Unchecked([0, 3]), 5, 3, False, "draw 3 out of range 0..2"),
        (Skewed(0), 4, 1, True, "draw 4 out of range 0..3"),
    ],
    ids=("above", "negative", "float", "relabel", "subclass"),
)
def test_sampler_checks_foreign_draws(rng, n, roots, conditioned, message):
    """An rng that is not exactly SplitMix64 has each draw checked before
    the run: plain n = 4 draws from 0..3 twice, and n = 5 with three roots
    from 0..4 once and then the root from 0..2."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_uniform("plain", n, 0, roots=roots, conditioned=conditioned, rng=rng)


def case_id(case) -> str:
    family, n, colors = case
    return f"{family}-n{n}" + (f"-kc{colors}" if colors else "")


@pytest.mark.parametrize("case", SMALL, ids=case_id)
def test_every_trace(case):
    family, n, colors = case
    bounds = trace_bounds(family, n, colors)
    for choices in product(*(range(1, b + 1) for b in bounds)):
        trace = ChoiceTrace(family, n, colors, choices)
        forest = _inverse_run(family, n, colors, choices)
        assert decode(trace) == forest
        assert encode(forest) == _step_encode(forest) == trace
        revalidate(decode(trace))
        revalidate(encode(forest))


@pytest.mark.parametrize("case", SMALL, ids=case_id)
def test_sampler_every_draw(case):
    family, n, colors = case
    bounds = trace_bounds(family, n, colors)
    for roots in root_counts(n):
        drawn = bounds[: len(bounds) - roots + 1]
        for choices in product(*(range(1, b + 1) for b in drawn)):
            check_sampler(family, n, colors, roots, choices)


AT_SIZE = (("plain", 0), ("plane", 0), ("colored", 3), ("colored", 4))


@pytest.mark.parametrize(
    "family, colors", AT_SIZE, ids=("plain", "plane", "colored-kc3", "colored-kc4")
)
def test_random_traces_at_size(family, colors):
    """100 uniform traces a family at n = 8..60: there tree k often holds
    labels on both sides of a Fenwick node the engine's walk passes, which
    the exhaustive small sizes rarely reach."""
    rng = random.Random(f"{family}-{colors}")
    for _ in range(100):
        n = rng.randint(8, 60)
        choices = tuple(rng.randint(1, b) for b in trace_bounds(family, n, colors))
        trace = ChoiceTrace(family, n, colors, choices)
        forest = _inverse_run(family, n, colors, choices)
        assert decode(trace) == forest
        assert encode(forest) == _step_encode(forest) == trace
        revalidate(decode(trace))
        revalidate(encode(forest))


# --------------------------------------------------------------------------
# Adversarial shapes at n = 400
# --------------------------------------------------------------------------

N = 400
HALF = N // 2

# shape -> the parents of its one-root plain forest at n = N
PLAIN_SHAPES = {
    # Every vertex below 1: each inverse step hangs its tree into tree 1.
    "star": (0,) + (1,) * (N - 1),
    # 2 and N below 1, the rest below 2: the steps hang singletons below 2
    # and join them in one large list outside tree 1.
    "broom": (0, 1) + (2,) * (N - 3) + (1,),
    "chain": tuple(range(N)),
    # The spine 1..HALF, and the leaf HALF + i below each spine vertex i.
    "caterpillar": tuple(range(HALF)) + tuple(range(1, HALF + 1)),
    # N below 1 and every other vertex below the next label: each step
    # hangs its tree below a vertex that an earlier step moved into tree 1.
    "descending-chain": (0, *range(3, N + 1), 1),
    # 2 and N below 1, N-1 below 2, and every other vertex below the next
    # label: each step hangs its tree below a vertex that an earlier join
    # moved into tree 2's list.
    "pole": (0, 1, *range(4, N), 2, 1),
}


def _plane_of(parents):
    """The plane forest of a parent map, children in ascending order."""
    kids = _child_index(parents)
    return _plane_word(*_preorder(kids[0], kids.__getitem__, int))


def _alternating_chain(colors: int) -> EdgeColoredForest:
    """The chain, its edges colored 1 and ``colors`` in turn from root 1."""
    edges = tuple(1 if v % 2 == 0 else colors for v in range(2, N + 1))
    return EdgeColoredForest(RootedForest(PLAIN_SHAPES["chain"]), colors, (0, *edges))


def _colored_caterpillar() -> EdgeColoredForest:
    """The caterpillar with kc = 3: spine edges 1 and 3 in turn from root 1,
    and every leaf edge 2."""
    spine = tuple(1 if v % 2 == 0 else 3 for v in range(2, HALF + 1))
    base = RootedForest(PLAIN_SHAPES["caterpillar"])
    return EdgeColoredForest(base, 3, (0, *spine, *(2,) * HALF))


SHAPES = {
    **{f"plain-{name}": lambda p=p: RootedForest(p) for name, p in PLAIN_SHAPES.items()},
    **{f"plane-{name}": lambda p=p: _plane_of(p) for name, p in PLAIN_SHAPES.items()},
    "colored-chain-kc3": lambda: _alternating_chain(3),
    "colored-chain-kc4": lambda: _alternating_chain(4),
    "colored-caterpillar": _colored_caterpillar,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_adversarial_shapes(shape):
    """Wide and deep one-root members at n = 400 against the public steps:
    the star hangs every tree into tree 1, the broom joins singletons into
    one large list outside it, the descending chain and the pole hang trees
    below vertices that earlier joins moved, and the chains and caterpillars
    swap labels 1 and k at many steps."""
    forest = SHAPES[shape]()
    family, n, colors = _family_of(forest)
    assert n == N
    trace = encode(forest)
    assert trace == _step_encode(forest)
    assert decode(trace) == _inverse_run(family, n, colors, trace.choices) == forest
    revalidate(trace)
    revalidate(decode(trace))


def test_encode_errors_match_the_steps():
    """Non-members raise what the step-by-step encode raises, members
    encode alike."""
    forests = [
        parse_forest("3 2 0 0 1"),  # two roots
        parse_forest("2 2 0 0"),  # two roots, and no step to run
        parse_forest("4 1 0 4 1 1"),
        parse_plane("1(2);3"),
        parse_plane("1(*,2)"),  # an unlabeled leaf
        parse_plane("2(1,3)"),  # the root is not 1
        parse_plane("1(3,2)"),
        parse_colored("3 1 0 1 1\n0 3 1", 3),  # the last color at the root
        parse_colored("3 1 0 1 2\n0 1 3", 3),
        parse_colored("2 1 0 1\n0 3", 3),  # the last color, and no step
        parse_plane("1;2"),  # two roots, and no step
        parse_colored("2 2 0 0\n0 0", 3),  # two roots, and no step
    ]
    for forest in forests:
        try:
            want = _step_encode(forest)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                encode(forest)
            assert str(got.value) == str(exc)
        else:
            assert encode(forest) == want
    last_color = "^an edge out of a root carries the last color$"
    with pytest.raises(ValueError, match=last_color):
        encode(parse_colored("2 1 0 1\n0 3", 3))
    # n = 2 names a second root as n >= 3 does.
    two_roots = r"^expected roots exactly 1\.\.1, got \(1, 2\)$"
    for forest in (
        parse_forest("3 2 0 0 1"),
        parse_forest("2 2 0 0"),
        parse_plane("1;2"),
        parse_colored("2 2 0 0\n0 0", 3),
    ):
        with pytest.raises(ValueError, match=two_roots):
            encode(forest)
