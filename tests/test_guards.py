"""Input guards of forests, bijections, codec, enumeration and cli that the
other tests never reach: each call raises, with the start of its message."""

import pytest

from forestcodec import EdgeColoredForest, RootedForest, cli
from forestcodec.bijections import reroot_tree
from forestcodec.codec import (
    ChoiceTrace,
    decode,
    encode,
    parse_trace,
    sample_uniform,
    trace_bounds,
    trace_space_size,
)
from forestcodec.enumeration import (
    BUDGET_ENV_VAR,
    canonical_key,
    default_budget,
    verify_recurrence,
)
from forestcodec.forests import attach_subtree, detach_subtree, swap_colored_labels

CHERRY = RootedForest((0, 1, 1))  # 2 and 3 below 1
COLORED_CHERRY = EdgeColoredForest(CHERRY, 3, (0, 1, 2))

# name -> (the call, the error type, the start of its message)
GUARDS = {
    # A vertex outside 1..n would index the parent map from its end, or
    # past it.
    "detach at vertex 0": (
        lambda: detach_subtree(CHERRY, 0), ValueError, "vertex 0 out of range 1..3"
    ),
    "detach above n": (
        lambda: detach_subtree(CHERRY, 4), ValueError, "vertex 4 out of range 1..3"
    ),
    "attach of vertex 0": (
        lambda: attach_subtree(CHERRY, 0, 2),
        ValueError,
        "vertex 0 out of range 1..3",
    ),
    "attach of a vertex above n": (
        lambda: attach_subtree(CHERRY, 4, 2),
        ValueError,
        "vertex 4 out of range 1..3",
    ),
    "reroot at vertex 0": (
        lambda: reroot_tree(CHERRY, 0), ValueError, "vertex 0 out of range 1..3"
    ),
    "reroot above n": (
        lambda: reroot_tree(CHERRY, 4), ValueError, "vertex 4 out of range 1..3"
    ),
    "colored swap of vertex 0 with itself": (
        lambda: swap_colored_labels(COLORED_CHERRY, 0, 0),
        ValueError,
        "vertex 0 out of range 1..3",
    ),
    "colored swap of a vertex above n with itself": (
        lambda: swap_colored_labels(COLORED_CHERRY, 9, 9),
        ValueError,
        "vertex 9 out of range 1..3",
    ),
    "trace with n < 1": (
        lambda: ChoiceTrace("plain", 0), ValueError, "need n >= 1, got 0"
    ),
    "bounds of an unknown family": (
        lambda: trace_bounds("zeta", 3), ValueError, "no codec for family 'zeta'"
    ),
    "sample of an unknown family": (
        lambda: sample_uniform("zeta", 3, 1), ValueError, "no sampler for family 'zeta'"
    ),
    # Traces, bounds and samples check their parameters alike.
    "bounds with n < 1": (
        lambda: trace_bounds("plain", -5), ValueError, "need n >= 1, got -5"
    ),
    "space size with n < 1": (
        lambda: trace_space_size("plain", 0), ValueError, "need n >= 1, got 0"
    ),
    "colored space size without colors": (
        lambda: trace_space_size("colored", 3, 0),
        ValueError,
        "colored traces need at least two colors",
    ),
    "colored sample with one color": (
        lambda: sample_uniform("colored", 3, 1, colors=1),
        ValueError,
        "colored traces need at least two colors",
    ),
    "sample of a text n": (
        lambda: sample_uniform("plain", "5", 1),
        ValueError,
        "n and colors must be ints, got '5'",
    ),
    # At n = 1 a colored trace has no head, but counting needs one color.
    "colored trace with 0 colors at n = 1": (
        lambda: ChoiceTrace("colored", 1, 0),
        ValueError,
        "colored traces need at least one color, got 0",
    ),
    "colored bounds with 0 colors at n = 1": (
        lambda: trace_bounds("colored", 1, 0),
        ValueError,
        "colored traces need at least one color, got 0",
    ),
    "colored space size with 0 colors at n = 1": (
        lambda: trace_space_size("colored", 1, 0),
        ValueError,
        "colored traces need at least one color, got 0",
    ),
    "colored sample with 0 colors at n = 1": (
        lambda: sample_uniform("colored", 1, 1, colors=0),
        ValueError,
        "colored traces need at least one color, got 0",
    ),
    "encode of a colored vertex with 0 colors": (
        lambda: encode(EdgeColoredForest(RootedForest((0,)), 0, (0,))),
        ValueError,
        "colored traces need at least one color, got 0",
    ),
    "encode of a non-forest": (lambda: encode(42), TypeError, "cannot encode int"),
    "decode of a non-trace": (lambda: decode(42), TypeError, "cannot decode int"),
    "trace without a family name": (
        lambda: parse_trace(" : 1 2"), ValueError, "missing family name"
    ),
    "trace without an n header": (
        lambda: parse_trace("plain : 1"), ValueError, "expected 'plain n : ...'"
    ),
    "input of no kind": (
        lambda: cli._parse_any("x y", "auto", None),
        ValueError,
        "cannot detect the input kind",
    ),
    "input led by a superscript digit": (
        lambda: cli._parse_any("\u00b2 0", "auto", None),
        ValueError,
        "cannot detect the input kind",
    ),
    "colored input without kc": (
        lambda: cli._parse_any("3 1 0 1 1\n0 1 2", "colored", None),
        ValueError,
        "colored input needs --kc",
    ),
    "grid entry without =": (
        lambda: cli._parse_grid("r=2..3,s2"),
        ValueError,
        "grid entries look like var=lo..hi, got 's2'",
    ),
    "key of a non-forest": (
        lambda: canonical_key(42), TypeError, "no canonical key for int"
    ),
    "recurrence of an unknown family": (
        lambda: verify_recurrence("kary"),
        ValueError,
        "no recurrence check for family 'kary'",
    ),
    "recurrence of partite with n": (
        lambda: verify_recurrence("partite", n=4, part_sizes=(2, 3)),
        ValueError,
        "partite forests take no n, got 4",
    ),
    # A parameter the family never reads is an error, as in enumerate_family.
    "recurrence of plain with colors": (
        lambda: verify_recurrence("plain", 4, colors=3),
        ValueError,
        "plain forests take no colors, got 3",
    ),
    "recurrence of plane with parts": (
        lambda: verify_recurrence("plane", 4, part_sizes=(2, 3)),
        ValueError,
        "plane forests take no part_sizes, got (2, 3)",
    ),
    # A plane spec reads leaves as a leaf filter; the recurrence has none.
    "recurrence of plane with leaves": (
        lambda: verify_recurrence("plane", 5, leaves=2),
        ValueError,
        "plane forests take no leaves, got 2",
    ),
    "recurrence of colored with leaves": (
        lambda: verify_recurrence("colored", 4, colors=3, leaves=2),
        ValueError,
        "special-colored forests take no leaves filter",
    ),
    # The step checks come before the spec's.
    "recurrence of plain at n = 2 with colors": (
        lambda: verify_recurrence("plain", 2, colors=3),
        ValueError,
        "need n >= 3 for a recurrence step, got 2",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message), info.value


@pytest.mark.parametrize("raw", ["\u0661\u0660", "1_0", "+10"])
def test_budget_variable_is_ascii(monkeypatch, raw):
    monkeypatch.setenv(BUDGET_ENV_VAR, raw)
    with pytest.raises(ValueError, match=f"^{BUDGET_ENV_VAR} must be an integer: "):
        default_budget()


def test_budget_variable_allows_spaces(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, " 10 ")
    assert default_budget() == 10


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_nonpositive_budget_variable(monkeypatch, raw):
    monkeypatch.setenv(BUDGET_ENV_VAR, raw)
    with pytest.raises(ValueError, match=f"^{BUDGET_ENV_VAR} must be positive: {raw}$"):
        default_budget()
