"""Choice-sequence codecs and exactly uniform random generation.

Iterating a family's forward step from one root up to the maximal-root
state records one choice index per step; the resulting sequence is a
Prufer-like code.  Conversely, decoding any sequence of in-range choices
from the maximal-root state yields a distinct family member, and the trace
space size equals the family's closed-form count.  Drawing every choice
uniformly therefore samples the family exactly uniformly.

The three codec families share this code: one builder of the maximal-root
state (``_base``) and one inverse loop (``_inverse_run``) serve ``decode``
and ``sample_uniform``, and ``encode`` infers the family from the value's
type.  Each family's steps are looked up by name in :mod:`bijections`
(``{family}_forward``, ``{family}_inverse``) when called, and its choice
counts come from its recurrence multiplier in ``trace_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import bijections as bij
from .forests import (
    EdgeColoredForest,
    PlaneForest,
    PlaneNode,
    RootedForest,
    plane_relabel,
    swap_colored_labels,
    swap_labels,
)

CODEC_FAMILIES = ("plain", "plane", "colored")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: a published, fixed 64-bit algorithm.

    Pure integer arithmetic, so identical seeds give identical streams on
    every platform.  Range reduction uses rejection to avoid modulo bias.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4B7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in 0..bound-1, by rejection."""
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


@dataclass(frozen=True)
class ChoiceTrace:
    """The choice sequence reconstructing a one-root forest.

    ``choices`` holds (c_{n-1}, ..., c_2) in decode order: c_k is consumed
    by the inverse step from k roots down to k-1.  Colored traces carry one
    extra leading entry, the color (1..kc-1) of the edge into vertex n in
    the maximal-root state.
    """

    family: str
    n: int
    colors: int = 0
    choices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in CODEC_FAMILIES:
            raise ValueError(f"no codec for family {self.family!r}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.family == "colored" and self.n > 1 and self.colors < 2:
            raise ValueError("colored traces need at least two colors")
        bounds = trace_bounds(self.family, self.n, self.colors)
        if len(self.choices) != len(bounds):
            raise ValueError(
                f"expected {len(bounds)} choices, got {len(self.choices)}"
            )
        for c, bound in zip(self.choices, bounds):
            if not 1 <= c <= bound:
                raise ValueError(f"choice {c} out of range 1..{bound}")


def trace_bounds(family: str, n: int, colors: int = 0) -> tuple[int, ...]:
    """Upper bound of each trace position, aligned with ChoiceTrace.choices."""
    if family not in CODEC_FAMILIES:
        raise ValueError(f"no codec for family {family!r}")
    # The inverse step from k roots has a*n + b*k choices, the family's
    # recurrence multiplier.
    a, b = {"plain": (1, 0), "plane": (2, -1), "colored": (colors - 2, 1)}[family]
    head = (colors - 1,) if family == "colored" and n > 1 else ()
    return head + tuple(a * n + b * k for k in range(n - 1, 1, -1))


def trace_space_size(family: str, n: int, colors: int = 0) -> int:
    """Number of traces, equal to the one-root family's closed-form count."""
    return prod(trace_bounds(family, n, colors))


# --------------------------------------------------------------------------
# Base states: the unique (up to base color) forests with roots 1..n-1
# --------------------------------------------------------------------------


def _base(family: str, n: int, colors: int = 0, base_color: int = 0):
    """Roots 1..n-1 and vertex n below root 1, its edge colored base_color."""
    if family == "plane":
        first = PlaneNode(1, (PlaneNode(n),) if n > 1 else ())
        return PlaneForest((first,) + tuple(PlaneNode(v) for v in range(2, n)))
    base = RootedForest((0,) * (n - 1) + (int(n > 1),))
    if family == "plain":
        return base
    return EdgeColoredForest(base, colors, (0,) * (n - 1) + (base_color,))


def _inverse_run(family: str, n: int, colors: int, choices: tuple[int, ...]):
    """Run the inverse steps k = n-1, n-2, ... from the maximal-root state,
    one per choice; a colored run first takes the base color."""
    base_color = 0
    if family == "colored" and n > 1:
        base_color, choices = choices[0], choices[1:]
    forest = _base(family, n, colors, base_color)
    inverse = getattr(bij, f"{family}_inverse")
    for k, c in zip(range(n - 1, 1, -1), choices):
        forest = inverse(forest, k, c)
    return forest


def decode(trace: ChoiceTrace):
    """Run the inverse steps k = n-1, ..., 2 from the maximal-root state."""
    return _inverse_run(trace.family, trace.n, trace.colors, trace.choices)


def encode(forest) -> ChoiceTrace:
    """Run the forward steps k = 2, ..., n-1 and record their choices.

    The input must be a one-root family member (root 1); the family is
    inferred from the value's type.  ``decode(encode(f)) == f``.
    """
    families = {
        RootedForest: "plain",
        PlaneForest: "plane",
        EdgeColoredForest: "colored",
    }
    family = families.get(type(forest))
    if family is None:
        raise TypeError(f"cannot encode {type(forest).__name__}")
    n = forest.n_vertices if family == "plane" else forest.n
    colors = forest.color_count if family == "colored" else 0
    forward = getattr(bij, f"{family}_forward")
    chosen = []
    for k in range(2, n):
        forest, c = forward(forest, k)
        chosen.append(c)
    # A colored trace opens with the color of the edge into n.
    head = (forest.colors[n - 1],) if family == "colored" and n > 1 else ()
    if forest != _base(family, n, colors, *head):
        raise ValueError(f"input is not a one-root {family} family member")
    return ChoiceTrace(family, n, colors, head + tuple(reversed(chosen)))


# --------------------------------------------------------------------------
# Trace text format:  "family params : c_{n-1} ... c_2"
# --------------------------------------------------------------------------


def render_trace(trace: ChoiceTrace) -> str:
    params = [str(trace.n)]
    if trace.family == "colored":
        params.append(str(trace.colors))
    body = " ".join(str(c) for c in trace.choices)
    head = f"{trace.family} {' '.join(params)} :"
    return f"{head} {body}".rstrip()


def parse_trace(text: str) -> ChoiceTrace:
    if ":" not in text:
        raise ValueError("expected 'family params : choices'")
    head, _, body = text.partition(":")
    fields = head.split()
    if not fields:
        raise ValueError("missing family name")
    family = fields[0]
    if family == "colored":
        if len(fields) != 3:
            raise ValueError("colored traces need 'colored n kc : ...'")
        n, colors = int(fields[1]), int(fields[2])
    else:
        if len(fields) != 2:
            raise ValueError(f"expected '{family} n : ...'")
        n, colors = int(fields[1]), 0
    choices = tuple(int(tok) for tok in body.split())
    return ChoiceTrace(family, n, colors, choices)


# --------------------------------------------------------------------------
# Uniform sampling
# --------------------------------------------------------------------------


def sample_uniform(
    family: str,
    n: int,
    seed: int,
    *,
    colors: int = 0,
    roots: int = 1,
    conditioned: bool = True,
    rng: SplitMix64 | None = None,
):
    """Draw an exactly uniform member of the family with the given roots.

    Every inverse-step choice is drawn uniformly from its range, so the
    decode image is hit uniformly; that image is exactly the conditioned
    family with ``roots`` roots.  For the unconditioned family the pivot
    root is then itself relabeled uniformly among 1..roots, matching the
    k-fold relation between the two counts.
    """
    if family not in CODEC_FAMILIES:
        raise ValueError(f"no sampler for family {family!r}")
    if not 1 <= roots <= max(n - 1, 1):
        raise ValueError(f"root count {roots} out of range")
    if family == "colored" and n > 1 and colors < 2:
        raise ValueError("colored sampling needs at least two colors")
    if rng is None:
        rng = SplitMix64(seed)
    # Only the inverse steps from n-1 roots down to `roots` roots are run,
    # so the last roots-1 positions of the trace are never drawn.
    bounds = trace_bounds(family, n, colors)
    drawn = bounds[: len(bounds) - roots + 1]
    forest = _inverse_run(
        family, n, colors, tuple(rng.below(b) + 1 for b in drawn)
    )
    if not conditioned and roots > 1:
        j = rng.below(roots) + 1
        if j != 1:
            relabel = {
                "plain": swap_labels,
                "plane": plane_relabel,
                "colored": swap_colored_labels,
            }[family]
            forest = relabel(forest, 1, j)
    return forest
