"""Exhaustive generators for every forest family at small sizes.

These are the brute-force oracles: deliberately naive, auditable, and in a
fixed canonical order, so closed-form counts, bijection steps, and codecs
can all be checked against them.  Every stream is produced lazily, already
in canonical order.  The plain, partite and colored families generate
every candidate and keep those that pass the value types' own checks
(``_cycle_vertex``, ``_descends``, ``_part_table``, ``_properly_colored``,
``_special``), so each membership rule has one definition.  Each of their
candidates is one tuple of a ``product`` over the vertices in label order
(``_candidates``), with each root's entry fixed at ``(0,)``: a parent map
(plain, partite) or a coloring (colored), which the filters test and the
value keeps as it is.  The plane
families (plane, leafplane and k-ary, labeled or shapes) come from one
generator and spend their candidate budget one candidate at a time as they
go.  Every candidate is spent against the budget, the filters run on the
raw candidate cheapest first, and only a survivor becomes a value, through
its validating constructor.
"""
from __future__ import annotations

import os
import sys
from itertools import product
from math import prod
from typing import Iterator, Sequence

from .forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    RootedForest,
    _INTEGER,
    _Value,
    _child_index,
    _cycle_vertex,
    _depths,
    _descends,
    _part_table,
    _plane_word,
    _properly_colored,
    _rebuilt,
    _set,
    _special,
)

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "FORESTCODEC_ORACLE_BUDGET"

class BudgetExceededError(RuntimeError):
    """The search space exceeds the configured candidate budget."""


class _Budget:
    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"candidate budget must be positive: {limit}")
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"candidate budget exceeded: {self.used} > {self.limit}"
            )


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    # ASCII digits, as in the text formats; int() also takes other scripts'.
    if not _INTEGER.fullmatch(raw.strip()):
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer: {raw!r}")
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive: {value}")
    return value


class FamilySpec(_Value):
    """Which family to enumerate, with its parameters.

    ``roots`` is the root count k (roots are then 1..k); ``root_set`` can
    name an arbitrary root set instead.  ``conditioned`` restricts to the
    family's pivot condition: the largest (internal) label lies in tree 1,
    or for partite families the smallest label of part 2 does.  ``degrees``
    filters labeled families by exact child counts per vertex.
    """

    __slots__ = (
        "family", "n", "roots", "root_set", "part_sizes", "leaves", "colors",
        "arity", "conditioned", "labeled", "degrees",
    )

    def __new__(
        cls, family: str, n: int = 0, roots: int = 1,
        root_set: tuple[int, ...] | None = None, part_sizes: tuple[int, ...] = (),
        leaves: int | None = None, colors: int = 0, arity: int = 0,
        conditioned: bool = False, labeled: bool = True,
        degrees: tuple[int, ...] | None = None,
    ) -> FamilySpec:
        fields = (family, n, roots, root_set, part_sizes, leaves, colors, arity)
        return _rebuilt(cls, (*fields, conditioned, labeled, degrees))

    def __post_init__(self) -> None:
        for name in ("root_set", "part_sizes", "degrees"):
            x = getattr(self, name)
            if x is not None:
                _set(self, name, tuple(x))

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("n", "roots", "leaves", "colors", "arity"):
            x = getattr(self, name)
            if x is not None and not isinstance(x, int):
                raise ValueError(f"{name} must be an int, got {x!r}")
        for name in ("root_set", "part_sizes", "degrees"):
            for x in getattr(self, name) or ():
                if not isinstance(x, int):
                    raise ValueError(f"{name} entries must be ints, got {x!r}")
        if self.family == "partite":
            if len(self.part_sizes) < 2 or any(s < 1 for s in self.part_sizes):
                raise ValueError("partite family needs at least two nonempty parts")
        elif self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.family == "kary" and self.arity < 1:
            raise ValueError("kary needs arity >= 1")
        total = self.total_vertices()
        if self.root_set is not None:
            rs = self.root_set
            ascending = all(a < b for a, b in zip(rs, rs[1:]))
            if not rs or not ascending or rs[0] < 1 or rs[-1] > total:
                raise ValueError(f"bad root set {rs}")
        elif not 1 <= self.roots <= total:
            raise ValueError(f"root count {self.roots} out of range")
        if self.conditioned and 1 not in self.root_labels():
            raise ValueError("the pivot condition needs vertex 1 as a root")
        if self.family == "leafplane":
            if self.leaves is None or not 0 < self.leaves < self.n:
                raise ValueError("leafplane needs a leaf count 0 < p < n")
        if self.family in ("leafplane", "kary") and self.root_set is not None:
            raise ValueError(f"{self.family} roots are always labeled 1..r")
        if self.family in ("colored", "special-colored") and self.colors < 1:
            raise ValueError("colored families need at least one color")
        if self.degrees is not None and min(self.degrees, default=0) < 0:
            raise ValueError("degrees must be nonnegative")
        # A filter the family's generator would drop is an error, not a no-op.
        shapes = not self.labeled and self.family in ("plane", "kary")
        kind = f"unlabeled {self.family}" if shapes else self.family
        unfiltered = shapes or self.family in ("leafplane", "kary")
        if self.degrees is not None and unfiltered:
            raise ValueError(f"{kind} forests take no degrees filter")
        if self.conditioned and shapes:
            raise ValueError(f"{kind} forests take no conditioned filter")
        if not self.labeled and not shapes:
            raise ValueError(f"{kind} forests have no unlabeled shapes")
        if self.leaves is not None and self.family not in ("plane", "leafplane"):
            raise ValueError(f"{kind} forests take no leaves filter")
        if shapes and self.family == "kary" and self.roots != 1:
            raise ValueError(f"{kind} forests are single trees: roots must be 1")
        if self.colors and not self.family.endswith("colored"):
            raise ValueError(f"{kind} forests take no colors, got {self.colors}")
        if self.arity and self.family != "kary":
            raise ValueError(f"{kind} forests take no arity, got {self.arity}")
        if self.part_sizes and self.family != "partite":
            raise ValueError(f"{kind} forests take no part_sizes, got {self.part_sizes}")
        if self.n and self.family == "partite":
            raise ValueError(f"{kind} forests take no n, got {self.n}")

    def total_vertices(self) -> int:
        if self.family == "partite":
            return sum(self.part_sizes)
        if self.family == "kary":
            return self.arity * self.n + len(self.root_labels())
        return self.n

    def root_labels(self) -> tuple[int, ...]:
        if self.root_set is not None:
            return self.root_set
        return tuple(range(1, self.roots + 1))


# --------------------------------------------------------------------------
# Canonical order keys
# --------------------------------------------------------------------------


def plane_key(pf: PlaneForest) -> tuple[int, ...]:
    """The canonical order key of a plane forest, as one flat int tuple.

    Each vertex gives 1 and its label (0 when unlabeled), then the keys of
    its children, then 0; the forest gives its trees' keys and a final 0.
    This orders forests as the nested ``(label, children)`` tuples would:
    the 0 that ends a child list sorts before the 1 that opens one more
    child.  One pass over the preorder word, so depth is no limit.
    """
    key: list[int] = []
    depth = _depths(pf.preorder_degrees)
    for i, x in enumerate(pf.preorder_labels):
        key += (1, x) + (0,) * (depth[i] + 1 - depth[i + 1])
    key.append(0)
    return tuple(key)


def canonical_key(obj):
    if isinstance(obj, RootedForest):
        return obj.parents
    if isinstance(obj, EdgeColoredForest):
        return (obj.base.parents, obj.colors)
    if isinstance(obj, PlaneForest):
        return plane_key(obj)
    raise TypeError(f"no canonical key for {type(obj).__name__}")


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def _checked(spec: FamilySpec, budget: int | None) -> _Budget:
    """Check spec and budget now; ``enumerate_family`` checks at its first draw
    only, as a generator function, whose yields perfbench's tracer counts."""
    spec.validate()
    return _Budget(default_budget() if budget is None else budget)


def enumerate_family(spec: FamilySpec, budget: int | None = None) -> Iterator:
    """Yield each family member exactly once, in canonical order."""
    guard = _checked(spec, budget)
    yield from _GENERATORS[spec.family](spec, guard)


def count_by_enumeration(spec: FamilySpec, budget: int | None = None) -> int:
    return sum(1 for _ in enumerate_family(spec, budget))


def enumerate_degree_filtered(
    spec: FamilySpec, degrees: Sequence[int], budget: int | None = None
) -> Iterator:
    """Members of the family whose vertex i has exactly degrees[i-1] children."""
    yield from enumerate_family(spec.replace(degrees=tuple(degrees)), budget)


# --------------------------------------------------------------------------
# Plain and partite forests: parent assignment plus acyclicity filter
# --------------------------------------------------------------------------


def _candidates(
    choices: Sequence[Sequence[int]], guard: _Budget
) -> Iterator[tuple[int, ...]]:
    """Each tuple that takes one entry of each choice list, in lexicographic
    order; the whole space is spent against the budget before the first."""
    guard.spend(prod(map(len, choices)))
    return product(*choices)


def _assignment_stream(
    choices: list[Sequence[int]],
    edges: int,
    pivot: int | None,
    degrees: tuple[int, ...] | None,
    guard: _Budget,
) -> Iterator[RootedForest]:
    """The members whose vertex v takes its parent from ``choices[v - 1]``,
    ``(0,)`` at a root, with ``edges`` non-roots."""
    candidates = _candidates(choices, guard)
    n = len(choices)
    # A member's child counts add up to its number of non-roots; checking
    # the sum first also bounds the length of ``want`` below.
    if degrees is not None and (len(degrees) != n or sum(degrees) != edges):
        return
    # Vertex x is the parent of degrees[x - 1] vertices and 0 of each root:
    # a member's parent map, sorted, is ``want``.
    want = None
    if degrees is not None:
        want = [0] * (n - edges)
        want += [x for x, d in enumerate(degrees, start=1) for _ in range(d)]
    for parents in candidates:
        if want is not None and sorted(parents) != want:
            continue
        if _cycle_vertex(parents):
            continue
        # After the cycle test: _descends would walk a cycle forever.
        if pivot is not None and not _descends(parents, pivot, 1):
            continue
        yield RootedForest(parents)


def _plain(spec: FamilySpec, guard: _Budget) -> Iterator[RootedForest]:
    n, roots = spec.n, spec.root_labels()
    choices = [(0,) if v in roots else range(1, n + 1) for v in range(1, n + 1)]
    pivot = n if spec.conditioned else None
    yield from _assignment_stream(choices, n - len(roots), pivot, spec.degrees, guard)


def _partite(spec: FamilySpec, guard: _Budget) -> Iterator[RootedForest]:
    part = _part_table(PartAssignment(tuple(spec.part_sizes)))
    n = len(part) - 1
    roots = spec.root_labels()
    choices = [
        (0,) if v in roots else [u for u in range(1, n + 1) if part[u] != part[v]]
        for v in range(1, n + 1)
    ]
    pivot = spec.part_sizes[0] + 1 if spec.conditioned else None
    yield from _assignment_stream(choices, n - len(roots), pivot, spec.degrees, guard)


# --------------------------------------------------------------------------
# Plane, leafplane and k-ary forests: one generator, in canonical order
# --------------------------------------------------------------------------

# A child-count rule: the least and most children of an unlabeled vertex and
# of a labeled one.  In leafplane and k-ary the unlabeled vertices are the
# leaves.
_MANY = sys.maxsize
_PLANE = ((0, _MANY), (0, _MANY))
_LEAFPLANE = ((0, 0), (1, _MANY))

Rule = tuple[tuple[int, int], tuple[int, int]]


def _child_lists(
    labels: tuple, blanks: int, low: int, high: int, rule: Rule, need: int,
    exact: bool,
) -> Iterator[tuple[tuple[int, ...], int, tuple, int]]:
    """Each sequence of ``low`` to ``high`` plane trees under ``rule``,
    drawn from a pool of free ``labels`` (ascending) and ``blanks``
    unlabeled vertices, in ``plane_key`` order: its part of the preorder
    word, as (label, child count) pairs run together, its number of trees,
    and the pool it leaves.

    The sequence leaves at least ``need`` blanks, or when ``exact`` just
    those and no label.  A pool entry of 0 takes the labeled rule but no
    label; equal entries are tried once.
    """
    # When a labeled vertex needs a child, every subtree holds a blank: keep
    # one back for each subtree still owed.
    each = rule[1][0] > 0
    if blanks < need + each * low:
        return
    # A position takes, in key order: the end of the sequence, an unlabeled
    # vertex (key 0), then each free label in ascending order.
    if not low and not (exact and (labels or blanks != need)):
        yield (), 0, labels, blanks
    if not high:
        return
    low, high = low and low - 1, high - 1
    firsts = [(0, rule[0], labels, blanks - 1)] if blanks else []
    firsts += [
        (v, rule[1], labels[:i] + labels[i + 1 :], blanks)
        for i, v in enumerate(labels)
        if not i or v != labels[i - 1]
    ]
    # The last child of an exact sequence with no more to come is exact too.
    kid_need, kid_exact = need + each * low, exact and not high
    for label, (kid_low, kid_high), labels_in, blanks_in in firsts:
        for kids, count, labels_left, blanks_left in _child_lists(
            labels_in, blanks_in, kid_low, kid_high, rule, kid_need, kid_exact
        ):
            child = (label, count, *kids)
            for rest, trees, labels_end, blanks_end in _child_lists(
                labels_left, blanks_left, low, high, rule, need, exact
            ):
                yield child + rest, trees + 1, labels_end, blanks_end


def _plane_forests(
    roots: tuple, labels: tuple, blanks: int, rule: Rule
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each sequence of plane trees with these roots, which take the labeled
    rule, that uses the whole pool, in ``plane_key`` order: its word as in
    ``_child_lists``, and where tree 1's part of it ends.  Every tree but
    the last draws any part of the pool, and the last draws the rest."""
    root, later = roots[0], roots[1:]
    low, high = rule[1]
    for kids, count, labels_left, blanks_left in _child_lists(
        labels, blanks, low, high, rule, (low > 0) * len(later), not later
    ):
        tree = (root, count, *kids)
        if not later:
            yield tree, len(tree)
        else:
            for rest, _ in _plane_forests(later, labels_left, blanks_left, rule):
                yield tree + rest, len(tree)


def _plane(spec: FamilySpec, guard: _Budget) -> Iterator[PlaneForest]:
    """Plane, leafplane and k-ary members, each family under its child-count
    rule.  Leafplane and k-ary label the internal vertices, roots 1..r
    first, leave the leaves unlabeled and take no filter; k-ary shapes are
    single trees, whose other internal vertices join the pool unlabeled."""
    family, roots, arity = spec.family, spec.root_labels(), spec.arity
    internal = spec.n - spec.leaves if family == "leafplane" else spec.n
    labels = tuple(v for v in range(1, internal + 1) if v not in roots)
    blanks = spec.total_vertices() - internal
    pivot = internal if spec.conditioned else None
    leaves, degrees = (spec.leaves, spec.degrees) if family == "plane" else (None, None)
    kary = ((0, 0), (arity, arity))
    rule = {"plane": _PLANE, "leafplane": _LEAFPLANE, "kary": kary}[family]
    if family == "plane" and not spec.labeled:  # shapes: only the leaf filter
        roots, labels, blanks = (0,) * len(roots), (), len(labels)
        pivot = degrees = None
    elif family == "kary" and not spec.labeled:
        roots, labels, pivot = (0,), (0,) * (internal - 1), None
        blanks = (arity - 1) * internal + 1
    elif internal < len(roots):
        return
    for word, first in _plane_forests(roots, labels, blanks, rule):
        guard.spend()
        if pivot is not None and pivot not in word[:first:2]:
            continue
        counts = word[1::2]
        if leaves is not None and counts.count(0) != leaves:
            continue
        if degrees is not None and (
            len(degrees) != len(counts)
            or any(degrees[x - 1] != d for x, d in zip(word[::2], counts))
        ):
            continue
        yield _plane_word(word[::2], counts)


# --------------------------------------------------------------------------
# Properly edge-colored forests
# --------------------------------------------------------------------------


def _colored(spec: FamilySpec, guard: _Budget) -> Iterator[EdgeColoredForest]:
    kc = spec.colors
    special = spec.family == "special-colored"
    for base in _plain(spec, guard):
        parents = base.parents
        # Roots keep color 0, and every edge takes one of 1..kc.
        choices = [range(1, kc + 1) if p else (0,) for p in parents]
        kids = _child_index(parents) if special else None
        for colors in _candidates(choices, guard):
            # Cheapest first: _special reads the root edges only.
            if special and not _special(colors, kc, kids):
                continue
            if not _properly_colored(parents, kc, colors):
                continue
            yield EdgeColoredForest(base, kc, colors)


# family -> its generator, in the order `FAMILIES` lists them.
_GENERATORS = {
    "plain": _plain,
    "partite": _partite,
    "plane": _plane,
    "leafplane": _plane,
    "kary": _plane,
    "colored": _colored,
    "special-colored": _colored,
}
FAMILIES = tuple(_GENERATORS)


# --------------------------------------------------------------------------
# Recurrence verification
# --------------------------------------------------------------------------


class RecurrenceRow(_Value):
    """One verified step: does lhs equal multiplier times rhs?"""

    __slots__ = ("label", "lhs", "multiplier", "rhs")

    def __new__(cls, label: str, lhs: int, multiplier: int, rhs: int) -> RecurrenceRow:
        return _rebuilt(cls, (label, lhs, multiplier, rhs))

    @property
    def ok(self) -> bool:
        return self.lhs == self.multiplier * self.rhs


def verify_recurrence(
    family: str,
    n: int = 0,
    k_range: Sequence[int] | None = None,
    *,
    part_sizes: Sequence[int] = (),
    colors: int = 0,
    leaves: int | None = None,
    budget: int | None = None,
) -> list[RecurrenceRow]:
    """Check the one-more-root recurrence by enumerating both sides.

    For each step k the reported row is (|family with k-1 roots|, the
    multiplier, |family with k roots|); the step passes when the first
    equals the product of the other two.  Both counts come from
    ``enumerate_family``, never from closed forms.  ``k_range`` defaults to
    every step; a k outside them is an error.
    """
    sizes = tuple(part_sizes)
    p = leaves or 0
    if family in ("plain", "plane", "colored") and n < 3:
        raise ValueError(f"need n >= 3 for a recurrence step, got {n}")
    if family == "partite":
        if n:
            raise ValueError(f"partite forests take no n, got {n}")
        if len(sizes) < 2:
            raise ValueError("partite verification needs at least two parts")
        if sizes[0] < 2:
            raise ValueError("need at least two vertices in part 1 for a step")
    if family == "leafplane":
        if leaves is None:
            raise ValueError("leafplane verification needs the base leaf count")
        if n - leaves < 3:
            raise ValueError("need at least three internal vertices for a step")
    # Per family: the default steps k; for step k, the row label and the
    # multiplier; and the parameters of the family with k roots.
    parts = ",".join(map(str, sizes))
    recurrences = {
        "plain": (
            range(2, n),
            lambda k: (f"n={n} k={k}", n),
            lambda k: {"n": n},
        ),
        "partite": (
            range(2, sizes[0] + 1) if sizes else (),
            lambda k: (f"parts={parts} k={k}", sum(sizes[1:])),
            lambda k: {"part_sizes": sizes},
        ),
        "plane": (
            range(2, n),
            lambda k: (f"n={n} k={k}", 2 * n - k),
            lambda k: {"n": n},
        ),
        "leafplane": (
            range(2, n - p),
            lambda k: (f"n={n + k - 2} p={p + k - 2} r={k}", p + k - 1),
            lambda k: {"n": n + k - 1, "leaves": p + k - 1},
        ),
        "colored": (
            range(2, n),
            lambda k: (f"n={n} kc={colors} r={k}", colors * n - 2 * n + k),
            lambda k: {"n": n, "colors": colors},
        ),
    }
    if family not in recurrences:
        raise ValueError(f"no recurrence check for family {family!r}")
    steps, row, params = recurrences[family]
    for k in k_range or ():
        if k not in steps:
            raise ValueError(
                f"k={k} is not a {family} step: k must lie in {steps[0]}..{steps[-1]}"
            )
    spec_family = "special-colored" if family == "colored" else family
    counts: dict[int, int] = {}  # row k's rhs is row k+1's lhs: count it once

    def count(k: int) -> int:
        if k not in counts:
            spec = FamilySpec(spec_family, roots=k, conditioned=True, **params(k))
            counts[k] = count_by_enumeration(spec, budget)
        return counts[k]

    rows = []
    for k in steps if k_range is None else k_range:
        lhs, rhs = count(k - 1), count(k)
        label, multiplier = row(k)
        rows.append(RecurrenceRow(label, lhs, multiplier, rhs))
    return rows
