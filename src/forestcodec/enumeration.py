"""Exhaustive generators for every forest family at small sizes.

These are the brute-force oracles: deliberately naive, auditable, and in a
fixed canonical order, so closed-form counts, bijection steps, and codecs
can all be checked against them.  Every stream is produced lazily, already
in canonical order.  The plane families (plane, leafplane and k-ary,
labeled or shapes) come from one generator and spend their candidate
budget one candidate at a time as they go.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Sequence

from .forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    RootedForest,
    _cycle_vertex,
    _depths,
    _plane_word,
)

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "FORESTCODEC_ORACLE_BUDGET"

FAMILIES = (
    "plain",
    "partite",
    "plane",
    "leafplane",
    "kary",
    "colored",
    "special-colored",
)


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
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer: {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive: {value}")
    return value


@dataclass(frozen=True)
class FamilySpec:
    """Which family to enumerate, with its parameters.

    ``roots`` is the root count k (roots are then 1..k); ``root_set`` can
    name an arbitrary root set instead.  ``conditioned`` restricts to the
    family's pivot condition: the largest (internal) label lies in tree 1,
    or for partite families the smallest label of part 2 does.  ``degrees``
    filters labeled families by exact child counts per vertex.
    """

    family: str
    n: int = 0
    roots: int = 1
    root_set: tuple[int, ...] | None = None
    part_sizes: tuple[int, ...] = ()
    leaves: int | None = None
    colors: int = 0
    arity: int = 0
    conditioned: bool = False
    labeled: bool = True
    degrees: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
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

    def total_vertices(self) -> int:
        if self.family == "partite":
            return sum(self.part_sizes)
        if self.family == "kary":
            return self.arity * self.n + self.root_label_count()
        return self.n

    def root_labels(self) -> tuple[int, ...]:
        if self.root_set is not None:
            return self.root_set
        return tuple(range(1, self.roots + 1))

    def root_label_count(self) -> int:
        return len(self.root_set) if self.root_set is not None else self.roots


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
    generators = {
        "plain": _plain,
        "partite": _partite,
        "plane": _plane,
        "leafplane": _plane,
        "kary": _plane,
        "colored": _colored,
        "special-colored": _colored,
    }
    yield from generators[spec.family](spec, guard)


def count_by_enumeration(spec: FamilySpec, budget: int | None = None) -> int:
    return sum(1 for _ in enumerate_family(spec, budget))


def enumerate_degree_filtered(
    spec: FamilySpec, degrees: Sequence[int], budget: int | None = None
) -> Iterator:
    """Members of the family whose vertex i has exactly degrees[i-1] children."""
    yield from enumerate_family(replace(spec, degrees=tuple(degrees)), budget)


# --------------------------------------------------------------------------
# Plain and partite forests: parent assignment plus acyclicity filter
# --------------------------------------------------------------------------


def _reaches_root_one(parents: Sequence[int], v: int) -> bool:
    while parents[v - 1] != 0:
        v = parents[v - 1]
    return v == 1


def _matches_degrees(parents: Sequence[int], degrees: Sequence[int]) -> bool:
    n = len(parents)
    counts = [0] * (n + 1)
    for p in parents:
        if p:
            counts[p] += 1
    return list(counts[1:]) == list(degrees)


def _assignment_stream(
    n: int,
    roots: tuple[int, ...],
    choices: dict[int, Sequence[int]],
    pivot: int | None,
    degrees: tuple[int, ...] | None,
    guard: _Budget,
) -> Iterator[RootedForest]:
    non_roots = [v for v in range(1, n + 1) if v not in roots]
    space = 1
    for v in non_roots:
        space *= len(choices[v])
    guard.spend(space)
    if degrees is not None and len(degrees) != n:
        return
    for combo in product(*(choices[v] for v in non_roots)):
        parents = [0] * n
        for v, p in zip(non_roots, combo):
            parents[v - 1] = p
        if _cycle_vertex(parents):
            continue
        if pivot is not None and not _reaches_root_one(parents, pivot):
            continue
        if degrees is not None and not _matches_degrees(parents, degrees):
            continue
        yield RootedForest(tuple(parents))


def _plain(spec: FamilySpec, guard: _Budget) -> Iterator[RootedForest]:
    n = spec.n
    roots = spec.root_labels()
    choices = {v: range(1, n + 1) for v in range(1, n + 1)}
    pivot = n if spec.conditioned else None
    yield from _assignment_stream(n, roots, choices, pivot, spec.degrees, guard)


def _partite(spec: FamilySpec, guard: _Budget) -> Iterator[RootedForest]:
    parts = PartAssignment(tuple(spec.part_sizes))
    n = parts.n
    roots = spec.root_labels()
    choices = {
        v: [u for u in range(1, n + 1) if parts.part_of(u) != parts.part_of(v)]
        for v in range(1, n + 1)
    }
    pivot = parts.sizes[0] + 1 if spec.conditioned else None
    yield from _assignment_stream(n, roots, choices, pivot, spec.degrees, guard)


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
        pf = _plane_word(word[::2], word[1::2])
        if pivot is not None and pivot not in word[:first:2]:
            continue
        if leaves is not None and pf.leaf_count != leaves:
            continue
        if degrees is not None and (
            len(degrees) != pf.n_vertices
            or any(degrees[x - 1] != d for x, d in zip(word[::2], word[1::2]))
        ):
            continue
        yield pf


# --------------------------------------------------------------------------
# Properly edge-colored forests
# --------------------------------------------------------------------------


def _proper(parents: Sequence[int], colors: Sequence[int]) -> bool:
    n = len(parents)
    for x in range(1, n + 1):
        seen = set()
        if parents[x - 1] != 0:
            seen.add(colors[x - 1])
        for v in range(1, n + 1):
            if parents[v - 1] == x:
                if colors[v - 1] in seen:
                    return False
                seen.add(colors[v - 1])
    return True


def _special_ok(parents: Sequence[int], colors: Sequence[int], kc: int) -> bool:
    for v in range(1, len(parents) + 1):
        p = parents[v - 1]
        if p != 0 and parents[p - 1] == 0 and colors[v - 1] == kc:
            return False
    return True


def _colored(spec: FamilySpec, guard: _Budget) -> Iterator[EdgeColoredForest]:
    n, kc = spec.n, spec.colors
    special = spec.family == "special-colored"
    base_spec = FamilySpec(
        family="plain",
        n=n,
        roots=spec.roots,
        root_set=spec.root_set,
        conditioned=spec.conditioned,
        degrees=spec.degrees,
    )
    roots = set(spec.root_labels())
    non_roots = [v for v in range(1, n + 1) if v not in roots]
    for base in _plain(base_spec, guard):
        guard.spend(kc ** len(non_roots))
        for combo in product(range(1, kc + 1), repeat=len(non_roots)):
            colors = [0] * n
            for v, c in zip(non_roots, combo):
                colors[v - 1] = c
            if not _proper(base.parents, colors):
                continue
            if special and not _special_ok(base.parents, colors, kc):
                continue
            yield EdgeColoredForest(base, kc, tuple(colors))


# --------------------------------------------------------------------------
# Recurrence verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceRow:
    """One verified step: does lhs equal multiplier times rhs?"""

    label: str
    lhs: int
    multiplier: int
    rhs: int

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
    ``enumerate_family``, never from closed forms.
    """
    sizes = tuple(part_sizes)
    p = leaves or 0
    if family in ("plain", "plane", "colored") and n < 3:
        raise ValueError(f"need n >= 3 for a recurrence step, got {n}")
    if family == "partite" and len(sizes) < 2:
        raise ValueError("partite verification needs at least two parts")
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
    spec_family = "special-colored" if family == "colored" else family

    def count(k: int) -> int:
        spec = FamilySpec(spec_family, roots=k, conditioned=True, **params(k))
        return count_by_enumeration(spec, budget)

    rows = []
    for k in steps if k_range is None else k_range:
        lhs, rhs = count(k - 1), count(k)
        label, multiplier = row(k)
        rows.append(RecurrenceRow(label, lhs, multiplier, rhs))
    return rows
