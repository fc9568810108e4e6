"""Exhaustive generators for every forest family at small sizes.

These are the brute-force oracles: deliberately naive, auditable, and in a
fixed canonical order, so closed-form counts, bijection steps, and codecs
can all be checked against them.  Plain and colored streams are produced
lazily in their natural lexicographic order; the plane-shaped families are
materialized and sorted by a structural key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    PlaneNode,
    RootedForest,
    _cycle_vertex,
    plane_label_in_tree,
    plane_preorder,
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
            if not rs or sorted(set(rs)) != list(rs) or rs[0] < 1 or rs[-1] > total:
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


def plane_key(pf: PlaneForest):
    def node_key(node: PlaneNode):
        return (node.label or 0, tuple(node_key(c) for c in node.children))

    return tuple(node_key(t) for t in pf.trees)


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


def enumerate_family(spec: FamilySpec, budget: int | None = None) -> Iterator:
    """Yield each family member exactly once, in canonical order."""
    spec.validate()
    guard = _Budget(default_budget() if budget is None else budget)
    generators = {
        "plain": _plain,
        "partite": _partite,
        "plane": _plane,
        "leafplane": _leafplane,
        "kary": _kary,
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
# Plane shapes and labeled plane forests
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _shape_seqs(total: int) -> tuple[tuple[PlaneNode, ...], ...]:
    # Ordered sequences of plane shapes with `total` vertices altogether.
    if total == 0:
        return ((),)
    out = []
    for first in range(1, total + 1):
        for tree in _shape_trees(first):
            for rest in _shape_seqs(total - first):
                out.append((tree,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _shape_trees(size: int) -> tuple[PlaneNode, ...]:
    return tuple(PlaneNode(None, kids) for kids in _shape_seqs(size - 1))


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _labeled_trees(vertices: tuple[int, ...], root: int) -> list[PlaneNode]:
    rest = tuple(v for v in vertices if v != root)
    return [PlaneNode(root, kids) for kids in _labeled_child_seqs(rest)]


def _labeled_child_seqs(avail: tuple[int, ...]) -> list[tuple[PlaneNode, ...]]:
    if not avail:
        return [()]
    out = []
    for size in range(1, len(avail) + 1):
        for subset in combinations(avail, size):
            remaining = tuple(v for v in avail if v not in subset)
            for root in subset:
                for tree in _labeled_trees(subset, root):
                    for rest in _labeled_child_seqs(remaining):
                        out.append((tree,) + rest)
    return out


def _ordered_partitions(
    items: tuple[int, ...], bins: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    if bins == 1:
        yield (items,)
        return
    for size in range(len(items) + 1):
        for subset in combinations(items, size):
            remaining = tuple(v for v in items if v not in subset)
            for rest in _ordered_partitions(remaining, bins - 1):
                yield (subset,) + rest


def _plane_degrees_ok(pf: PlaneForest, degrees: tuple[int, ...]) -> bool:
    for _, _, node in plane_preorder(pf):
        if node.label is not None and degrees[node.label - 1] != len(node.children):
            return False
    return True


def _plane(spec: FamilySpec, guard: _Budget) -> Iterator[PlaneForest]:
    if not spec.labeled:
        yield from _plane_shapes(spec, guard)
        return
    n = spec.n
    roots = spec.root_labels()
    rest = tuple(v for v in range(1, n + 1) if v not in roots)
    found = []
    for parcels in _ordered_partitions(rest, len(roots)):
        tree_choices = [
            _labeled_trees(tuple(sorted((r,) + parcel)), r)
            for r, parcel in zip(roots, parcels)
        ]
        for trees in product(*tree_choices):
            guard.spend()
            pf = PlaneForest(tuple(trees))
            if spec.conditioned and not plane_label_in_tree(pf, n, 1):
                continue
            if spec.leaves is not None and pf.leaf_count != spec.leaves:
                continue
            if spec.degrees is not None:
                if len(spec.degrees) != n or not _plane_degrees_ok(pf, spec.degrees):
                    continue
            found.append(pf)
    found.sort(key=plane_key)
    yield from found


def _plane_shapes(spec: FamilySpec, guard: _Budget) -> Iterator[PlaneForest]:
    found = []
    for sizes in _compositions(spec.n, spec.root_label_count(), 1):
        for trees in product(*(_shape_trees(s) for s in sizes)):
            guard.spend()
            pf = PlaneForest(tuple(trees))
            if spec.leaves is not None and pf.leaf_count != spec.leaves:
                continue
            found.append(pf)
    found.sort(key=plane_key)
    yield from found


# --------------------------------------------------------------------------
# Leaf-unlabeled plane forests (general and k-ary)
# --------------------------------------------------------------------------


def _label_shape_forest(
    shapes: Sequence[PlaneNode], free_labels: Sequence[int]
) -> PlaneForest:
    it = iter(free_labels)

    def walk(node: PlaneNode, root_label: int | None) -> PlaneNode:
        if node.is_leaf:
            return PlaneNode(None)
        lab = next(it) if root_label is None else root_label
        return PlaneNode(lab, tuple(walk(c, None) for c in node.children))

    return PlaneForest(
        tuple(walk(shape, i + 1) for i, shape in enumerate(shapes))
    )


def _internal_labeled_stream(
    shape_forests: Iterable[tuple[PlaneNode, ...]],
    r: int,
    internal_total: int,
    conditioned: bool,
    guard: _Budget,
) -> Iterator[PlaneForest]:
    found = []
    free = list(range(r + 1, internal_total + 1))
    for shapes in shape_forests:
        for perm in permutations(free):
            guard.spend()
            pf = _label_shape_forest(shapes, perm)
            if conditioned and not plane_label_in_tree(pf, internal_total, 1):
                continue
            found.append(pf)
    found.sort(key=plane_key)
    yield from found


def _shape_leaves(node: PlaneNode) -> int:
    if node.is_leaf:
        return 1
    return sum(_shape_leaves(c) for c in node.children)


def _leafplane(spec: FamilySpec, guard: _Budget) -> Iterator[PlaneForest]:
    n, p, r = spec.n, spec.leaves, spec.root_label_count()
    internal = n - p
    if internal < r:
        return

    def shape_forests():
        for sizes in _compositions(n, r, 2):  # every root must be internal
            for shapes in product(*(_shape_trees(s) for s in sizes)):
                if sum(_shape_leaves(s) for s in shapes) == p:
                    yield shapes

    yield from _internal_labeled_stream(
        shape_forests(), r, internal, spec.conditioned, guard
    )


@lru_cache(maxsize=None)
def _kary_trees(internal: int, arity: int) -> tuple[PlaneNode, ...]:
    # k-ary shapes: every internal vertex has exactly `arity` children.
    if internal == 0:
        return (PlaneNode(None),)
    out = []
    for split in _compositions(internal - 1, arity, 0):
        for kids in product(*(_kary_trees(m, arity) for m in split)):
            out.append(PlaneNode(None, kids))
    return tuple(out)


def _kary(spec: FamilySpec, guard: _Budget) -> Iterator[PlaneForest]:
    internal, r, arity = spec.n, spec.root_label_count(), spec.arity
    if not spec.labeled:
        for shape in sorted(
            (PlaneForest((t,)) for t in _kary_trees(internal, arity)),
            key=plane_key,
        ):
            guard.spend()
            yield shape
        return

    def shape_forests():
        for split in _compositions(internal, r, 1):  # roots are internal
            yield from product(*(_kary_trees(m, arity) for m in split))

    yield from _internal_labeled_stream(
        shape_forests(), r, internal, spec.conditioned, guard
    )


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
