"""Value types for rooted-forest families and their structural operations.

Vertices are labeled 1..n and a forest is stored as a parent map:
``parents[v - 1]`` is the parent of vertex v, with the sentinel 0 marking a
root.  All values here are immutable; every operation returns a new value,
so bijection steps compose without aliasing surprises.  The value types are
slotted classes on ``_Value``, which gives them a frozen dataclass's
equality, hashing, ``repr`` and copying without importing ``dataclasses``.
Each stores its sequence fields as tuples, in ``__post_init__``, so a value
built from a list equals, and hashes like, the one built from a tuple.
Every count, label and color a value holds must be an ``int`` that is not
a ``bool`` (``_is_int``, which ``_int`` applies to one value,
``_require_ints`` to a sequence and ``_check_parents`` to each parent, each
after one type test that passes an exact ``int``), so neither a float nor
``True`` reaches a renderer or a step.

Cost model: each operation makes one pass over the value, O(n) for n
vertices, at any depth.  A plane forest is stored as its preorder word, two
int tuples, and has no other representation: the bijection steps and
``plane_relabel`` cut and splice the word, finding the trees with one
``_tree_starts`` walk of the child counts, and the codec's run engine reads
it with ``_preorder_parents`` and writes it with ``_preorder``.
``PlaneNode`` trees are built, by the one stack pass ``_trees``, only when
a caller reads ``PlaneForest.trees``, anew on each read, or unpickles or
copies a node, which pickles as its word.  ``PartAssignment``
answers ``respects`` from a part table by vertex, ``_part_table``, built
anew on each call.
``children``, ``degree`` and ``EdgeColoredForest.colors_at`` answer for one
vertex with a full O(n) scan, so code that needs the children of many
vertices builds one child index with ``_child_index`` instead.  No index or
walk is kept on a value: the caller that needs one builds it once and
passes it on.

A fast accept test stays in front of a validator only where it pays.
``RootedForest`` checks with ``_check_parents`` alone: a type and range
test of each parent, then the cycle walk ``_cycle_vertex``, which the
oracles' acyclicity filter shares.  A one-pass accept test in front of it
was no faster (constructor 2.3 -> 2.0 us at n = 6 and 14.4 -> 14.0 us at
n = 100 without it; timeit, Python 3.11).  ``EdgeColoredForest`` keeps one:
``_properly_colored`` (no (vertex, color) key occurs twice), also the
oracles' filter, ran 2.6x as fast as ``_check_coloring`` at n = 4 and 2.9x
at n = 100 on valid colorings with kc = 3, and only a coloring it rejects
runs ``_check_coloring``, which names the fault.

Who validates: every public constructor, the parsers, ``replace``,
unpickling and copying (all through ``_rebuilt``), and the enumeration
oracles.  The bijection steps build their outputs with ``_trusted``, which
sets the fields and skips the check: a step checks that its input is a
member of its family level, and maps it to a member of the next, as the
bijection theorem says and the tests check on every step output.  The
codec's runs build their one result with ``_trusted`` too, as they apply
the same steps to checked input: a ``ChoiceTrace`` (``decode``), checked
parameters and in-range draws (``sample_uniform``), or a checked member
(``encode``).

Family-level constraints (roots being exactly 1..k, a pivot vertex lying in
tree 1, part discipline, special color rules) are *not* type invariants:
intermediate states of the bijections legitimately violate them.  This
module defines membership of a family level once, in ``_require_plain``,
``_require_partite``, ``_require_plane`` and ``_require_colored``, beside
the filters they combine and the oracles share (``_descends``,
``_cross_part``, ``_tree_starts``, ``_special``).  The bijection steps
check their input with them, and ``encode`` its input, so the codec loads
no :mod:`bijections`.  The coloring rules of the colored steps
(``_used_colors``, and ``_alternating_flip``, which restores a proper
coloring after one edge changes color) live here too, so that the codec's
run engine shares them.
"""

from __future__ import annotations

import bisect
import re
from itertools import accumulate
from operator import attrgetter, ne
from typing import Iterator, Sequence


class ParseError(ValueError):
    """Malformed forest text; carries the offending character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_set = object.__setattr__  # how a value's own code writes its fields


class _Value:
    """The base of the value types, which act as frozen dataclasses whose
    fields ``__slots__`` lists in order.  Each constructor (``__new__``)
    hands its fields to ``_rebuilt``, which sets them and calls
    ``__post_init__``, the check."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # ``_values``, the fields as a tuple, read by one attrgetter.
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __post_init__(self) -> None:
        pass  # a type with invariants checks them here

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # for pickle and copy
        return _rebuilt, (type(self), self._values)

    def replace(self, **changes):
        """A copy with the named fields changed, checked anew."""
        values = [changes.pop(f, x) for f, x in zip(self.__slots__, self._values)]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {[*changes][0]!r}")
        return _rebuilt(type(self), values)


def _trusted(cls: type, values: Sequence) -> _Value:
    """A new value of ``cls`` with these fields, in ``__slots__`` order, and
    no check: for the outputs of the :mod:`bijections` steps and of the
    :mod:`codec` runs only, which map a member of one family level, or a
    trace, checked on entry, to a member of the next."""
    value = object.__new__(cls)
    for name, x in zip(cls.__slots__, values):
        _set(value, name, x)
    return value


def _rebuilt(cls: type, values: Sequence) -> _Value:
    """A new value of ``cls`` with these fields, checked."""
    value = _trusted(cls, values)
    value.__post_init__()
    return value


# --------------------------------------------------------------------------
# Labeled rooted forests
# --------------------------------------------------------------------------


class RootedForest(_Value):
    """A forest of rooted trees on {1..n}, as a parent tuple.

    ``parents[v - 1]`` is the parent of vertex v; 0 marks a root.  The
    parent relation must be acyclic and every parent must be a vertex label.
    """

    __slots__ = ("parents",)

    def __new__(cls, parents: tuple[int, ...]) -> RootedForest:
        return _rebuilt(cls, (parents,))

    def __post_init__(self) -> None:
        _set(self, "parents", tuple(self.parents))
        _check_parents(self.parents)

    @property
    def n(self) -> int:
        return len(self.parents)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.parents[v - 1] == 0)

    @property
    def root_count(self) -> int:
        return sum(1 for p in self.parents if p == 0)

    def has_standard_roots(self, k: int) -> bool:
        """True iff the roots are exactly {1..k}."""
        return self.roots == tuple(range(1, k + 1))


def _check_parents(parents: Sequence[int]) -> None:
    """The check of a parent map: raises ValueError naming the first fault,
    vertex by vertex."""
    n = len(parents)
    for v, p in enumerate(parents, start=1):
        # One type test for an exact int, as in ``_int``.
        if type(p) is not int and not _is_int(p) or not 0 <= p <= n:
            raise ValueError(f"parent of vertex {v} out of range: {p!r}")
        if p == v:
            raise ValueError(f"vertex {v} is its own parent")
    v = _cycle_vertex(parents)
    if v:
        raise ValueError(f"parent map has a cycle through vertex {v}")


def _is_int(x) -> bool:
    """True iff x is an int and not a bool: a bool is no count, label or
    color, and the renderers would write it as ``True``."""
    return isinstance(x, int) and type(x) is not bool


_INT_TYPE = frozenset((int,))


def _require_ints(values: Sequence, what: str) -> None:
    """Raises ValueError naming the first of ``values`` that is not an int:
    ``what`` names them, in the plural."""
    if not _INT_TYPE.issuperset(map(type, values)):  # not all exact ints
        for x in values:
            if not _is_int(x):
                raise ValueError(f"{what} must be ints, got {x!r}")


def _int(value, name: str) -> None:
    """Raises ValueError naming ``value`` unless it is an int."""
    if type(value) is not int and not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _cycle_vertex(parents: Sequence[int]) -> int:
    """A vertex on a cycle of the parent map (entries 0..n), or 0 if none."""
    # Follow parents from each vertex in turn, marking each vertex with the
    # walk that reached it first; a walk that meets its own mark has closed
    # a cycle, and one that meets an older mark joins a finished walk.
    mark = [0] * (len(parents) + 1)
    for start in range(1, len(parents) + 1):
        v = start
        while v and not mark[v]:
            mark[v] = start
            v = parents[v - 1]
        if v and mark[v] == start:
            return v
    return 0


def children(forest: RootedForest, x: int) -> tuple[int, ...]:
    """The children of x in ascending order.

    A convenience for single queries: each call scans all n parents.  The
    bijection steps and validators build one ``_child_index`` per value
    instead, so they never call this.
    """
    _check_vertex(forest, x)
    return tuple(v for v in range(1, forest.n + 1) if forest.parents[v - 1] == x)


def degree(forest: RootedForest, x: int) -> int:
    """Number of children of x; a vertex of degree 0 is a leaf."""
    return len(children(forest, x))


def is_descendant(forest: RootedForest, y: int, x: int) -> bool:
    """True iff y lies in the subtree rooted at x (reflexively)."""
    _check_vertex(forest, y)
    _check_vertex(forest, x)
    return _descends(forest.parents, y, x)


def _descends(parents: Sequence[int], y: int, x: int) -> bool:
    """``is_descendant`` on a parent map: walks up from y to x or a root."""
    while y and y != x:
        y = parents[y - 1]
    return y == x


def subtree_vertices(forest: RootedForest, x: int) -> frozenset[int]:
    """The vertex set of the subtree rooted at x, including x."""
    _check_vertex(forest, x)
    return frozenset(_subtree(_child_index(forest.parents), x))


def _child_index(parents: Sequence[int]) -> list[list[int]]:
    """``kids[x]`` lists the children of x in ascending order, from one pass
    over the parent map; ``kids[0]`` lists the roots."""
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, p in enumerate(parents, start=1):
        kids[p].append(v)
    return kids


def _subtree(kids: list[list[int]], x: int) -> list[int]:
    """The vertices of the subtree rooted at x, by a walk of a child index."""
    found, stack = [], [x]
    while stack:
        v = stack.pop()
        found.append(v)
        stack.extend(kids[v])
    return found


def detach_subtree(forest: RootedForest, x: int) -> RootedForest:
    """Cut the edge above x, making x a new root; everything else unchanged."""
    _check_vertex(forest, x)
    if forest.parents[x - 1] == 0:
        raise ValueError(f"vertex {x} is already a root")
    parents = list(forest.parents)
    parents[x - 1] = 0
    return RootedForest(tuple(parents))


def attach_subtree(forest: RootedForest, x: int, v: int) -> RootedForest:
    """Attach the tree rooted at x below v; v must lie outside that tree."""
    _check_vertex(forest, x)
    if forest.parents[x - 1] != 0:
        raise ValueError(f"vertex {x} is not a root")
    if is_descendant(forest, v, x):
        raise ValueError(f"attaching {x} under {v} would create a cycle")
    parents = list(forest.parents)
    parents[x - 1] = v
    return RootedForest(tuple(parents))


def swap_labels(forest: RootedForest, a: int, b: int) -> RootedForest:
    """Relabel by the transposition (a b); the sentinel 0 is fixed."""
    _check_vertex(forest, a)
    _check_vertex(forest, b)
    if a == b:
        return forest
    return RootedForest(tuple(_transposed(forest.parents, a, b)))


def _transposed(parents: Sequence[int], a: int, b: int) -> list[int]:
    """The parent map relabeled by the transposition (a b): vertex a's
    parent, relabeled, becomes vertex b's and vice versa."""
    out = [b if p == a else a if p == b else p for p in parents]
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return out


def _swapped(v: int, a: int, b: int) -> int:
    """Vertex v relabeled by the transposition (a b)."""
    return b if v == a else a if v == b else v


def _check_vertex(forest: RootedForest | PartAssignment, v: int) -> None:
    _int(v, "vertex")
    if not 1 <= v <= forest.n:
        raise ValueError(f"vertex {v} out of range 1..{forest.n}")


def _require_plain(
    forest: RootedForest, kids: list[list[int]], k: int, pivot: int
) -> None:
    """Membership with roots 1..k and ``pivot`` in tree 1; ``kids`` is the
    forest's child index."""
    if kids[0] != list(range(1, k + 1)):
        raise ValueError(f"expected roots exactly 1..{k}, got {forest.roots}")
    if not _descends(forest.parents, pivot, 1):
        raise ValueError(f"vertex {pivot} must lie in the tree rooted at 1")


# --------------------------------------------------------------------------
# Part assignments (complete multipartite vertex partitions)
# --------------------------------------------------------------------------


class PartAssignment(_Value):
    """Partition of {1..n} into contiguous label blocks of the given sizes.

    Part 1 is {1..sizes[0]}, part 2 the next block, and so on.
    """

    __slots__ = ("sizes",)

    def __new__(cls, sizes: tuple[int, ...]) -> PartAssignment:
        return _rebuilt(cls, (sizes,))

    def __post_init__(self) -> None:
        _set(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ValueError("at least one part is required")
        _require_ints(self.sizes, "part sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every part must be nonempty")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def part_count(self) -> int:
        return len(self.sizes)

    def part_of(self, v: int) -> int:
        """1-based part index of vertex v."""
        _check_vertex(self, v)
        return bisect.bisect_left(list(accumulate(self.sizes)), v) + 1

    def block(self, i: int) -> range:
        """The label range of part i."""
        _int(i, "part")
        if not 1 <= i <= self.part_count:
            raise ValueError(f"part {i} out of range 1..{self.part_count}")
        offs = (0, *accumulate(self.sizes))
        return range(offs[i - 1] + 1, offs[i] + 1)

    def respects(self, forest: RootedForest) -> bool:
        """True iff no edge of the forest joins two vertices of one part."""
        return forest.n == self.n and _cross_part(_part_table(self), forest.parents)


def _part_table(parts: PartAssignment) -> list[int]:
    """``part[v]`` is the part of vertex v, from 1, and ``part[0]`` is 0."""
    return [0] + [i for i, s in enumerate(parts.sizes, start=1) for _ in range(s)]


def _cross_part(part: list[int], parents: Sequence[int]) -> bool:
    """``respects`` on a part table and a parent map over the same n
    vertices; a root's sentinel 0 lies in no part."""
    return all(map(ne, part[1:], map(part.__getitem__, parents)))


def _require_partite(
    forest: RootedForest, kids: list[list[int]], k: int, parts: PartAssignment
) -> list[int]:
    """Returns the part table, ``_part_table``.  The pivot vertex is the
    smallest label of part 2."""
    if parts.n != forest.n:
        raise ValueError("part sizes must cover the vertex set")
    if parts.part_count < 2:
        raise ValueError("at least two parts are required")
    if k > parts.sizes[0]:
        raise ValueError(f"roots 1..{k} must lie in part 1")
    part = _part_table(parts)
    if not _cross_part(part, forest.parents):
        raise ValueError("forest has an edge inside one part")
    _require_plain(forest, kids, k, parts.sizes[0] + 1)
    return part


# --------------------------------------------------------------------------
# Plane forests (ordered children, optionally unlabeled leaves)
# --------------------------------------------------------------------------


class PlaneNode(_Value):
    """One vertex of a plane tree: an optional label and ordered children."""

    __slots__ = ("label", "children")

    def __new__(cls, label: int | None, children: tuple[PlaneNode, ...] = ()):
        return _rebuilt(cls, (label, children))

    def __post_init__(self) -> None:
        _set(self, "children", tuple(self.children))
        if self.label is not None:
            _int(self.label, "label")
            if self.label < 1:
                raise ValueError(f"label must be positive, got {self.label}")
        _check_nodes(self.children, "child")

    # Equality, hashing, repr and pickling read the preorder word or walk
    # the tree with a stack, so depth is no limit; the base's versions
    # recurse once per level.

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _preorder((self,), *_NODE) == _preorder((other,), *_NODE)

    def __hash__(self) -> int:
        return hash(_preorder((self,), *_NODE))  # the word determines the tree

    def __reduce__(self):  # for pickle and copy, by the word
        return _tree, _preorder((self,), *_NODE)

    def __repr__(self) -> str:
        # The dataclass text; the stack holds nodes and the text after them.
        out: list[str] = []
        stack: list[PlaneNode | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(
                f"{type(item).__qualname__}(label={item.label!r}, children=("
            )
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for j in range(len(kids) - 1, 0, -1):
                stack.append(kids[j])
                stack.append(", ")
            stack.extend(kids[:1])
        return "".join(out)

    @property
    def size(self) -> int:
        return len(_preorder((self,), *_NODE)[0])

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _check_nodes(nodes: Sequence, what: str) -> None:
    """Raises ValueError naming the position of the first item that is not
    a ``PlaneNode``."""
    for i, x in enumerate(nodes):
        if not isinstance(x, PlaneNode):
            raise ValueError(f"{what} at position {i} is not a PlaneNode: {x!r}")


class PlaneForest(_Value):
    """An ordered sequence of plane trees, stored as its preorder word.

    ``preorder_labels`` and ``preorder_degrees`` give each vertex's label (0
    when unlabeled) and child count in global preorder, tree after tree.
    This labeled Łukasiewicz word fixes the forest: a tree ends where its
    vertices have no child left to come.  Equality and hashing compare the
    two tuples, and ``trees`` builds ``PlaneNode`` trees from them on each
    access.

    Labeled vertices carry distinct labels.  In the fully labeled family
    every vertex is labeled 1..n; in the leaf-unlabeled family exactly the
    leaves are unlabeled and internal vertices carry 1..(n - leaf count).
    Trees are kept in ascending order of root label.
    """

    __slots__ = ("preorder_labels", "preorder_degrees")

    def __new__(cls, trees: Sequence[PlaneNode]) -> PlaneForest:
        _check_nodes(trees, "tree")
        return _rebuilt(cls, _preorder(trees, *_NODE))

    def __post_init__(self) -> None:
        labels, degrees = tuple(self.preorder_labels), tuple(self.preorder_degrees)
        _set(self, "preorder_labels", labels)
        _set(self, "preorder_degrees", degrees)
        word = (*labels, *degrees)
        _require_ints(word, "labels and child counts")
        if len(labels) != len(degrees) or min(word, default=0) < 0:
            raise ValueError("each vertex needs a label and a child count >= 0")
        roots, owed = [], 0  # owed: vertices still to come in the current tree
        for x, d in zip(labels, degrees):
            if owed:
                owed += d - 1
            else:  # x starts a tree
                roots.append(x)
                owed = d
        if owed:
            raise ValueError("the preorder child counts end inside a tree")
        named = list(filter(None, labels))
        if len(named) != len(set(named)):
            raise ValueError("duplicate labels in plane forest")
        if not named:
            return  # a pure shape forest: no ordering constraint
        if 0 in roots:
            raise ValueError("every tree root must be labeled")
        if roots != sorted(roots):
            raise ValueError("trees must be ordered by ascending root label")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(trees={self.trees!r})"

    @property
    def trees(self) -> tuple[PlaneNode, ...]:
        return _trees(self.preorder_labels, self.preorder_degrees)

    @property
    def n_vertices(self) -> int:
        return len(self.preorder_labels)

    @property
    def tree_count(self) -> int:
        return self.n_vertices - sum(self.preorder_degrees)

    @property
    def leaf_count(self) -> int:
        return self.preorder_degrees.count(0)

    @property
    def labeled_count(self) -> int:
        return self.n_vertices - self.preorder_labels.count(0)

    def labels(self) -> Iterator[int]:
        return filter(None, self.preorder_labels)

    def root_labels(self) -> tuple[int | None, ...]:
        labels, starts = self.preorder_labels, _tree_starts(self.preorder_degrees)
        return tuple(labels[i] or None for i in starts[:-1])

    def is_fully_labeled(self) -> bool:
        return 0 not in self.preorder_labels

    def is_leaf_unlabeled(self) -> bool:
        """True iff a vertex is unlabeled exactly when it is a leaf."""
        labels, degrees = self.preorder_labels, self.preorder_degrees
        return list(map(bool, labels)) == list(map(bool, degrees))


def _plane_word(labels: tuple[int, ...], degrees: tuple[int, ...]) -> PlaneForest:
    """The plane forest with this preorder word, validated like every other."""
    return _rebuilt(PlaneForest, (labels, degrees))


def _preorder(roots: Sequence, children, label) -> tuple[tuple, tuple]:
    """The preorder word, labels (0 when unlabeled) and child counts, of the
    trees below ``roots``, iteratively; ``children(v)`` and ``label(v)``
    read a vertex, which is a node or a vertex id."""
    labels, degrees, stack = [], [], list(reversed(roots))
    while stack:
        v = stack.pop()
        below = children(v)
        labels.append(label(v) or 0)
        degrees.append(len(below))
        stack += reversed(below)
    return tuple(labels), tuple(degrees)


_NODE = (attrgetter("children"), attrgetter("label"))  # how _preorder reads nodes


def _trees(labels: Sequence[int], degrees: Sequence[int]) -> tuple[PlaneNode, ...]:
    """The ``PlaneNode`` trees of a preorder word, in one stack pass."""
    # Walking the word back, a vertex's children are the last nodes built,
    # its first child on top.
    built: list[PlaneNode] = []
    for x, d in reversed(list(zip(labels, degrees))):
        kids = tuple(built[: -d - 1 : -1])
        del built[len(built) - d :]
        built.append(PlaneNode(x or None, kids))
    return tuple(reversed(built))


def _tree(labels: Sequence[int], degrees: Sequence[int]) -> PlaneNode:
    """The first tree of a preorder word: how a ``PlaneNode`` unpickles."""
    return _trees(labels, degrees)[0]


def _preorder_parents(degrees: Sequence[int]) -> list[int]:
    """Each vertex's parent as a preorder position from 1, 0 for a root."""
    up = [0] * len(degrees)
    waiting: list[int] = []  # a vertex waits here once per child to come
    for i, d in enumerate(degrees):
        if waiting:
            up[i] = waiting.pop()
        if d:
            waiting += [i + 1] * d
    return up


def _depths(degrees: Sequence[int]) -> list[int]:
    """Each vertex's depth in its tree, in preorder, and a final 0.  After
    vertex i end depth[i] + 1 - depth[i + 1] child lists, its own included:
    none when it has children, and the whole tree's when the next vertex is
    a root."""
    depth = [0] * (len(degrees) + 1)
    for i, p in enumerate(_preorder_parents(degrees)):
        if p:
            depth[i] = depth[p - 1] + 1
    return depth


def _subtree_end(degrees: Sequence[int], i: int) -> int:
    """The preorder position just past the subtree at position i."""
    owed = 1  # vertices of the subtree still to come
    while owed:
        owed += degrees[i] - 1
        i += 1
    return i


def _tree_starts(degrees: Sequence[int]) -> list[int]:
    """The preorder positions where the trees of a valid word start,
    followed by the word's length."""
    starts = [0]
    while starts[-1] < len(degrees):
        starts.append(_subtree_end(degrees, starts[-1]))
    return starts


def _require_plane(pf: PlaneForest, k: int, leafy: bool = False) -> tuple[int, list]:
    """Validate membership with roots 1..k and the largest label m in tree 1;
    returns m and the positions where the trees start in the word, followed
    by its length.

    Every vertex carries one of 1..n, or with ``leafy`` exactly the internal
    vertices carry 1..m and the leaves none.
    """
    labels = pf.preorder_labels
    if leafy:
        if not pf.is_leaf_unlabeled():
            raise ValueError("exactly the leaves must be unlabeled")
    elif 0 in labels:
        raise ValueError("plane family here is fully labeled")
    m = len(labels) - labels.count(0)
    if max(labels, default=0) != m:  # the distinct labels are not 1..m
        raise ValueError(
            f"internal labels must be 1..{m}" if leafy else "labels must be 1..n"
        )
    starts = _tree_starts(pf.preorder_degrees)
    if [labels[j] for j in starts[:-1]] != list(range(1, k + 1)):
        raise ValueError(f"expected roots exactly 1..{k}, got {pf.root_labels()}")
    if not m:
        raise ValueError("label 0 not present")  # the empty forest
    if labels.index(m) >= starts[1]:
        raise ValueError(f"vertex {m} must lie in the tree rooted at 1")
    return m, starts


def _spliced(word: tuple[Sequence, Sequence], runs) -> tuple[tuple, tuple]:
    """The word, as two int tuples, made of these (start, end) runs of the
    two lists."""
    out: tuple[list, list] = ([], [])
    for a, b in runs:
        out[0].extend(word[0][a:b])
        out[1].extend(word[1][a:b])
    return tuple(out[0]), tuple(out[1])


def plane_relabel(pf: PlaneForest, a: int, b: int) -> PlaneForest:
    """Swap labels a and b, then restore ascending tree order."""
    _int(a, "label")
    _int(b, "label")
    if min(a, b) < 1:  # 0 marks an unlabeled vertex in the word
        raise ValueError(f"label must be positive, got {min(a, b)}")
    if a == b:
        return pf
    swap = {a: b, b: a}
    labels = [swap.get(x, x) for x in pf.preorder_labels]
    starts = _tree_starts(pf.preorder_degrees)
    # Shape forests keep their order: the sort is stable.
    runs = sorted(zip(starts, starts[1:]), key=lambda run: labels[run[0]])
    return _plane_word(*_spliced((labels, pf.preorder_degrees), runs))


# --------------------------------------------------------------------------
# Edge-colored forests
# --------------------------------------------------------------------------


class EdgeColoredForest(_Value):
    """A rooted forest with a proper edge coloring, keyed by child vertex.

    ``colors[v - 1]`` is the color (1..color_count) of the edge from
    parent(v) into v, and 0 exactly when v is a root.  Properness: all edges
    sharing a vertex carry distinct colors.
    """

    __slots__ = ("base", "color_count", "colors")

    def __new__(cls, base: RootedForest, color_count: int, colors: tuple[int, ...]):
        return _rebuilt(cls, (base, color_count, colors))

    def __post_init__(self) -> None:
        _set(self, "colors", tuple(self.colors))
        if not isinstance(self.base, RootedForest):
            raise ValueError(
                f"base must be a RootedForest, got {type(self.base).__name__}"
            )
        args = (self.base.parents, self.color_count, self.colors)
        if not _properly_colored(*args):
            _check_coloring(*args)

    @property
    def n(self) -> int:
        return self.base.n

    def is_special(self) -> bool:
        """True iff no edge out of any root carries the last color."""
        return _special(self.colors, self.color_count, _child_index(self.base.parents))

    def colors_at(self, x: int) -> frozenset[int]:
        """Colors of all edges incident to x (the edge into x plus those out)."""
        cs = {self.colors[v - 1] for v in children(self.base, x)}
        if self.base.parents[x - 1] != 0:
            cs.add(self.colors[x - 1])
        return frozenset(cs)


def _check_coloring(
    parents: Sequence[int], color_count: int, colors: Sequence[int]
) -> None:
    """The reference check of an edge coloring of a valid parent map: raises
    ValueError naming the first fault, vertex by vertex."""
    n = len(parents)
    _int(color_count, "color count")
    if color_count < 0:
        raise ValueError("color count must be nonnegative")
    if len(colors) != n:
        raise ValueError("one color entry per vertex is required")
    for v in range(1, n + 1):
        c = colors[v - 1]
        _int(c, f"color of vertex {v}")
        if parents[v - 1] == 0:
            if c != 0:
                raise ValueError(f"root {v} must carry color 0")
        elif not 1 <= c <= color_count:
            raise ValueError(f"color of edge into {v} out of range: {c}")
    kids = _child_index(parents)
    for x in range(1, n + 1):
        incident = [colors[v - 1] for v in kids[x]]
        if parents[x - 1] != 0:
            incident.append(colors[x - 1])
        if len(incident) != len(set(incident)):
            raise ValueError(f"edges at vertex {x} repeat a color")


def _properly_colored(
    parents: Sequence[int], color_count: int, colors: Sequence[int]
) -> bool:
    """True iff the color count and every color are ints, every root carries
    color 0, every edge a color in 1..color_count, and no (vertex, color)
    key occurs twice among the two ends of the edges: one pass that accepts
    only valid colorings of a valid parent map.  It tests each for an exact
    ``int``, so it rejects a bool; a coloring it rejects may still be valid
    (an int subclass other than bool for a color, say), so
    ``_check_coloring`` decides."""
    n = len(parents)
    if type(color_count) is not int or color_count < 0 or len(colors) != n:
        return False
    keys = set()
    edges = 0
    for v, p, c in zip(range(1, n + 1), parents, colors):
        if not p:
            if c != 0 or type(c) is not int:
                return False
        elif type(c) is not int or not 1 <= c <= color_count:
            return False
        else:
            keys.add((v, c))
            keys.add((p, c))
            edges += 1
    return len(keys) == 2 * edges


def _special(colors: Sequence[int], color_count: int, kids: list[list[int]]) -> bool:
    """``is_special`` on the colors of a coloring and a child index of its
    parent map: no edge out of a root carries color ``color_count``."""
    return all(colors[v - 1] != color_count for r in kids[0] for v in kids[r])


def _require_colored(
    ef: EdgeColoredForest, kids: list[list[int]], r: int
) -> None:
    """Membership of a special forest with roots 1..r and vertex n in tree
    1; ``kids`` is the child index of ``ef.base``."""
    if kids[0] != list(range(1, r + 1)):
        raise ValueError(f"expected roots exactly 1..{r}, got {ef.base.roots}")
    if not _special(ef.colors, ef.color_count, kids):
        raise ValueError("an edge out of a root carries the last color")
    if not _descends(ef.base.parents, ef.n, 1):
        raise ValueError(f"vertex {ef.n} must lie in the tree rooted at 1")


def _alternating_flip(
    kids: list[list[int]], colors: list[int], start: int, first: int, second: int
) -> None:
    """Swap the colors `first` and `second` along the path descending from
    `start` that alternates between them; ``kids`` indexes the children
    below `start`.

    A single recoloring of the edge out of `start` can collide with an edge
    one level further down, so the exchange must propagate: by properness
    each vertex has at most one incident edge of either color, hence the
    affected edges form a downward path and flipping all of them restores a
    proper coloring.  Flipping the same path again undoes the exchange,
    which is what keeps the forward and inverse steps mutually inverse.
    """
    v, want, other = start, first, second
    while True:
        for child in kids[v]:
            if colors[child - 1] == want:
                break
        else:
            return
        colors[child - 1] = other
        v, want, other = child, other, want


def _used_colors(colors: list[int], kids: list[int], v: int) -> set[int]:
    """The colors incident to v, given its children ``kids``; 0 at a root."""
    used = {colors[u - 1] for u in kids}
    used.add(colors[v - 1])
    return used


def swap_colored_labels(ef: EdgeColoredForest, a: int, b: int) -> EdgeColoredForest:
    """Relabel by (a b); edge colors travel with their child vertices."""
    base = swap_labels(ef.base, a, b)  # checks a and b
    if a == b:
        return ef
    colors = list(ef.colors)
    colors[a - 1], colors[b - 1] = colors[b - 1], colors[a - 1]
    return EdgeColoredForest(base, ef.color_count, tuple(colors))


# --------------------------------------------------------------------------
# Text formats
# --------------------------------------------------------------------------
#
# Rooted:   "n k p_1 ... p_n"            (p_i = 0 for roots, k = root count)
# Plane:    "1(5,3(4));2"                (trees ; separated, * = unlabeled leaf)
# Colored:  "n k p_1 ... p_n\nc_1 ... c_n"  (c_i = 0 for roots)
#
# The exact grammars live in FORMATS.md at the repository root.


def render_forest(forest: RootedForest) -> str:
    head = [forest.n, forest.root_count]
    return " ".join(str(x) for x in head + list(forest.parents))


def parse_forest(text: str) -> RootedForest:
    return _parse_rooted(text, colored=False)[0]


def render_colored(ef: EdgeColoredForest) -> str:
    line1 = render_forest(ef.base)
    line2 = " ".join(str(c) for c in ef.colors)
    return line1 + "\n" + line2


def parse_colored(text: str, color_count: int) -> EdgeColoredForest:
    base, colors = _parse_rooted(text, colored=True)
    return EdgeColoredForest(base, color_count, colors)


def _parse_rooted(text: str, colored: bool) -> tuple[RootedForest, tuple[int, ...]]:
    """The forest of a text 'n k p_1 ... p_n', whose header must count its
    roots, and the colors 'c_1 ... c_n' that follow when ``colored``."""
    ints = _parse_ints(text)
    if len(ints) < 2:
        colors = " c_1 ... c_n" if colored else ""
        raise ParseError(f"expected 'n k p_1 ... p_n{colors}'", 0)
    n, k, found = ints[0], ints[1], len(ints) - 2
    if colored and found != 2 * n:
        raise ParseError(
            f"expected {2 * n} entries after the header, found {found}", len(text)
        )
    if not colored and found != n:
        raise ParseError(f"expected {n} parent entries, found {found}", len(text))
    forest = RootedForest(tuple(ints[2 : 2 + n]))
    if forest.root_count != k:
        raise ParseError(
            f"header says {k} roots but parent map has {forest.root_count}", 0
        )
    return forest, tuple(ints[2 + n :])


_INTEGER = re.compile(r"-?[0-9]+")


def _parse_ints(text: str) -> list[int]:
    values = []
    for match in re.finditer(r"\S+", text):
        tok = match.group()
        if not _INTEGER.fullmatch(tok):
            raise ParseError(f"not an integer: {tok!r}", match.start())
        values.append(int(tok))
    return values


def render_plane(pf: PlaneForest) -> str:
    out: list[str] = []
    depth = _depths(pf.preorder_degrees)
    for i, x in enumerate(pf.preorder_labels):
        out.append(str(x) if x else "*")
        # A vertex with children opens its list.  A leaf closes the lists
        # that end with it; then ',' follows, or ';' if its tree ends (the
        # last tree drops it).
        up = depth[i] - depth[i + 1]
        out.append("(" if up < 0 else ")" * up + ("," if depth[i + 1] else ";"))
    return "".join(out)[:-1]


def parse_plane(text: str) -> PlaneForest:
    # The word is written as the text is read, in preorder.  `open_lists`
    # holds the position of every vertex whose child list is still open,
    # innermost last; a vertex's child count grows as its children are read.
    # Each token is a run of digits or one other non-space character.  Either
    # a vertex comes next, or the text goes on after one: `label` is that
    # vertex's label until a ')' follows it, then None, as no '(' may follow.
    labels: list[int] = []
    degrees: list[int] = []
    open_lists: list[int] = []
    vertex_next, label = True, None
    for token in re.finditer(r"\s*([0-9]+|\S)", text):
        tok, pos = token[1], token.start(1)
        if vertex_next:
            if tok == "*":
                label = 0
            elif "0" <= tok[0] <= "9":
                label = int(tok)
                if not label:  # in the word, 0 means unlabeled
                    raise ValueError("label must be positive, got 0")
            else:
                raise ParseError(f"expected label or '*', found {tok!r}", pos)
            if open_lists:
                degrees[open_lists[-1]] += 1
            labels.append(label)
            degrees.append(0)
            vertex_next = False
        elif tok == "(" and label is not None:
            if not label:
                raise ParseError("unlabeled vertices must be leaves", pos)
            open_lists.append(len(labels) - 1)
            vertex_next = True
        elif tok == ("," if open_lists else ";"):  # the next vertex follows
            vertex_next = True
        elif tok == ")" and open_lists:
            open_lists.pop()
            label = None
        elif open_lists:
            raise ParseError(f"expected ',' or ')', found {tok[0]!r}", pos)
        else:
            raise ParseError(f"trailing input {tok[0]!r}", pos)
    if vertex_next:
        raise ParseError("unexpected end of input", len(text))
    if open_lists:
        raise ParseError("unterminated child list", len(text))
    return _plane_word(tuple(labels), tuple(degrees))
