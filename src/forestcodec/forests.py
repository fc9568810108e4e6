"""Value types for rooted-forest families and their structural operations.

Vertices are labeled 1..n and a forest is stored as a parent map:
``parents[v - 1]`` is the parent of vertex v, with the sentinel 0 marking a
root.  All values here are immutable; every operation returns a new value,
so bijection steps compose without aliasing surprises.

Cost model: each operation makes one pass over the value, O(n) for n
vertices, at any depth.  A plane forest is stored as its preorder word, two
int tuples, and has no other representation: the bijection steps and
``plane_relabel`` cut and splice the word, finding the trees with one
``_tree_starts`` walk of the child counts, and the codec's run engine reads
it with ``_preorder_parents`` and writes it with ``_preorder``.
``PlaneNode`` trees are built only when a caller reads
``PlaneForest.trees``, and anew on each read.  ``PartAssignment``
answers ``respects`` from a part table by vertex, ``_part_table``, built
anew on each call.
``children``, ``degree`` and ``EdgeColoredForest.colors_at`` answer for one
vertex with a full O(n) scan, so code that needs the children of many
vertices builds one child index with ``_child_index`` instead.  No index or
walk is kept on a value: the caller that needs one builds it once and
passes it on.  The ``RootedForest`` and ``EdgeColoredForest`` validators
are one pass each (all n vertices are reached from the roots; no (vertex,
color) key occurs twice), and only a value that fails it runs the reference
loops (``_check_parents``, ``_check_coloring``), which name the fault.

Family-level constraints (roots being exactly 1..k, a pivot vertex lying in
tree 1, part discipline, special color rules) are *not* type invariants:
intermediate states of the bijections legitimately violate them.  They are
enforced by the functions that need them.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, ne
from typing import Iterator, Sequence


class ParseError(ValueError):
    """Malformed forest text; carries the offending character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --------------------------------------------------------------------------
# Labeled rooted forests
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedForest:
    """A forest of rooted trees on {1..n}, as a parent tuple.

    ``parents[v - 1]`` is the parent of vertex v; 0 marks a root.  The
    parent relation must be acyclic and every parent must be a vertex label.
    """

    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _reaches_all(self.parents):
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
    """The reference check of a parent map: raises ValueError naming the
    first fault, vertex by vertex."""
    n = len(parents)
    for v, p in enumerate(parents, start=1):
        if not isinstance(p, int) or not 0 <= p <= n:
            raise ValueError(f"parent of vertex {v} out of range: {p!r}")
        if p == v:
            raise ValueError(f"vertex {v} is its own parent")
    v = _cycle_vertex(parents)
    if v:
        raise ValueError(f"parent map has a cycle through vertex {v}")


def _reaches_all(parents: Sequence[int]) -> bool:
    """True iff every parent is an int in 0..n and all n vertices are reached
    from the roots, which rules out cycles and self-parents: one pass that
    accepts only valid parent maps.  A map it rejects may still be valid
    (an int subclass, say), so ``_check_parents`` decides."""
    n = len(parents)
    if n and (set(map(type, parents)) != {int} or min(parents) < 0):
        return False
    try:
        kids = _child_index(parents)
    except IndexError:  # a parent above n
        return False
    # Breadth first: a vertex is appended once, when its parent is met.
    order = list(kids[0])
    for v in order:
        order.extend(kids[v])
    return len(order) == n


def _cycle_vertex(parents: Sequence[int]) -> int:
    """A vertex on a cycle of the parent map (entries 0..n), or 0 if none."""
    n = len(parents)
    # Follow parents from each vertex, marking finished ones.
    state = [0] * (n + 1)  # 0 unseen, 1 on current path, 2 done
    for start in range(1, n + 1):
        path = []
        v = start
        while v != 0 and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parents[v - 1]
        if v != 0 and state[v] == 1:
            return v
        for u in path:
            state[u] = 2
    return 0


def parent(forest: RootedForest, v: int) -> int:
    _check_vertex(forest, v)
    return forest.parents[v - 1]


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
    if forest.parents[x - 1] == 0:
        raise ValueError(f"vertex {x} is already a root")
    parents = list(forest.parents)
    parents[x - 1] = 0
    return RootedForest(tuple(parents))


def attach_subtree(forest: RootedForest, x: int, v: int) -> RootedForest:
    """Attach the tree rooted at x below v; v must lie outside that tree."""
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


def _check_vertex(forest: RootedForest, v: int) -> None:
    if not 1 <= v <= forest.n:
        raise ValueError(f"vertex {v} out of range 1..{forest.n}")


# --------------------------------------------------------------------------
# Part assignments (complete multipartite vertex partitions)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PartAssignment:
    """Partition of {1..n} into contiguous label blocks of the given sizes.

    Part 1 is {1..sizes[0]}, part 2 the next block, and so on.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one part is required")
        if any(s < 1 for s in self.sizes):
            raise ValueError("every part must be nonempty")

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "PartAssignment":
        return cls(tuple(sizes))

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def part_count(self) -> int:
        return len(self.sizes)

    def part_of(self, v: int) -> int:
        """1-based part index of vertex v."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return bisect.bisect_left(list(accumulate(self.sizes)), v) + 1

    def block(self, i: int) -> range:
        """The label range of part i."""
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


# --------------------------------------------------------------------------
# Plane forests (ordered children, optionally unlabeled leaves)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlaneNode:
    """One vertex of a plane tree: an optional label and ordered children.

    Slotted: ``PlaneForest.trees`` builds every node of a forest on each
    access.
    """

    label: int | None
    children: tuple["PlaneNode", ...] = ()

    def __post_init__(self) -> None:
        if self.label is not None and self.label < 1:
            raise ValueError(f"label must be positive, got {self.label}")

    # Equality, hashing and repr read the preorder word or walk the tree
    # with a stack, so depth is no limit; the dataclass versions recurse
    # once per level.

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _preorder((self,), *_NODE) == _preorder((other,), *_NODE)

    def __hash__(self) -> int:
        return hash(_preorder((self,), *_NODE))  # the word determines the tree

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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PlaneForest:
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

    preorder_labels: tuple[int, ...]
    preorder_degrees: tuple[int, ...]

    def __init__(self, trees: Sequence[PlaneNode]) -> None:
        _store(self, *_preorder(trees, *_NODE))

    def __post_init__(self) -> None:
        labels, degrees = self.preorder_labels, self.preorder_degrees
        if len(labels) != len(degrees) or min((*labels, *degrees), default=0) < 0:
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
        # Walking the word back, a vertex's children are the last nodes
        # built, its first child on top.
        built: list[PlaneNode] = []
        for x, d in reversed(list(zip(self.preorder_labels, self.preorder_degrees))):
            kids = tuple(built[: -d - 1 : -1])
            del built[len(built) - d :]
            built.append(PlaneNode(x or None, kids))
        return tuple(reversed(built))

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


def _store(pf: PlaneForest, labels: tuple, degrees: tuple) -> PlaneForest:
    """Give ``pf`` this word and validate it: every construction ends here."""
    object.__setattr__(pf, "preorder_labels", labels)
    object.__setattr__(pf, "preorder_degrees", degrees)
    pf.__post_init__()
    return pf


def _plane_word(labels: tuple[int, ...], degrees: tuple[int, ...]) -> PlaneForest:
    """The plane forest with this preorder word, validated like every other."""
    return _store(object.__new__(PlaneForest), labels, degrees)


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


def _spliced(word: tuple[Sequence, Sequence], runs) -> PlaneForest:
    """The forest whose word is these (start, end) runs of the two lists."""
    out: tuple[list, list] = ([], [])
    for a, b in runs:
        out[0].extend(word[0][a:b])
        out[1].extend(word[1][a:b])
    return _plane_word(tuple(out[0]), tuple(out[1]))


def plane_relabel(pf: PlaneForest, a: int, b: int) -> PlaneForest:
    """Swap labels a and b, then restore ascending tree order."""
    if a == b:
        return pf
    swap = {a: b, b: a}
    labels = [swap.get(x, x) for x in pf.preorder_labels]
    starts = _tree_starts(pf.preorder_degrees)
    # Shape forests keep their order: the sort is stable.
    runs = sorted(zip(starts, starts[1:]), key=lambda run: labels[run[0]])
    return _spliced((labels, pf.preorder_degrees), runs)


# --------------------------------------------------------------------------
# Edge-colored forests
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeColoredForest:
    """A rooted forest with a proper edge coloring, keyed by child vertex.

    ``colors[v - 1]`` is the color (1..color_count) of the edge from
    parent(v) into v, and 0 exactly when v is a root.  Properness: all edges
    sharing a vertex carry distinct colors.
    """

    base: RootedForest
    color_count: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        args = (self.base.parents, self.color_count, self.colors)
        if not _properly_colored(*args):
            _check_coloring(*args)

    @property
    def n(self) -> int:
        return self.base.n

    def is_special(self) -> bool:
        """True iff no edge out of any root carries the last color."""
        return _special(self, _child_index(self.base.parents))

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
    if color_count < 0:
        raise ValueError("color count must be nonnegative")
    if len(colors) != n:
        raise ValueError("one color entry per vertex is required")
    for v in range(1, n + 1):
        c = colors[v - 1]
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
    """True iff every root carries color 0, every edge an int color in
    1..color_count, and no (vertex, color) key occurs twice among the two
    ends of the edges: one pass that accepts only valid colorings of a valid
    parent map.  A coloring it rejects may still be valid (an int subclass
    for a color, say), so ``_check_coloring`` decides."""
    n = len(parents)
    if color_count < 0 or len(colors) != n:
        return False
    keys = set()
    edges = 0
    for v, p, c in zip(range(1, n + 1), parents, colors):
        if not p:
            if c != 0:
                return False
        elif type(c) is not int or not 1 <= c <= color_count:
            return False
        else:
            keys.add((v, c))
            keys.add((p, c))
            edges += 1
    return len(keys) == 2 * edges


def _special(ef: EdgeColoredForest, kids: list[list[int]]) -> bool:
    """``ef.is_special()``, from a child index of its parent map."""
    return all(
        ef.colors[v - 1] != ef.color_count for r in kids[0] for v in kids[r]
    )


def swap_colored_labels(ef: EdgeColoredForest, a: int, b: int) -> EdgeColoredForest:
    """Relabel by (a b); edge colors travel with their child vertices."""
    if a == b:
        return ef
    base = swap_labels(ef.base, a, b)  # checks a and b
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
    tokens = text.split()
    ints = _parse_ints(text, tokens)
    if len(ints) < 2:
        raise ParseError("expected 'n k p_1 ... p_n'", 0)
    n, k = ints[0], ints[1]
    if len(ints) != 2 + n:
        raise ParseError(
            f"expected {n} parent entries, found {len(ints) - 2}", len(text)
        )
    forest = RootedForest(tuple(ints[2:]))
    if forest.root_count != k:
        raise ParseError(
            f"header says {k} roots but parent map has {forest.root_count}", 0
        )
    return forest


def render_colored(ef: EdgeColoredForest) -> str:
    line1 = render_forest(ef.base)
    line2 = " ".join(str(c) for c in ef.colors)
    return line1 + "\n" + line2


def parse_colored(text: str, color_count: int) -> EdgeColoredForest:
    tokens = text.split()
    ints = _parse_ints(text, tokens)
    if len(ints) < 2:
        raise ParseError("expected 'n k p_1 ... p_n c_1 ... c_n'", 0)
    n = ints[0]
    if len(ints) != 2 + 2 * n:
        raise ParseError(
            f"expected {2 * n} entries after the header, found {len(ints) - 2}",
            len(text),
        )
    base = parse_forest(" ".join(str(x) for x in ints[: 2 + n]))
    return EdgeColoredForest(base, color_count, tuple(ints[2 + n :]))


_INTEGER = re.compile(r"-?[0-9]+")


def _parse_ints(text: str, tokens: list[str]) -> list[int]:
    values = []
    for tok in tokens:
        if not _INTEGER.fullmatch(tok):
            raise ParseError(f"not an integer: {tok!r}", text.find(tok))
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
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    # The word is written as the text is read, in preorder.  `open_lists`
    # holds the position of every vertex whose child list is still open,
    # innermost last; a vertex's child count grows as its children are read.
    labels: list[int] = []
    degrees: list[int] = []
    open_lists: list[int] = []
    while True:
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "*":
            pos += 1
            label = 0
        else:
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start:
                raise ParseError(
                    f"expected label or '*', found {text[pos]!r}", pos
                )
            label = int(text[start:pos])
            if not label:  # in the word, 0 means unlabeled
                raise ValueError("label must be positive, got 0")
        if open_lists:
            degrees[open_lists[-1]] += 1
        labels.append(label)
        degrees.append(0)
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            if not label:
                raise ParseError("unlabeled vertices must be leaves", pos)
            pos += 1
            open_lists.append(len(labels) - 1)
            continue
        # The vertex is complete: close every child list that ends here,
        # until a ',' or ';' asks for the next vertex.
        while open_lists:
            skip_ws()
            if pos >= len(text):
                raise ParseError("unterminated child list", pos)
            if text[pos] == ",":
                pos += 1
                break
            if text[pos] != ")":
                raise ParseError(
                    f"expected ',' or ')', found {text[pos]!r}", pos
                )
            pos += 1
            open_lists.pop()
        else:
            skip_ws()
            if pos < len(text) and text[pos] == ";":
                pos += 1
                continue
            break
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return _plane_word(tuple(labels), tuple(degrees))
