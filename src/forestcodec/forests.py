"""Value types for rooted-forest families and their structural operations.

Vertices are labeled 1..n and a forest is stored as a parent map:
``parents[v - 1]`` is the parent of vertex v, with the sentinel 0 marking a
root.  All values here are immutable; every operation returns a new value,
so bijection steps compose without aliasing surprises.

Cost model: each operation makes one pass over the value, O(n) for n
vertices, at any depth.  A plane walk (``plane_preorder``) links each node to
its parent's entry and its gap, so ``plane_replace`` edits a forest from one
walk by copying only the ancestors of the changed nodes.
``children``, ``degree`` and ``EdgeColoredForest.colors_at`` answer for one
vertex with a full O(n) scan, so code that needs the children of many
vertices builds one child index with ``_child_index`` instead.

Family-level constraints (roots being exactly 1..k, a pivot vertex lying in
tree 1, part discipline, special color rules) are *not* type invariants:
intermediate states of the bijections legitimately violate them.  They are
enforced by the functions that need them.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
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
        n = len(self.parents)
        for v, p in enumerate(self.parents, start=1):
            if not isinstance(p, int) or not 0 <= p <= n:
                raise ValueError(f"parent of vertex {v} out of range: {p!r}")
            if p == v:
                raise ValueError(f"vertex {v} is its own parent")
        v = _cycle_vertex(self.parents)
        if v:
            raise ValueError(f"parent map has a cycle through vertex {v}")

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "RootedForest":
        return cls(tuple(parents))

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


def root_of(forest: RootedForest, v: int) -> int:
    """The root of the tree containing v."""
    _check_vertex(forest, v)
    while forest.parents[v - 1] != 0:
        v = forest.parents[v - 1]
    return v


def is_descendant(forest: RootedForest, y: int, x: int) -> bool:
    """True iff y lies in the subtree rooted at x (reflexively)."""
    _check_vertex(forest, y)
    _check_vertex(forest, x)
    v = y
    while True:
        if v == x:
            return True
        v = forest.parents[v - 1]
        if v == 0:
            return False


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
    sigma = _transposition(a, b)
    parents = [0] * forest.n
    for v in range(1, forest.n + 1):
        parents[sigma(v) - 1] = sigma(forest.parents[v - 1])
    return RootedForest(tuple(parents))


def _transposition(a: int, b: int):
    def sigma(v: int) -> int:
        if v == a:
            return b
        if v == b:
            return a
        return v

    return sigma


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

    @property
    def _offsets(self) -> tuple[int, ...]:
        total, offs = 0, []
        for s in self.sizes:
            total += s
            offs.append(total)
        return tuple(offs)

    def part_of(self, v: int) -> int:
        """1-based part index of vertex v."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return bisect.bisect_left(self._offsets, v) + 1

    def block(self, i: int) -> range:
        """The label range of part i."""
        offs = (0,) + self._offsets
        return range(offs[i - 1] + 1, offs[i] + 1)

    def respects(self, forest: RootedForest) -> bool:
        """True iff no edge of the forest joins two vertices of one part."""
        if forest.n != self.n:
            return False
        return all(
            p == 0 or self.part_of(v) != self.part_of(p)
            for v, p in enumerate(forest.parents, start=1)
        )


# --------------------------------------------------------------------------
# Plane forests (ordered children, optionally unlabeled leaves)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneNode:
    """One vertex of a plane tree: an optional label and ordered children."""

    label: int | None
    children: tuple["PlaneNode", ...] = ()

    def __post_init__(self) -> None:
        if self.label is not None and self.label < 1:
            raise ValueError(f"label must be positive, got {self.label}")

    # Equality, hashing and repr walk the tree with a stack, so depth is no
    # limit; the dataclass versions recurse once per level.

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:  # a shared subtree
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # The preorder of (label, child count) pairs determines the tree.
        return hash(tuple((nd.label, len(nd.children)) for nd in _nodes((self,))))

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
        return len(_nodes((self,)))

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class PlaneForest:
    """An ordered sequence of plane trees.

    Labeled vertices carry distinct labels.  In the fully labeled family
    every vertex is labeled 1..n; in the leaf-unlabeled family exactly the
    leaves are unlabeled and internal vertices carry 1..(n - leaf count).
    Trees are kept in ascending order of root label.
    """

    trees: tuple[PlaneNode, ...]

    def __post_init__(self) -> None:
        labels = [nd.label for nd in _nodes(self.trees) if nd.label is not None]
        if len(labels) != len(set(labels)):
            raise ValueError("duplicate labels in plane forest")
        if not labels:
            return  # a pure shape forest: no ordering constraint
        roots = [t.label for t in self.trees]
        if any(r is None for r in roots):
            raise ValueError("every tree root must be labeled")
        if list(roots) != sorted(roots):
            raise ValueError("trees must be ordered by ascending root label")

    @classmethod
    def from_trees(cls, trees: Sequence[PlaneNode]) -> "PlaneForest":
        return cls(tuple(trees))

    @property
    def n_vertices(self) -> int:
        return len(_nodes(self.trees))

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    @property
    def leaf_count(self) -> int:
        return sum(1 for node in _nodes(self.trees) if node.is_leaf)

    @property
    def labeled_count(self) -> int:
        return sum(1 for _ in self.labels())

    def labels(self) -> Iterator[int]:
        for node in _nodes(self.trees):
            if node.label is not None:
                yield node.label

    def root_labels(self) -> tuple[int, ...]:
        return tuple(t.label for t in self.trees)  # type: ignore[misc]

    def is_fully_labeled(self) -> bool:
        return self.labeled_count == self.n_vertices

    def is_leaf_unlabeled(self) -> bool:
        """True iff a vertex is unlabeled exactly when it is a leaf."""
        return all(
            (node.label is None) == node.is_leaf
            for node in _nodes(self.trees)
        )


def _nodes(roots: Sequence[PlaneNode]) -> list[PlaneNode]:
    """Every node below the given roots in global preorder, iteratively."""
    found: list[PlaneNode] = []
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(reversed(node.children))
    return found


Entry = tuple[int, int, PlaneNode]


def plane_preorder(pf: PlaneForest) -> list[Entry]:
    """(parent, gap, node) for every node in global preorder, iteratively.

    ``parent`` is the index of the parent's entry, or -1 for a root, whose
    ``gap`` is then its tree index.  Each tree's entries are one run.
    """
    entries: list[Entry] = []
    stack = [(-1, ti, tree) for ti, tree in reversed(list(enumerate(pf.trees)))]
    while stack:
        entry = stack.pop()
        i = len(entries)
        entries.append(entry)
        kids = entry[2].children
        for gap in range(len(kids) - 1, -1, -1):
            stack.append((i, gap, kids[gap]))
    return entries


def plane_replace(
    pf: PlaneForest, entries: list[Entry], changes: dict[int, PlaneNode | None]
) -> PlaneForest:
    """Put ``changes[i]`` in place of entry i's node, or delete it when None,
    copying only the ancestors; ``entries`` is ``plane_preorder(pf)``.

    The largest index goes first, so a change below a changed entry lands in
    its replacement, and a deletion shifts no gap still to be used.
    """
    trees: list[PlaneNode | None] = list(pf.trees)
    new = dict(changes)
    for i in range(max(new, default=-1), -1, -1):
        if i not in new:
            continue
        p, gap, _ = entries[i]
        if p < 0:
            trees[gap] = new[i]
            continue
        up = new.get(p, entries[p][2])
        if up is None:  # deleted together with its parent
            continue
        kids = up.children
        middle = () if new[i] is None else (new[i],)
        new[p] = PlaneNode(up.label, kids[:gap] + middle + kids[gap + 1 :])
    # Shape forests have no root labels and keep their order.
    kept = sorted((t for t in trees if t is not None), key=lambda t: t.label or 0)
    return PlaneForest(tuple(kept))


def plane_relabel(pf: PlaneForest, a: int, b: int) -> PlaneForest:
    """Swap labels a and b, then restore ascending tree order."""
    if a == b:
        return pf
    entries = plane_preorder(pf)
    swap = {a: b, b: a}
    return plane_replace(pf, entries, {
        i: PlaneNode(swap[node.label], node.children)
        for i, (_, _, node) in enumerate(entries)
        if node.label in swap
    })


def plane_label_in_tree(pf: PlaneForest, label: int, root: int) -> bool:
    """True iff the vertex carrying `label` lies in the tree rooted `root`."""
    for tree in pf.trees:
        if any(node.label == label for node in _nodes((tree,))):
            return tree.label == root
    raise ValueError(f"label {label} not present")


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
        n = self.base.n
        if self.color_count < 0:
            raise ValueError("color count must be nonnegative")
        if len(self.colors) != n:
            raise ValueError("one color entry per vertex is required")
        for v in range(1, n + 1):
            c = self.colors[v - 1]
            if self.base.parents[v - 1] == 0:
                if c != 0:
                    raise ValueError(f"root {v} must carry color 0")
            elif not 1 <= c <= self.color_count:
                raise ValueError(f"color of edge into {v} out of range: {c}")
        kids = _child_index(self.base.parents)
        for x in range(1, n + 1):
            incident = [self.colors[v - 1] for v in kids[x]]
            if self.base.parents[x - 1] != 0:
                incident.append(self.colors[x - 1])
            if len(incident) != len(set(incident)):
                raise ValueError(f"edges at vertex {x} repeat a color")

    @property
    def n(self) -> int:
        return self.base.n

    def is_special(self) -> bool:
        """True iff no edge out of any root carries the last color."""
        kids = _child_index(self.base.parents)
        return all(
            self.colors[v - 1] != self.color_count
            for r in kids[0]
            for v in kids[r]
        )

    def colors_at(self, x: int) -> frozenset[int]:
        """Colors of all edges incident to x (the edge into x plus those out)."""
        cs = {self.colors[v - 1] for v in children(self.base, x)}
        if self.base.parents[x - 1] != 0:
            cs.add(self.colors[x - 1])
        return frozenset(cs)


def swap_colored_labels(ef: EdgeColoredForest, a: int, b: int) -> EdgeColoredForest:
    """Relabel by (a b); edge colors travel with their child vertices."""
    if a == b:
        return ef
    sigma = _transposition(a, b)
    colors = [0] * ef.n
    for v in range(1, ef.n + 1):
        colors[sigma(v) - 1] = ef.colors[v - 1]
    return EdgeColoredForest(
        swap_labels(ef.base, a, b), ef.color_count, tuple(colors)
    )


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
    # The stack holds nodes still to render and the punctuation between them.
    stack: list[PlaneNode | str] = []
    for i, tree in enumerate(pf.trees):
        if i:
            out.append(";")
        stack.append(tree)
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("*" if item.label is None else str(item.label))
            if item.children:
                out.append("(")
                stack.append(")")
                for j in range(len(item.children) - 1, 0, -1):
                    stack.append(item.children[j])
                    stack.append(",")
                stack.append(item.children[0])
    return "".join(out)


def parse_plane(text: str) -> PlaneForest:
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    # Iterative descent: `open_nodes` holds the label and children parsed so
    # far of every node whose child list is still open, innermost last.
    trees: list[PlaneNode] = []
    open_nodes: list[tuple[int, list[PlaneNode]]] = []
    while True:
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        if text[pos] == "*":
            pos += 1
            skip_ws()
            if pos < len(text) and text[pos] == "(":
                raise ParseError("unlabeled vertices must be leaves", pos)
            node = PlaneNode(None)
        else:
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start:
                raise ParseError(
                    f"expected label or '*', found {text[pos]!r}", pos
                )
            label = int(text[start:pos])
            skip_ws()
            if pos < len(text) and text[pos] == "(":
                pos += 1
                open_nodes.append((label, []))
                continue
            node = PlaneNode(label, ())
        # `node` is complete: add it to its parent, closing every child list
        # that ends here, until a ',' or ';' asks for the next node.
        while open_nodes:
            open_nodes[-1][1].append(node)
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
            label, kids = open_nodes.pop()
            node = PlaneNode(label, tuple(kids))
        else:
            trees.append(node)
            skip_ws()
            if pos < len(text) and text[pos] == ";":
                pos += 1
                continue
            break
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return PlaneForest(tuple(trees))
