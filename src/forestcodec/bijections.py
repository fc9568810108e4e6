"""Recursive bijection steps between forests with k-1 roots and k roots.

Each family supports a forward step (detach the subtree at the new largest
root, fix up the structure, and swap two labels when the pivot vertex left
tree 1) and a choice-indexed inverse step.  The number of valid choices for
the inverse is the family's recurrence multiplier, so iterating the inverse
from the unique maximal-root state realizes the product formulas evaluated
in :mod:`forestcodec.counting`.

Choice indexing convention, shared by every family: attachment targets
outside the moved subtree come first, in ascending vertex label (plane
families then order by gap position, colored by ascending color), followed
by the swap-case targets inside the moved subtree in the same order.  Swap
case choices record the attachment vertex in post-swap labels, i.e. as the
vertex appears in the forest with k roots.

Cost model: every step, choice count and membership check does O(n) work
on an n-vertex forest.  A step builds what it needs from one pass over its
input: a child index of the parent map (``forests._child_index``) for the
labeled families, one ``label -> (tree, path, node)`` walk for the plane
family.  A codec or sampler run takes n-2 steps, so it costs O(n^2).
"""

from __future__ import annotations

from .forests import (
    EdgeColoredForest,
    PartAssignment,
    Path,
    PlaneForest,
    PlaneNode,
    RootedForest,
    _child_index,
    _rebuild,
    _subtree,
    _transposition,
    detach_subtree,
    attach_subtree,
    is_descendant,
    plane_find_label,
    plane_get,
    plane_label_in_tree,
    plane_leaf_positions,
    plane_preorder,
    plane_relabel,
    plane_replace,
    subtree_vertices,
    swap_colored_labels,
    swap_labels,
)

__all__ = [
    "plain_forward",
    "plain_inverse",
    "plain_choice_count",
    "partite_forward",
    "partite_inverse",
    "partite_choice_count",
    "reroot_tree",
    "reroot_switch",
    "plane_forward",
    "plane_inverse",
    "plane_choice_count",
    "leafplane_forward",
    "leafplane_inverse",
    "leafplane_choice_count",
    "colored_forward",
    "colored_inverse",
    "colored_choice_count",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _choice_index(outside: list, inside: list, target, swapped: bool) -> int:
    """The choice that makes the inverse step attach at `target`."""
    if swapped:
        return len(outside) + inside.index(target) + 1
    return outside.index(target) + 1


def _chosen(outside: list, inside: list, choice: int):
    """The target a choice names, and whether it takes the swap case."""
    total = len(outside) + len(inside)
    _require(1 <= choice <= total, f"choice must be in 1..{total}, got {choice}")
    if choice <= len(outside):
        return outside[choice - 1], False
    return inside[choice - len(outside) - 1], True


# --------------------------------------------------------------------------
# Plain labeled forests
# --------------------------------------------------------------------------


def _require_plain(forest: RootedForest, k: int, pivot: int) -> None:
    _require(
        forest.has_standard_roots(k),
        f"expected roots exactly 1..{k}, got {forest.roots}",
    )
    _require(
        is_descendant(forest, pivot, 1),
        f"vertex {pivot} must lie in the tree rooted at 1",
    )


def _targets(
    forest: RootedForest, k: int, parts: PartAssignment | None
) -> tuple[list[int], list[int]]:
    """Attachment targets outside the subtree at k, then inside it, ascending.

    With parts, the outside targets avoid k's part and the inside ones 1's.
    """
    inside = subtree_vertices(forest, k)
    outside = [v for v in range(1, forest.n + 1) if v not in inside]
    ins = sorted(inside)
    if parts is not None:
        part_k, part_1 = parts.part_of(k), parts.part_of(1)
        outside = [v for v in outside if parts.part_of(v) != part_k]
        ins = [v for v in ins if parts.part_of(v) != part_1]
    return outside, ins


def _detach(
    forest: RootedForest, k: int, pivot: int, parts: PartAssignment | None
) -> tuple[RootedForest, int]:
    """The forward step of the labeled families, with its choice index."""
    w = forest.parents[k - 1]
    out = detach_subtree(forest, k)
    swapped = not is_descendant(out, pivot, 1)
    if swapped:
        out = swap_labels(out, 1, k)
        w = _transposition(1, k)(w)
    return out, _choice_index(*_targets(out, k, parts), w, swapped)


def _attach(
    forest: RootedForest, k: int, parts: PartAssignment | None, choice: int
) -> RootedForest:
    """The inverse step of the labeled families."""
    u, swap = _chosen(*_targets(forest, k, parts), choice)
    if not swap:
        return attach_subtree(forest, k, u)
    return swap_labels(attach_subtree(forest, 1, u), 1, k)


def plain_forward(forest: RootedForest, k: int) -> tuple[RootedForest, int]:
    """Map a forest with roots 1..k-1 (and n in tree 1) to one with roots 1..k.

    Detach the subtree at vertex k; if vertex n is no longer in tree 1 it
    must now sit under k, so labels 1 and k are exchanged.  Also returns the
    canonical choice index that makes ``plain_inverse`` undo the step.
    """
    n = forest.n
    _require(2 <= k <= n - 1, f"k must satisfy 2 <= k <= n-1, got {k}")
    _require_plain(forest, k - 1, n)
    return _detach(forest, k, n, None)


def plain_inverse(forest: RootedForest, k: int, choice: int) -> RootedForest:
    """Undo one detachment step, consuming one of n possible choices.

    Choices 1..n-m (m the size of tree k) reattach tree k below the chosen
    vertex outside it; the remaining m choices attach tree 1 below a vertex
    of tree k and exchange labels 1 and k.
    """
    n = forest.n
    _require(2 <= k <= n - 1, f"k must satisfy 2 <= k <= n-1, got {k}")
    _require_plain(forest, k, n)
    return _attach(forest, k, None, choice)


def plain_choice_count(forest: RootedForest, k: int) -> int:
    """The plain multiplier: every one of the n vertices is a valid target."""
    _require_plain(forest, k, forest.n)
    return forest.n


# --------------------------------------------------------------------------
# Multipartite forests (no edge inside a part)
# --------------------------------------------------------------------------


def _require_partite(
    forest: RootedForest, k: int, parts: PartAssignment, pivot: int
) -> None:
    _require(parts.n == forest.n, "part sizes must cover the vertex set")
    _require(parts.part_count >= 2, "at least two parts are required")
    _require(k <= parts.sizes[0], f"roots 1..{k} must lie in part 1")
    _require(parts.respects(forest), "forest has an edge inside one part")
    _require_plain(forest, k, pivot)


def partite_forward(
    forest: RootedForest, k: int, parts: PartAssignment
) -> tuple[RootedForest, int]:
    """Detachment step restricted to cross-part edges.

    The pivot vertex is the smallest label of part 2.  Attachment targets
    are restricted to vertices in a different part from the attached root,
    which is what makes the multiplier the size of the complement of part 1.
    """
    pivot = parts.sizes[0] + 1
    _require(
        2 <= k <= parts.sizes[0],
        f"k must satisfy 2 <= k <= |part 1| = {parts.sizes[0]}, got {k}",
    )
    _require_partite(forest, k - 1, parts, pivot)
    return _detach(forest, k, pivot, parts)


def partite_inverse(
    forest: RootedForest, k: int, parts: PartAssignment, choice: int
) -> RootedForest:
    pivot = parts.sizes[0] + 1
    _require(
        2 <= k <= parts.sizes[0],
        f"k must satisfy 2 <= k <= |part 1| = {parts.sizes[0]}, got {k}",
    )
    _require_partite(forest, k, parts, pivot)
    return _attach(forest, k, parts, choice)


def partite_choice_count(
    forest: RootedForest, k: int, parts: PartAssignment
) -> int:
    pivot = parts.sizes[0] + 1
    _require_partite(forest, k, parts, pivot)
    outside, inside = _targets(forest, k, parts)
    return len(outside) + len(inside)


def reroot_tree(forest: RootedForest, v: int) -> RootedForest:
    """Re-root the tree containing v at v by reversing the path to its root."""
    path = [v]
    while forest.parents[path[-1] - 1] != 0:
        path.append(forest.parents[path[-1] - 1])
    parents = list(forest.parents)
    parents[v - 1] = 0
    for child, par in zip(path, path[1:]):
        parents[par - 1] = child
    return RootedForest(tuple(parents))


def reroot_switch(forest: RootedForest) -> RootedForest:
    """Move the root of the tree containing vertices 1 and r+1 from 1 to r+1.

    The input has roots 1..r with r+1 in tree 1; the output has roots
    2..r+1 with 1 in the tree rooted at r+1.  Vertex and edge sets are
    untouched, only parent pointers along the path between 1 and r+1 flip.
    """
    r = forest.root_count
    _require(forest.has_standard_roots(r), "roots must be exactly 1..r")
    _require(r + 1 <= forest.n, "vertex r+1 does not exist")
    _require(
        is_descendant(forest, r + 1, 1),
        f"vertex {r + 1} must lie in the tree rooted at 1",
    )
    return reroot_tree(forest, r + 1)


# --------------------------------------------------------------------------
# Fully labeled plane forests
# --------------------------------------------------------------------------


PlaneIndex = dict[int, tuple[int, Path, PlaneNode]]


def _plane_index(pf: PlaneForest) -> PlaneIndex:
    """label -> (tree index, path, node), from one preorder walk."""
    return {node.label: (ti, path, node) for ti, path, node in plane_preorder(pf)}


def _require_plane(pf: PlaneForest, k: int, conditioned: bool = True) -> PlaneIndex:
    """Validate membership with roots 1..k; returns the forest's label index."""
    at = _plane_index(pf)
    # Labels are distinct, so only unlabeled vertices can share a key.
    _require(None not in at, "plane family here is fully labeled")
    n = len(at)
    _require(at.keys() == set(range(1, n + 1)), "labels must be 1..n")
    _require(
        pf.root_labels() == tuple(range(1, k + 1)),
        f"expected roots exactly 1..{k}, got {pf.root_labels()}",
    )
    if conditioned:
        _require(n in at, f"label {n} not present")  # the empty forest
        _require(
            pf.trees[at[n][0]].label == 1,
            f"vertex {n} must lie in the tree rooted at 1",
        )
    return at


def _plane_slots(
    pf: PlaneForest, k: int, at: PlaneIndex | None = None
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(vertex, gap) attachment slots, outside tree k then inside it.

    ``pf`` is labeled 1..n; ``at`` is its label index when already built.
    """
    if at is None:
        at = _plane_index(pf)
    outside: list[tuple[int, int]] = []
    inside: list[tuple[int, int]] = []
    k_tree = next(i for i, t in enumerate(pf.trees) if t.label == k)
    for label in range(1, len(at) + 1):
        ti, _, node = at[label]
        slots = [(label, g) for g in range(len(node.children) + 1)]
        (inside if ti == k_tree else outside).extend(slots)
    return outside, inside


def plane_forward(pf: PlaneForest, k: int) -> tuple[PlaneForest, int]:
    """Detach the subtree at vertex k from a plane forest, keeping gaps.

    Attachment positions are (vertex, gap) pairs, so a vertex of degree d
    offers d+1 slots; over the whole target forest that is 2n-k slots.
    """
    n = pf.n_vertices
    _require(2 <= k <= n - 1, f"k must satisfy 2 <= k <= n-1, got {k}")
    at = _require_plane(pf, k - 1)
    ti, path, sub = at[k]
    w = plane_get(pf, ti, path[:-1]).label
    gap = path[-1]
    trees = list(pf.trees)
    trees[ti] = _rebuild(trees[ti], path, None)
    out = PlaneForest(tuple(trees) + (sub,))
    # Vertex n lies in tree 1; it leaves tree 1 exactly when it sits in the
    # detached subtree.
    n_ti, n_path, _ = at[n]
    swapped = n_ti == ti and n_path[: len(path)] == path
    if swapped:
        out = plane_relabel(out, 1, k)
        w = _transposition(1, k)(w)
    return out, _choice_index(*_plane_slots(out, k), (w, gap), swapped)


def plane_inverse(pf: PlaneForest, k: int, choice: int) -> PlaneForest:
    n = pf.n_vertices
    _require(2 <= k <= n - 1, f"k must satisfy 2 <= k <= n-1, got {k}")
    at = _require_plane(pf, k)
    (vertex, gap), swap = _chosen(*_plane_slots(pf, k, at), choice)
    moved = 1 if swap else k
    # The target vertex never lies in the moved tree: outside slots avoid
    # tree k, inside slots avoid tree 1.
    m_tree = at[moved][0]
    ti, path, target = at[vertex]
    trees = list(pf.trees)
    sub = trees.pop(m_tree)
    if ti > m_tree:
        ti -= 1
    kids = target.children
    new = PlaneNode(target.label, kids[:gap] + (sub,) + kids[gap:])
    trees[ti] = _rebuild(trees[ti], path, new)
    out = PlaneForest(tuple(trees))
    if swap:
        out = plane_relabel(out, 1, k)
    return out


def plane_choice_count(pf: PlaneForest, k: int) -> int:
    """The plane multiplier 2n-k: one slot per (vertex, child gap) pair."""
    _require_plane(pf, k)
    return 2 * pf.n_vertices - k


# --------------------------------------------------------------------------
# Leaf-unlabeled plane forests
# --------------------------------------------------------------------------


def _require_leafplane(pf: PlaneForest, r: int) -> int:
    """Validate membership with roots 1..r; returns the internal count."""
    _require(pf.is_leaf_unlabeled(), "exactly the leaves must be unlabeled")
    nlab = pf.labeled_count
    _require(
        set(pf.labels()) == set(range(1, nlab + 1)),
        f"internal labels must be 1..{nlab}",
    )
    _require(
        pf.root_labels() == tuple(range(1, r + 1)),
        f"expected roots exactly 1..{r}, got {pf.root_labels()}",
    )
    _require(
        plane_label_in_tree(pf, nlab, 1),
        f"vertex {nlab} must lie in the tree rooted at 1",
    )
    return nlab


def leafplane_forward(pf: PlaneForest, r: int) -> tuple[PlaneForest, int]:
    """Detach the subtree at internal vertex r, leaving an unlabeled leaf.

    The hole left behind is a fresh leaf, so the result has one more vertex
    and one more leaf than the input.  The choice index is the preorder rank
    of that hole among the unlabeled leaves of the result.
    """
    nlab = _require_leafplane(pf, r - 1)
    _require(2 <= r <= nlab - 1, f"r must satisfy 2 <= r <= {nlab - 1}")
    ti, path = plane_find_label(pf, r)
    sub = plane_get(pf, ti, path)
    hole_root = pf.trees[ti].label
    out = PlaneForest(
        plane_replace(pf, ti, path, PlaneNode(None)).trees + (sub,)
    )
    if not plane_label_in_tree(out, nlab, 1):
        out = plane_relabel(out, 1, r)
        hole_root = _transposition(1, r)(hole_root)
    hole_tree = next(
        i for i, t in enumerate(out.trees) if t.label == hole_root
    )
    c = plane_leaf_positions(out).index((hole_tree, path)) + 1
    return out, c


def leafplane_inverse(pf: PlaneForest, r: int, choice: int) -> PlaneForest:
    """Replace the chosen unlabeled leaf by tree r (or tree 1 plus a swap)."""
    nlab = _require_leafplane(pf, r)
    _require(2 <= r <= nlab - 1, f"r must satisfy 2 <= r <= {nlab - 1}")
    leaves = plane_leaf_positions(pf)
    _require(
        1 <= choice <= len(leaves),
        f"choice must be in 1..{len(leaves)}, got {choice}",
    )
    ti, path = leaves[choice - 1]
    swap = pf.trees[ti].label == r
    moved = 1 if swap else r
    m_tree = next(i for i, t in enumerate(pf.trees) if t.label == moved)
    sub = pf.trees[m_tree]
    rest = PlaneForest(pf.trees[:m_tree] + pf.trees[m_tree + 1 :])
    if m_tree < ti:
        ti -= 1
    out = plane_replace(rest, ti, path, sub)
    if swap:
        out = plane_relabel(out, 1, r)
    return out


def leafplane_choice_count(pf: PlaneForest, r: int) -> int:
    """One choice per unlabeled leaf of the forest with r roots."""
    _require_leafplane(pf, r)
    return pf.leaf_count


# --------------------------------------------------------------------------
# Special edge-colored forests
# --------------------------------------------------------------------------


def _require_colored(ef: EdgeColoredForest, r: int) -> None:
    _require(
        ef.base.has_standard_roots(r),
        f"expected roots exactly 1..{r}, got {ef.base.roots}",
    )
    _require(ef.is_special(), "an edge out of a root carries the last color")
    _require(
        is_descendant(ef.base, ef.n, 1),
        f"vertex {ef.n} must lie in the tree rooted at 1",
    )


def _alternating_flip(
    parents, colors: list[int], start: int, first: int, second: int
) -> None:
    """Swap the colors `first` and `second` along the path descending from
    `start` that alternates between them.

    A single recoloring of the edge out of `start` can collide with an edge
    one level further down, so the exchange must propagate: by properness
    each vertex has at most one incident edge of either color, hence the
    affected edges form a downward path and flipping all of them restores a
    proper coloring.  Flipping the same path again undoes the exchange,
    which is what keeps the forward and inverse steps mutually inverse.
    """
    kids = _child_index(parents)
    v, want, other = start, first, second
    while True:
        child = next((u for u in kids[v] if colors[u - 1] == want), None)
        if child is None:
            return
        colors[child - 1] = other
        v, want, other = child, other, want


def _colored_pairs(
    ef: EdgeColoredForest, r: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(vertex, color) attachment pairs, outside tree r then inside it.

    A root may offer only the first kc-1 colors (the result tree must stay
    special there); any vertex excludes the colors already incident to it.
    """
    kc, parents, colors = ef.color_count, ef.base.parents, ef.colors
    kids = _child_index(parents)
    inside_set = set(_subtree(kids, r))
    outside: list[tuple[int, int]] = []
    inside: list[tuple[int, int]] = []
    for v in range(1, ef.n + 1):
        top = kc - 1 if v <= r else kc
        # The colors incident to v, as EdgeColoredForest.colors_at gives.
        used = {colors[u - 1] for u in kids[v]}
        if parents[v - 1] != 0:
            used.add(colors[v - 1])
        pairs = [(v, y) for y in range(1, top + 1) if y not in used]
        (inside if v in inside_set else outside).extend(pairs)
    return outside, inside


def colored_forward(
    ef: EdgeColoredForest, r: int
) -> tuple[EdgeColoredForest, int]:
    """Detach the subtree at r from a special colored forest.

    The edge into r had some color x; after the cut, the at-most-one edge
    out of r colored with the last color is recolored x so the new tree is
    special again.  The recorded choice remembers both the attachment vertex
    and x.
    """
    n, kc = ef.n, ef.color_count
    _require(2 <= r <= n - 1, f"r must satisfy 2 <= r <= n-1, got {r}")
    _require_colored(ef, r - 1)
    x = ef.colors[r - 1]
    w = ef.base.parents[r - 1]
    base = detach_subtree(ef.base, r)
    colors = list(ef.colors)
    colors[r - 1] = 0
    # The new tree at r must avoid the last color on its root edges; trade
    # it for x, the color freed by the cut, cascading down the subtree.
    _alternating_flip(base.parents, colors, r, kc, x)
    out = EdgeColoredForest(base, kc, tuple(colors))
    swapped = not is_descendant(base, n, 1)
    if swapped:
        out = swap_colored_labels(out, 1, r)
        w = _transposition(1, r)(w)
    return out, _choice_index(*_colored_pairs(out, r), (w, x), swapped)


def colored_inverse(
    ef: EdgeColoredForest, r: int, choice: int
) -> EdgeColoredForest:
    """Reattach tree r (or tree 1 plus a swap) with a chosen edge color.

    If the chosen color collides with an edge out of the attached root, that
    edge is recolored with the last color, undoing the forward recoloring.
    """
    n, kc = ef.n, ef.color_count
    _require(2 <= r <= n - 1, f"r must satisfy 2 <= r <= n-1, got {r}")
    _require_colored(ef, r)
    (v, y), swap = _chosen(*_colored_pairs(ef, r), choice)
    moved = 1 if swap else r
    parents = list(ef.base.parents)
    colors = list(ef.colors)
    parents[moved - 1] = v
    colors[moved - 1] = y
    # Undo the forward exchange: push y back out for the last color along
    # the alternating path below the attached root.
    _alternating_flip(parents, colors, moved, y, kc)
    out = EdgeColoredForest(RootedForest(tuple(parents)), kc, tuple(colors))
    return swap_colored_labels(out, 1, r) if swap else out


def colored_choice_count(ef: EdgeColoredForest, r: int) -> int:
    """The colored multiplier kc*n - 2n + r."""
    _require_colored(ef, r)
    return ef.color_count * ef.n - 2 * ef.n + r
