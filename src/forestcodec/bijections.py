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

Cost model: every step, choice count and membership check does O(n) work on
an n-vertex forest.  The membership checks (``forests._require_plain`` and
its partite, plane and colored kin) live in :mod:`forests`, which the codec
shares.  A labeled step builds one child index of its input's parent map
(``forests._child_index``) and hands it to the membership check, the marks
of tree k, the recoloring and the choice lookup; a partite step also reads
one part table, which its membership check returns.
A plane step builds no child index: it walks the child counts of the
preorder word, in which the moved subtree and every tree are contiguous
runs, and writes its output as runs of the input word, with one child count
changed or one unlabeled leaf added or removed, and labels 1 and k
exchanged.  Choices are counted, not looked up in a list of every target:
each vertex offers a known number of targets (one, one per child gap or one
per free color), and every family but leafplane, which ranks unlabeled
leaves in the word, counts through the same two functions: ``_choice_index``
sums the counts before the forward step's target and ``_chosen`` subtracts
them until the inverse step's choice runs out.  A plane step builds the
counts by label in one pass over the word.  The labeled moves edit the
parent map in place, and the exchange of labels 1 and k swaps two entries.
The output is built once (a plane forest's as its word, without nodes) and
not checked again (``forests._trusted``): the step has checked its input's
membership, and a step maps a member of one level to a member of the next,
which the tests check on every output of every step at n <= 5 and on drawn
forests.  Codec and sampler runs do not call these steps: :mod:`codec`
applies the same rules to one mutable forest across a run, in O(log^2 n) a
step besides the moves, with the coloring rules that both take from
:mod:`forests`.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Sequence

from .forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    RootedForest,
    _alternating_flip,
    _check_vertex,
    _child_index,
    _descends,
    _int,
    _require_colored,
    _require_partite,
    _require_plain,
    _require_plane,
    _spliced,
    _subtree,
    _subtree_end,
    _swapped,
    _transposed,
    _trusted,
    _used_colors,
    is_descendant,
)


# Every step finds its choice by counting.  ``slots[v]`` is the number of
# targets vertex v offers (one per vertex, child gap or free color) and
# ``inside[v]`` marks tree k, the side of the swap-case targets; both are
# indexed by vertex label, with the sentinel 0 offering none.


def _choice_index(
    slots: list[int], inside: bytearray, w: int, j: int, swapped: bool
) -> int:
    """The choice that makes the inverse step attach at target j (counted
    from 0) of vertex w, on the outside or, when ``swapped``, inside."""
    inner = sum(compress(slots[:w], inside))  # below w, inside tree k
    if swapped:  # after every target outside tree k
        return j + 1 + inner + sum(slots) - sum(compress(slots, inside))
    return j + 1 + sum(slots[:w]) - inner


def _chosen(
    slots: list[int], inside: bytearray, choice: int
) -> tuple[int, int, bool]:
    """The vertex and target (counted from 0) a choice names, and whether it
    takes the swap case."""
    total = sum(slots)
    outside = total - sum(compress(slots, inside))
    if not 1 <= choice <= total:
        raise ValueError(f"choice must be in 1..{total}, got {choice}")
    swap = choice > outside
    c = choice - outside if swap else choice
    for v, s in enumerate(slots):
        if inside[v] == swap:
            if c <= s:
                break
            c -= s
    return v, c - 1, swap


def _tree_k(kids: list[list[int]], k: int, swapped: bool = False) -> bytearray:
    """Marks the vertices of tree k, from the child index of a forest with
    roots 1..k.  With ``swapped``, ``kids`` indexes the input of a forward
    step that takes the swap case, whose output's tree k is the rest of tree
    1 once the subtree at k is cut, relabeled by (1 k)."""
    inside = bytearray(len(kids))
    for v in _subtree(kids, k):
        inside[v] = 1
    if swapped:  # the subtree at k lies in tree 1
        for v in _subtree(kids, 1):
            inside[v] ^= 1
        inside[1], inside[k] = inside[k], inside[1]
    return inside


# --------------------------------------------------------------------------
# Plain labeled forests
# --------------------------------------------------------------------------

def _targets(inside: bytearray, k: int, part: Sequence[int]) -> list[int]:
    """One slot per attachment target, given the marks of tree k and the
    part of each vertex (``forests._part_table``): the vertices outside tree
    k that avoid k's part and those inside it that avoid 1's.  A plain
    forest puts each vertex in a part of its own, ``range(n + 1)``, so that
    every vertex is a target."""
    avoid = (part[k], part[1])
    return [0, *map(ne, part[1:], map(avoid.__getitem__, inside[1:]))]


def _detach(
    forest: RootedForest,
    kids: list[list[int]],
    k: int,
    pivot: int,
    part: Sequence[int],
) -> tuple[RootedForest, int]:
    """The forward step of the labeled families, with its choice index;
    ``kids`` is the input's child index."""
    parents = list(forest.parents)
    w = parents[k - 1]
    parents[k - 1] = 0
    # The pivot lies in tree 1; it leaves tree 1 exactly when it sits in
    # the detached subtree.
    swapped = _descends(forest.parents, pivot, k)
    inside = _tree_k(kids, k, swapped)
    if swapped:
        parents = _transposed(parents, 1, k)
        w = _swapped(w, 1, k)
    choice = _choice_index(_targets(inside, k, part), inside, w, 0, swapped)
    return _trusted(RootedForest, (tuple(parents),)), choice


def _attach(
    forest: RootedForest,
    kids: list[list[int]],
    k: int,
    part: Sequence[int],
    choice: int,
) -> RootedForest:
    """The inverse step of the labeled families; ``kids`` is the input's
    child index."""
    inside = _tree_k(kids, k)
    u, _, swap = _chosen(_targets(inside, k, part), inside, choice)
    parents = list(forest.parents)
    parents[(1 if swap else k) - 1] = u
    if swap:
        parents = _transposed(parents, 1, k)
    return _trusted(RootedForest, (tuple(parents),))


def plain_forward(forest: RootedForest, k: int) -> tuple[RootedForest, int]:
    """Map a forest with roots 1..k-1 (and n in tree 1) to one with roots 1..k.

    Detach the subtree at vertex k; if vertex n is no longer in tree 1 it
    must now sit under k, so labels 1 and k are exchanged.  Also returns the
    canonical choice index that makes ``plain_inverse`` undo the step.
    """
    _int(k, "k")
    n = forest.n
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must satisfy 2 <= k <= n-1, got {k}")
    kids = _child_index(forest.parents)
    _require_plain(forest, kids, k - 1, n)
    return _detach(forest, kids, k, n, range(n + 1))


def plain_inverse(forest: RootedForest, k: int, choice: int) -> RootedForest:
    """Undo one detachment step, consuming one of n possible choices.

    Choices 1..n-m (m the size of tree k) reattach tree k below the chosen
    vertex outside it; the remaining m choices attach tree 1 below a vertex
    of tree k and exchange labels 1 and k.
    """
    _int(k, "k")
    _int(choice, "choice")
    n = forest.n
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must satisfy 2 <= k <= n-1, got {k}")
    kids = _child_index(forest.parents)
    _require_plain(forest, kids, k, n)
    return _attach(forest, kids, k, range(n + 1), choice)


def plain_choice_count(forest: RootedForest, k: int) -> int:
    """The plain multiplier: every one of the n vertices is a valid target."""
    _int(k, "k")
    _require_plain(forest, _child_index(forest.parents), k, forest.n)
    return forest.n


# --------------------------------------------------------------------------
# Multipartite forests (no edge inside a part)
# --------------------------------------------------------------------------

def _require_partite_k(k: int, parts: PartAssignment) -> None:
    """The range of a partite step's k: the new root lies in part 1."""
    if not 2 <= k <= parts.sizes[0]:
        raise ValueError(
            f"k must satisfy 2 <= k <= |part 1| = {parts.sizes[0]}, got {k}"
        )


def partite_forward(
    forest: RootedForest, k: int, parts: PartAssignment
) -> tuple[RootedForest, int]:
    """Detachment step restricted to cross-part edges.

    The pivot vertex is the smallest label of part 2.  Attachment targets
    are restricted to vertices in a different part from the attached root,
    which is what makes the multiplier the size of the complement of part 1.
    """
    _int(k, "k")
    _require_partite_k(k, parts)
    kids = _child_index(forest.parents)
    part = _require_partite(forest, kids, k - 1, parts)
    return _detach(forest, kids, k, parts.sizes[0] + 1, part)


def partite_inverse(
    forest: RootedForest, k: int, parts: PartAssignment, choice: int
) -> RootedForest:
    _int(k, "k")
    _int(choice, "choice")
    _require_partite_k(k, parts)
    kids = _child_index(forest.parents)
    part = _require_partite(forest, kids, k, parts)
    return _attach(forest, kids, k, part, choice)


def partite_choice_count(
    forest: RootedForest, k: int, parts: PartAssignment
) -> int:
    _int(k, "k")
    kids = _child_index(forest.parents)
    part = _require_partite(forest, kids, k, parts)
    return sum(_targets(_tree_k(kids, k), k, part))


def reroot_tree(forest: RootedForest, v: int) -> RootedForest:
    """Re-root the tree containing v at v by reversing the path to its root."""
    _check_vertex(forest, v)
    path = [v]
    while forest.parents[path[-1] - 1] != 0:
        path.append(forest.parents[path[-1] - 1])
    parents = list(forest.parents)
    parents[v - 1] = 0
    for child, par in zip(path, path[1:]):
        parents[par - 1] = child
    return _trusted(RootedForest, (tuple(parents),))


def reroot_switch(forest: RootedForest) -> RootedForest:
    """Move the root of the tree containing vertices 1 and r+1 from 1 to r+1.

    The input has roots 1..r with r+1 in tree 1; the output has roots
    2..r+1 with 1 in the tree rooted at r+1.  Vertex and edge sets are
    untouched, only parent pointers along the path between 1 and r+1 flip.
    """
    r = forest.root_count
    if not forest.has_standard_roots(r):
        raise ValueError("roots must be exactly 1..r")
    if r + 1 > forest.n:
        raise ValueError("vertex r+1 does not exist")
    if not is_descendant(forest, r + 1, 1):
        raise ValueError(f"vertex {r + 1} must lie in the tree rooted at 1")
    return reroot_tree(forest, r + 1)


# --------------------------------------------------------------------------
# Fully labeled plane forests
# --------------------------------------------------------------------------
#
# The plane steps edit the preorder word.  A subtree is a contiguous run of
# it and a tree a run starting at a root, so a step cuts the word at a few
# positions and writes the runs out in a new order, with one child count
# changed or an unlabeled leaf added or removed, and labels 1 and k
# exchanged when the move takes the swap case.


def _parent_gap(degrees: Sequence[int], i: int) -> tuple[int, int]:
    """The position of the parent of the non-root vertex at position i, and
    the child gap i sits in, counted from 0, walking the word backwards."""
    items = 1  # whole subtrees from position j+1 on, up to i's
    j = i - 1
    while degrees[j] < items:  # j's children end before i
        items -= degrees[j] - 1
        j -= 1
    return j, items - 1


def _gap_slots(pf: PlaneForest, cut: int) -> tuple[list[int], bytearray]:
    """``slots`` and ``inside`` of a plane forest with roots 1..k whose tree
    k starts at position ``cut`` of the word: a vertex of degree d offers d+1
    child gaps."""
    labels = pf.preorder_labels
    slots, inside = [0] * (len(labels) + 1), bytearray(len(labels) + 1)
    for x, d in zip(labels, pf.preorder_degrees):
        slots[x] = d + 1
    for x in labels[cut:]:
        inside[x] = 1
    return slots, inside

def _detached(
    word: tuple[list, list], k: int, starts: list, i: int, e: int, swapped: bool
) -> PlaneForest:
    """A forward step's result, from the word of its input as two lists and
    the input's tree starts: the subtree at positions i..e-1 becomes tree k
    and leaves in its place what the lists hold past the input (an
    unlabeled leaf, or nothing).  With ``swapped`` labels 1 and k, two
    roots, are exchanged in the lists: the subtree becomes tree 1 and the
    rest of tree 1 tree k."""
    e1, n, end = starts[1], starts[-1], len(word[0])
    if swapped:
        word[0][0], word[0][i] = k, 1
        runs = ((i, e), (e1, n), (0, i), (n, end), (e, e1))
    else:
        runs = ((0, i), (n, end), (e, n), (i, e))
    return _trusted(PlaneForest, _spliced(word, runs))


def _attached(
    word: tuple[list, list], k: int, starts: list, at: int, after: int, swap: bool
) -> PlaneForest:
    """An inverse step's result, from the word of its input as two lists and
    the input's tree starts: tree k, the last, goes in at position ``at`` in
    place of positions at..after-1 (an unlabeled leaf, or nothing).  With
    ``swap`` tree 1 goes in instead, and labels 1 and k are exchanged."""
    cut, e1, n = starts[-2], starts[1], starts[-1]
    if swap:
        word[0][0], word[0][cut] = k, 1
        runs = ((cut, at), (0, e1), (after, n), (e1, cut))
    else:
        runs = ((0, at), (cut, n), (after, cut))
    return _trusted(PlaneForest, _spliced(word, runs))


def plane_forward(pf: PlaneForest, k: int) -> tuple[PlaneForest, int]:
    """Detach the subtree at vertex k from a plane forest, keeping gaps.

    Attachment positions are (vertex, gap) pairs, so a vertex of degree d
    offers d+1 slots; over the whole target forest that is 2n-k slots.
    """
    _int(k, "k")
    labels, degrees = pf.preorder_labels, pf.preorder_degrees
    n = len(labels)
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must satisfy 2 <= k <= n-1, got {k}")
    starts = _require_plane(pf, k - 1)[1]
    i = labels.index(k)
    e = _subtree_end(degrees, i)
    w, gap = _parent_gap(degrees, i)
    word = (list(labels), list(degrees))
    word[1][w] -= 1
    # Vertex n lies in tree 1; it leaves tree 1 exactly when it sits in the
    # detached subtree.
    swapped = i <= labels.index(n) < e
    g = _detached(word, k, starts, i, e, swapped)
    # w's label in g is word[0][w], and i sat in its gap ``gap``.
    slots, inside = _gap_slots(g, g.preorder_labels.index(k))
    return g, _choice_index(slots, inside, word[0][w], gap, swapped)


def plane_inverse(pf: PlaneForest, k: int, choice: int) -> PlaneForest:
    _int(k, "k")
    _int(choice, "choice")
    labels, degrees = pf.preorder_labels, pf.preorder_degrees
    n = len(labels)
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must satisfy 2 <= k <= n-1, got {k}")
    starts = _require_plane(pf, k)[1]
    # Tree k is the last.  The target vertex never lies in the moved tree:
    # outside slots avoid tree k, inside slots avoid tree 1.
    v, j, swap = _chosen(*_gap_slots(pf, starts[-2]), choice)
    p = labels.index(v)
    at = p + 1  # where gap j of v opens
    for _ in range(j):
        at = _subtree_end(degrees, at)
    word = (list(labels), list(degrees))
    word[1][p] += 1
    return _attached(word, k, starts, at, at, swap)


def plane_choice_count(pf: PlaneForest, k: int) -> int:
    """The plane multiplier 2n-k: one slot per (vertex, child gap) pair."""
    _int(k, "k")
    return 2 * _require_plane(pf, k)[0] - k


# --------------------------------------------------------------------------
# Leaf-unlabeled plane forests
# --------------------------------------------------------------------------


def leafplane_forward(pf: PlaneForest, r: int) -> tuple[PlaneForest, int]:
    """Detach the subtree at internal vertex r, leaving an unlabeled leaf.

    The hole left behind is a fresh leaf, so the result has one more vertex
    and one more leaf than the input.  The choice index is the preorder rank
    of that hole among the unlabeled leaves of the result.
    """
    _int(r, "r")
    labels, degrees = pf.preorder_labels, pf.preorder_degrees
    m, starts = _require_plane(pf, r - 1, leafy=True)
    if not 2 <= r <= m - 1:
        raise ValueError(f"r must satisfy 2 <= r <= {m - 1}")
    i = labels.index(r)
    e = _subtree_end(degrees, i)
    # The hole's rank counts every leaf of the result but those after it.
    # Without a swap the hole takes the place of the subtree at r, which
    # moves to the end, so the leaves from position i on follow it.  With
    # one the result lists the subtree first, then trees 2..r-1, then tree
    # r: the rest of tree 1, whose leaves after the subtree come last.
    swapped = i <= labels.index(m) < e
    after = labels[e : starts[1]] if swapped else labels[i:]
    hole = (list(labels) + [0], list(degrees) + [0])  # a fresh leaf past the word
    g = _detached(hole, r, starts, i, e, swapped)
    return g, labels.count(0) - after.count(0) + 1


def leafplane_inverse(pf: PlaneForest, r: int, choice: int) -> PlaneForest:
    """Replace the chosen unlabeled leaf by tree r (or tree 1 plus a swap)."""
    _int(r, "r")
    _int(choice, "choice")
    labels = pf.preorder_labels
    m, starts = _require_plane(pf, r, leafy=True)
    if not 2 <= r <= m - 1:
        raise ValueError(f"r must satisfy 2 <= r <= {m - 1}")
    leaves = len(labels) - m
    if not 1 <= choice <= leaves:
        raise ValueError(f"choice must be in 1..{leaves}, got {choice}")
    leaf = -1
    for _ in range(choice):
        leaf = labels.index(0, leaf + 1)
    # The leaves of tree r, the last tree, come last: choosing one of them
    # takes the swap case.
    word = (list(labels), list(pf.preorder_degrees))
    return _attached(word, r, starts, leaf, leaf + 1, leaf >= starts[-2])


def leafplane_choice_count(pf: PlaneForest, r: int) -> int:
    """One choice per unlabeled leaf of the forest with r roots."""
    _int(r, "r")
    _require_plane(pf, r, leafy=True)
    return pf.preorder_labels.count(0)


# --------------------------------------------------------------------------
# Special edge-colored forests
# --------------------------------------------------------------------------

def _free_counts(kids: list[list[int]], kc: int) -> list[int]:
    """The number of (vertex, color) attachment pairs at each vertex of a
    special forest with roots 1..r, which are the colors free there.

    A vertex's incident colors are distinct.  A non-root excludes its own
    edge's color and its children's from kc colors, and a root, whose child
    edges avoid the last color, excludes its children's from the first
    kc-1: either way kc-1 less the number of children.
    """
    slots = [kc - 1 - len(below) for below in kids]
    slots[0] = 0
    return slots


def _colored_value(
    parents: list[int], kc: int, colors: list[int]
) -> EdgeColoredForest:
    """A colored step's output, unchecked like every step's: its base too."""
    base = _trusted(RootedForest, (tuple(parents),))
    return _trusted(EdgeColoredForest, (base, kc, tuple(colors)))


def colored_forward(
    ef: EdgeColoredForest, r: int
) -> tuple[EdgeColoredForest, int]:
    """Detach the subtree at r from a special colored forest.

    The edge into r had some color x; after the cut, the at-most-one edge
    out of r colored with the last color is recolored x so the new tree is
    special again.  The recorded choice remembers both the attachment vertex
    and x.
    """
    _int(r, "r")
    n, kc = ef.n, ef.color_count
    if not 2 <= r <= n - 1:
        raise ValueError(f"r must satisfy 2 <= r <= n-1, got {r}")
    kids = _child_index(ef.base.parents)
    _require_colored(ef, kids, r - 1)
    parents, colors = list(ef.base.parents), list(ef.colors)
    x, w = colors[r - 1], parents[r - 1]
    parents[r - 1] = colors[r - 1] = 0
    # The new tree at r must avoid the last color on its root edges; trade
    # it for x, the color freed by the cut, cascading down the subtree.
    _alternating_flip(kids, colors, r, kc, x)
    # x is free at w once the edge into r is gone; the choice names it by
    # its rank among w's free colors.
    used = _used_colors(colors, [u for u in kids[w] if u != r], w)
    j = sum(1 for y in range(1, x) if y not in used)
    slots = _free_counts(kids, kc)
    slots[w] += 1
    # Vertex n leaves tree 1 exactly when it sits in the detached subtree;
    # then labels 1 and r are exchanged.
    swapped = _descends(ef.base.parents, n, r)
    inside = _tree_k(kids, r, swapped)
    if swapped:
        parents = _transposed(parents, 1, r)
        colors[0], colors[r - 1] = colors[r - 1], colors[0]
        slots[1], slots[r] = slots[r], slots[1]
        w = _swapped(w, 1, r)
    out = _colored_value(parents, kc, colors)
    return out, _choice_index(slots, inside, w, j, swapped)


def colored_inverse(
    ef: EdgeColoredForest, r: int, choice: int
) -> EdgeColoredForest:
    """Reattach tree r (or tree 1 plus a swap) with a chosen edge color.

    If the chosen color collides with an edge out of the attached root, that
    edge is recolored with the last color, undoing the forward recoloring.
    """
    _int(r, "r")
    _int(choice, "choice")
    n, kc = ef.n, ef.color_count
    if not 2 <= r <= n - 1:
        raise ValueError(f"r must satisfy 2 <= r <= n-1, got {r}")
    kids = _child_index(ef.base.parents)
    _require_colored(ef, kids, r)
    v, j, swap = _chosen(_free_counts(kids, kc), _tree_k(kids, r), choice)
    # A root may offer only the first kc-1 colors (the result tree must
    # stay special there).
    used = _used_colors(ef.colors, kids[v], v)
    y = [c for c in range(1, kc if v <= r else kc + 1) if c not in used][j]
    moved = 1 if swap else r
    parents, colors = list(ef.base.parents), list(ef.colors)
    parents[moved - 1] = v
    colors[moved - 1] = y
    # Undo the forward exchange: push y back out for the last color along
    # the alternating path below the attached root, whose children the
    # index still lists.
    _alternating_flip(kids, colors, moved, y, kc)
    if swap:
        parents = _transposed(parents, 1, r)
        colors[0], colors[r - 1] = colors[r - 1], colors[0]
    return _colored_value(parents, kc, colors)


def colored_choice_count(ef: EdgeColoredForest, r: int) -> int:
    """The colored multiplier kc*n - 2n + r."""
    _int(r, "r")
    _require_colored(ef, _child_index(ef.base.parents), r)
    return ef.color_count * ef.n - 2 * ef.n + r
