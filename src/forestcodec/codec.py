"""Choice-sequence codecs and exactly uniform random generation.

Iterating a family's forward step from one root up to the maximal-root
state records one choice index per step; the resulting sequence is a
Prufer-like code.  Conversely, decoding any sequence of in-range choices
from the maximal-root state yields a distinct family member, and the trace
space size equals the family's closed-form count.  Drawing every choice
uniformly therefore samples the family exactly uniformly.

The three codec families share this code, and ``encode`` infers the family
from the value's type.  Each family's choice counts come from its
recurrence multiplier in ``trace_bounds``.

Cost model: a run takes n-2 steps, and one run engine serves ``decode``,
``encode`` and ``sample_uniform`` for all three families.  It keeps one
mutable forest across the steps, as plain lists by vertex id (see
``_run``), and applies the rules of the :mod:`bijections` steps to it in
place; the one value a run returns is built once, by ``_value``, and not
checked again (see below).  Each pass over the steps is one loop over k,
which does the target search, the move and the join inline: the inverse
steps of ``decode`` and ``sample_uniform`` and ``encode``'s replay in
``_run``, and ``encode``'s forward steps in ``encode``.  A run keeps only
the state it reads: each tree's sorted labels, and each vertex's tree by
id, which a join of two trees writes for the labels it moves (labels
differ from ids only inside tree 1); plane adds ordered child lists and
colored adds child lists and colors, and both add each tree's sorted
parent labels and a Fenwick tree of degrees by label.  A choice is found
by binary search on those lists or one walk down the Fenwick tree, which
searches tree k's lists only on the levels whose node meets tree k's
labels k..max(tree k), so a run makes O(n log^2 n) comparisons, besides
the list edits of wide forests (up to O(n) words a step) and the
recoloring walks of a colored run (see ``_run``).
``encode``'s replay of its forward steps only counts, so it moves no
vertex.  A plane run reads its input's preorder word into parents and
ordered child lists by label in one pass and writes its result's word in
one preorder walk.

The codec is layered on :mod:`forests` alone and never loads
:mod:`bijections`: the membership checks and the coloring rules that the
steps and the run engine share live in :mod:`forests`.  ``encode`` checks
its input in ``_load`` with the first forward step's membership check, so
it raises what that step raises; every member it passes reaches the base
state, so it makes no second base-state check.  The steps stay the
definition: the tests run them one by one as the reference the engine must
match.

A run's result is built with ``forests._trusted``, unchecked, as the
steps build theirs, since every run starts from checked input and in-range
choices: ``decode`` takes only a ``ChoiceTrace``, whose constructor checks
each choice against its bound; ``sample_uniform`` checks each draw of an
rng other than ``SplitMix64``; ``encode`` checks its input's membership
and, with ``_check_codec``, its parameters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import prod

from .forests import (
    EdgeColoredForest,
    PlaneForest,
    RootedForest,
    _INTEGER,
    _Value,
    _alternating_flip,
    _child_index,
    _int,
    _preorder,
    _preorder_parents,
    _rebuilt,
    _set,
    _require_colored,
    _require_ints,
    _require_plain,
    _require_plane,
    _trusted,
    _used_colors,
)

CODEC_FAMILIES = ("plain", "plane", "colored")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: a published, fixed 64-bit algorithm.

    Pure integer arithmetic, so identical seeds give identical streams on
    every platform.  The seed is taken mod 2^64, so seeds that differ by a
    multiple of 2^64 give the same stream.  Range reduction uses rejection
    to avoid modulo bias.
    """

    def __init__(self, seed: int) -> None:
        _int(seed, "seed")
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4B7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in 0..bound-1, by rejection."""
        _int(bound, "bound")
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


class ChoiceTrace(_Value):
    """The choice sequence reconstructing a one-root forest.

    ``choices`` holds (c_{n-1}, ..., c_2) in decode order: c_k is consumed
    by the inverse step from k roots down to k-1.  Colored traces carry one
    extra leading entry, the color (1..kc-1) of the edge into vertex n in
    the maximal-root state.
    """

    __slots__ = ("family", "n", "colors", "choices")

    def __new__(cls, family: str, n: int, colors: int = 0, choices: tuple = ()):
        return _rebuilt(cls, (family, n, colors, choices))

    def __post_init__(self) -> None:
        _set(self, "choices", tuple(self.choices))
        _require_ints((self.n, self.colors, *self.choices), "n, colors and choices")
        _check_codec(self.family, self.n, self.colors)
        # Count before listing the bounds: n may come from outside and be
        # far too large to list.
        want = max(self.n - 2, 0) + _has_head(self.family, self.n)
        if len(self.choices) != want:
            raise ValueError(f"expected {want} choices, got {len(self.choices)}")
        bounds = trace_bounds(self.family, self.n, self.colors)
        for c, bound in zip(self.choices, bounds):
            if not 1 <= c <= bound:
                raise ValueError(f"choice {c} out of range 1..{bound}")


def trace_bounds(family: str, n: int, colors: int = 0) -> tuple[int, ...]:
    """Upper bound of each trace position, aligned with ChoiceTrace.choices."""
    _check_codec(family, n, colors)
    # The inverse step from k roots has one choice per attachment target:
    # a*n + b*(n-k) of them, as the degrees of the n vertices sum to the n-k
    # edges.  This is the family's recurrence multiplier.
    a, b = _targets(family, colors)
    head = (colors - 1,) if _has_head(family, n) else ()
    return head + tuple(a * n + b * (n - k) for k in range(n - 1, 1, -1))


def _check_codec(family: str, n: int, colors: int) -> None:
    """Raises ValueError unless a codec family has traces at n with this
    many colors: the one check of a trace's, a sample's and the bounds'
    parameters."""
    if family not in CODEC_FAMILIES:
        raise ValueError(f"no codec for family {family!r}")
    _require_ints((n, colors), "n and colors")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if family != "colored" and colors:
        raise ValueError(f"{family} forests take no colors, got {colors}")
    if _has_head(family, n) and colors < 2:
        raise ValueError("colored traces need at least two colors")
    if family == "colored" and colors < 1:  # n = 1, where counting needs one
        raise ValueError(f"colored traces need at least one color, got {colors}")


def _has_head(family: str, n: int) -> bool:
    """True iff the family's traces at n open with the base color: the
    color of the edge into n in the maximal-root state."""
    return family == "colored" and n > 1


def _targets(family: str, colors: int) -> tuple[int, int]:
    """(a, b): a vertex of degree deg offers a + b*deg attachment targets."""
    return {"plain": (1, 0), "plane": (1, 1), "colored": (colors - 1, -1)}[family]


def trace_space_size(family: str, n: int, colors: int = 0) -> int:
    """Number of traces, equal to the one-root family's closed-form count."""
    return prod(trace_bounds(family, n, colors))


def _split_head(family: str, n: int, choices: tuple[int, ...]):
    """The base color a colored trace opens with (0 otherwise), and the
    choices of the inverse steps."""
    if _has_head(family, n):
        return choices[0], choices[1:]
    return 0, choices


def _family_of(forest) -> tuple[str, int, int]:
    """The codec family of a value, its vertex count and its color count."""
    family = _FAMILIES.get(type(forest))
    if family is None:
        raise TypeError(f"cannot encode {type(forest).__name__}")
    n = forest.n_vertices if family == "plane" else forest.n
    colors = forest.color_count if family == "colored" else 0
    return family, n, colors


_FAMILIES = {
    RootedForest: "plain",
    PlaneForest: "plane",
    EdgeColoredForest: "colored",
}


# --------------------------------------------------------------------------
# The run engine: one mutable forest across all the steps of a run
# --------------------------------------------------------------------------


def _load(forest):
    """A forest ready for forward steps, as its family, n and colors, its
    ``parent``, ``kids`` and ``color`` lists by id (see ``_run``), and the
    set of the k whose step exchanges labels 1 and k.  Raises what the first
    forward step raises unless it is a one-root family member with vertex n
    in tree 1, so every later step's check would pass and the forward steps
    end at the base state; ``encode`` checks its input here only."""
    family, n, colors = _family_of(forest)
    color = [0] * n
    if family == "plane":
        _require_plane(forest, 1)
        labels = forest.preorder_labels
        # A vertex's id is its label; ids[p] is the id at position p.
        ids, parent, kids = (0, *labels), [0] * n, [[] for _ in range(n + 1)]
        for x, p in zip(labels, _preorder_parents(forest.preorder_degrees)):
            parent[x - 1] = ids[p]
            kids[ids[p]].append(x)
    elif family == "plain":
        _require_plain(forest, _child_index(forest.parents), 1, n)
        parent, kids = list(forest.parents), None
    else:
        kids = _child_index(forest.base.parents)
        _require_colored(forest, kids, 1)
        parent, color = list(forest.base.parents), list(forest.colors)
    # The step at k cuts id k (label k is not exchanged before it), and
    # steps only cut, so vertex n leaves tree 1 at the step at k exactly
    # when k lies on n's root path and no id between n and k is smaller.
    swaps, low, v = set(), n, n
    while v:
        if v < low:
            swaps.add(v)
            low = v
        v = parent[v - 1]
    return family, n, colors, parent, kids, color, swaps


def _exchange(label: list[int], vid: list[int], a: int, b: int) -> None:
    """Exchange labels a and b."""
    ia, ib = vid[a], vid[b]
    vid[a], vid[b], label[ia], label[ib] = ib, ia, b, a


def _value(family, colors, label, vid, parent, kids, color):
    """The forest of a run's lists as a value, built once, without a check:
    a run of in-range choices ends at a family member."""
    n = len(parent)
    if family == "plane":  # the roots by ascending label, in preorder
        roots = [u for u in vid[1:] if not parent[u - 1]]
        word = _preorder(roots, kids.__getitem__, label.__getitem__)
        return _trusted(PlaneForest, word)
    parents = [0] * n
    for u in range(1, n + 1):
        parents[label[u] - 1] = label[parent[u - 1]]
    forest = _trusted(RootedForest, (tuple(parents),))
    if family == "plain":
        return forest
    by_label = [0] * n
    for u in range(1, n + 1):
        by_label[label[u] - 1] = color[u - 1]
    return _trusted(EdgeColoredForest, (forest, colors, tuple(by_label)))


def _run(family: str, n: int, colors: int, choices: tuple[int, ...], cuts=None):
    """The inverse steps k = n-1, n-2, ..., 2 from the maximal-root state,
    one per choice, in one loop.  Returns the run's lists ``(label, vid,
    parent, kids, color)``, which ``_value`` takes, and the choices a replay
    counts.

    A run edits one forest in place, in lists by vertex id.  Vertices keep
    the id they start with, their first label; ``label`` and ``vid`` map
    ids to labels and back, so ``_exchange`` of two labels costs O(1).
    ``parent`` and ``color`` are indexed by id - 1 (0 marks a root), and
    ``kids[id]`` lists a vertex's child ids, in plane order for plane
    forests.  Plain keeps no child lists: its moves set parents only, and
    its forward steps (in ``encode``) name gap 0.

    Step k finds tree k and the targets outside it, finds the target its
    choice names, hangs tree k below it (or, in the swap case, tree 1 below
    a target in tree k), joins the two trees and, in the swap case,
    exchanges labels 1 and k.  A vertex of degree deg offers ``a + b*deg``
    targets (one vertex, deg+1 gaps, or kc-1-deg free colors), and the run
    keeps what counting them needs, since inverse steps only ever join
    trees: for each tree but tree 1 the sorted list ``S`` of its labels,
    joined small into large, and ``tree``, each vertex's tree by id (1 for
    tree 1), which a join writes for each label it moves.  Labels differ
    from ids only inside tree 1: only labels 1 and k are ever exchanged, at
    step k, once tree k has joined tree 1.  So the labels in ``S`` are ids,
    label k is id k at step k, and tree k is ``tree[k]``.  Plane and
    colored (b != 0) also keep, per tree, the sorted list ``P`` of its
    vertices' parent labels (one entry per child), and a Fenwick tree
    ``fen`` of the degrees by label; plain (b = 0) counts by label alone
    and keeps neither.  Tree k's least label is k, as labels 1..k-1 are the
    other roots, so a choice is found by one walk down the Fenwick tree
    less tree k's entries, or by binary search on tree k's labels, in
    O(log^2 n).  Tree k's labels and parent labels lie in k..max(tree k),
    so the walk searches ``S`` and ``P`` only on the levels whose node
    meets that range: when tree k is the single vertex k, only on the nodes
    that hold k.

    A forward step cuts a tree apart, which the lists cannot follow, so
    ``encode`` runs its forward steps without counting and replays their
    record here, as ``cuts`` from the last: each step then counts the
    choice that names its record's target instead, and moves no vertex.
    ``choices`` is then only a colored trace's head, the base color.
    """
    base_color, choices = _split_head(family, n, choices)
    a, b = _targets(family, colors)
    # The maximal-root state: labels 1..n-1 are roots, n hangs below 1.
    label, vid = list(range(n + 1)), list(range(n + 1))  # the sentinel 0 stays fixed
    parent, color = [0] * n, [0] * n
    kids = [[] for _ in range(n + 1)] if b else None
    tree = list(range(n + 1))
    S = [None, None] + [[v] for v in range(2, n + 1)]  # none for 0 and tree 1
    P = [None, None] + [[] for _ in range(2, n + 1)] if b else None
    fen = [0] * (n + 1) if b else None
    if n > 1:
        parent[n - 1] = tree[n] = 1
        color[n - 1] = base_color
        S[n] = None
        if b:
            kids[1].append(n)
            x = 1
            while x <= n:  # degree 1 at label 1
                fen[x] += 1
                x += x & -x
    plane, colored, replay = family == "plane", family == "colored", cuts is not None
    top = 1 << (n.bit_length() - 1)  # the first step down the Fenwick tree
    chosen = []
    for k, c in zip(range(n - 1, 1, -1), cuts if replay else choices):
        t = tree[k]  # label k is still id k
        Sk = S[t]
        Pk = P[t] if b else ()
        # k roots: the degrees sum to the n-k edges, and tree k's to its
        # size-1 edges.
        size = len(Sk)
        outside = a * (n - size) + b * (n - k - size + 1)
        if replay:
            w, j, swap = c
            c = a * bisect_left(Sk, w) + b * bisect_left(Pk, w)
            if swap:  # tree k's targets below w follow all outside it
                c += outside
            else:  # the targets below w, less tree k's
                c, x = a * (w - 1) - c, w - 1
                if b:
                    while x:
                        c += b * fen[x]
                        x &= x - 1
            chosen.append(c + j + 1)
        elif c > outside:
            # The least label Sk[i] of tree k with c - outside targets up to
            # it: a*(i+1) + b*#(Pk <= Sk[i]) of them.
            c, i, hi, swap = c - outside, 0, size - 1, True
            while i < hi:
                mid = (i + hi) // 2
                if a * (mid + 1) + b * bisect_right(Pk, Sk[mid]) < c:
                    i = mid + 1
                else:
                    hi = mid
            w = Sk[i]
            j = c - 1 - a * i - b * bisect_left(Pk, w)
        elif not b:
            # Plain: the c-th label outside tree k is c+i, with i the labels
            # of tree k below it.
            i, hi = 0, size
            while i < hi:
                mid = (i + hi) // 2
                if Sk[mid] - mid <= c:
                    i = mid + 1
                else:
                    hi = mid
            w, j, swap = c + i, 0, False
        else:
            # Walk down the Fenwick tree, less tree k's labels and children:
            # node y holds labels x+1..y, and si and pi count the entries of
            # Sk and Pk at labels up to x, the labels passed.  Tree k's
            # labels and parent labels lie in k..last, so only the nodes
            # that meet that range search them.
            x, step, si, pi, last, swap = 0, top, 0, 0, Sk[-1], False
            while step:
                y = x + step
                if y <= n:
                    wy = a * step + b * fen[y]
                    if y < k or x >= last:
                        if wy < c:
                            x, c = y, c - wy
                    else:
                        sj = bisect_right(Sk, y, si)
                        pj = bisect_right(Pk, y, pi)
                        wy -= a * (sj - si) + b * (pj - pi)
                        if wy < c:
                            x, c, si, pi = y, c - wy, sj, pj
                step >>= 1
            w, j = x + 1, c - 1
        if not replay:  # hang the moved tree's root below w
            moved, v = vid[1] if swap else vid[k], vid[w]
            parent[moved - 1] = v
            if plane:
                kids[v].insert(j, moved)
            elif colored:
                # The (j+1)-th color free at v.  j is below the kc-1-deg
                # colors v offers, so y is at most kc, and at most kc-1 at a
                # root.
                used = _used_colors(color, kids[v], v)
                y, free = 0, j + 1
                while free:
                    y += 1
                    if y not in used:
                        free -= 1
                # Push y back out for the last color below the moved root.
                _alternating_flip(kids, color, moved, y, colors)
                kids[v].append(moved)
                color[moved - 1] = y
        # Join the trees: w's degree rises, and tree 1 takes the other in,
        # or the smaller tree's lists go into the larger's.  The labels in
        # ``S`` are ids, so each label moved indexes ``tree`` as it is.
        if b:
            x = w
            while x <= n:
                fen[x] += 1
                x += x & -x
        u = 1 if swap else tree[vid[w]]
        if u == 1:  # tree 1's lists are never read: a step counts in tree k
            for x in Sk:
                tree[x] = 1
            S[t] = None
            if b:
                P[t] = None
        else:
            if len(S[u]) < size:
                t, u = u, t
            for x in S[t]:
                insort(S[u], x)
                tree[x] = u
            S[t] = None
            if b:
                for x in P[t]:
                    insort(P[u], x)
                insort(P[u], w)
                P[t] = None
        if swap:  # exchange labels 1 and k, and their degrees
            if b:
                d1, dk, x = fen[1], fen[k], k - 1
                while x > k - (k & -k):  # node k less the nodes below it
                    dk -= fen[x]
                    x &= x - 1
                for x, d in ((1, dk - d1), (k, d1 - dk)):
                    while x <= n:
                        fen[x] += d
                        x += x & -x
            _exchange(label, vid, 1, k)
    return (label, vid, parent, kids, color), chosen


def decode(trace: ChoiceTrace):
    """Run the inverse steps k = n-1, ..., 2 from the maximal-root state.

    Only a ``ChoiceTrace`` is taken: its constructor has checked every
    choice against its bound, so the result is a family member and is not
    checked again.
    """
    if type(trace) is not ChoiceTrace:
        raise TypeError(f"cannot decode {type(trace).__name__}")
    family, colors = trace.family, trace.colors
    return _value(family, colors, *_run(family, trace.n, colors, trace.choices)[0])


def encode(forest) -> ChoiceTrace:
    """Run the forward steps k = 2, ..., n-1 and record their choices.

    The input must be a one-root family member (root 1); the family is
    inferred from the value's type.  ``decode(encode(f)) == f``.
    """
    family, n, colors, parent, kids, color, swaps = _load(forest)
    _check_codec(family, n, colors)
    label, vid, cuts = list(range(n + 1)), list(range(n + 1)), []
    # The forward step at k cuts the subtree at label k and, if vertex n
    # leaves tree 1, exchanges labels 1 and k.  It records what the inverse
    # step at k takes to undo it: the old parent's label, the gap or
    # free-color rank, and the swap flag, all in the labels of the result.
    for k in range(2, n):
        u = vid[k]
        v = parent[u - 1]
        parent[u - 1] = j = 0  # plain has one gap and keeps no child lists
        if kids is not None:
            below = kids[v]
            j = below.index(u)
            del below[j]
            if colors:  # colored
                x, color[u - 1] = color[u - 1], 0
                # The new root's edges avoid the last color: trade it for x.
                _alternating_flip(kids, color, u, colors, x)
                j = x - 1 - sum(1 for y in _used_colors(color, below, v) if 0 < y < x)
        swap = k in swaps  # vertex n leaves tree 1
        if swap:
            _exchange(label, vid, 1, k)
        cuts.append((label[v], j, swap))
    head = (color[vid[n] - 1],) if _has_head(family, n) else ()
    chosen = _run(family, n, colors, head, reversed(cuts))[1]
    return _trusted(ChoiceTrace, (family, n, colors, head + tuple(chosen)))


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
        n, colors = _integer(fields[1]), _integer(fields[2])
    else:
        if len(fields) != 2:
            raise ValueError(f"expected '{family} n : ...'")
        n, colors = _integer(fields[1]), 0
    choices = tuple(map(_integer, body.split()))
    return ChoiceTrace(family, n, colors, choices)


def _integer(tok: str) -> int:
    """``int(tok)``, for the ASCII integers of the text formats only."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(tok)


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

    ``rng`` may be any object whose ``below(bound)`` draws from 0..bound-1.
    Every draw is made before the run, and unless ``rng`` is a
    ``SplitMix64``, whose draws are in range by construction, each is
    checked then: an int in range, or ValueError.  So the result, built
    from checked parameters and in-range choices, is not checked again.
    """
    if family not in CODEC_FAMILIES:
        raise ValueError(f"no sampler for family {family!r}")
    bounds = trace_bounds(family, n, colors)
    _int(roots, "roots")
    if not 1 <= roots <= max(n - 1, 1):
        raise ValueError(f"root count {roots} out of range")
    if rng is None:
        rng = SplitMix64(seed)
    # Only the inverse steps from n-1 roots down to `roots` roots are run,
    # so the last roots-1 positions of the trace are never drawn.  An
    # unconditioned sample then draws the root that takes label 1.
    drawn = bounds[: len(bounds) - roots + 1]
    relabel = not conditioned and roots > 1
    if relabel:
        drawn += (roots,)
    below = rng.below
    draws = [below(b) for b in drawn]
    if type(rng) is not SplitMix64:
        for d, b in zip(draws, drawn):
            _int(d, "draw")
            if not 0 <= d < b:
                raise ValueError(f"draw {d} out of range 0..{b - 1}")
    choices = [d + 1 for d in draws]
    pivot = choices.pop() if relabel else 1
    label, vid, parent, kids, color = _run(family, n, colors, tuple(choices))[0]
    if relabel:
        _exchange(label, vid, 1, pivot)
    return _value(family, colors, label, vid, parent, kids, color)
