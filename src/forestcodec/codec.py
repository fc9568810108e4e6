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

Cost model: a run takes n-2 steps, and one run engine (``_Run``) serves
``decode``, ``encode`` and ``sample_uniform`` for all three families.  It
keeps one mutable forest across the steps, applies the rules of the
:mod:`bijections` steps to it in place, and counts choices with prefix sums
over labels, so a run costs O(n log^2 n) besides the recoloring walks of
a colored run (see ``_Run``); the one value a run returns is built, and
validated, once.  A run keeps only the state it reads: plain keeps parents
and counts by label alone, plane adds ordered child lists and colored adds
child lists and colors, and both add the parent labels and degrees their
counts weigh.  ``encode``'s replay of its forward steps only counts, so it
moves no vertex.  A plane run reads its input's preorder word into parents
and ordered child lists by label in one pass and writes its result's word
in one preorder walk.

The public steps are not called, and this module does not load
:mod:`bijections`: the coloring rules the colored steps and the engine
share live in :mod:`forests`, and only ``encode`` loads the step module,
for the first forward step's membership checks.  The steps stay the
definition: the tests run them one by one as the reference the engine must
match.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from math import prod

from .forests import (
    EdgeColoredForest,
    PlaneForest,
    RootedForest,
    _alternating_flip,
    _child_index,
    _plane_word,
    _preorder,
    _preorder_parents,
    _used_colors,
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
        if _has_head(self.family, self.n) and self.colors < 2:
            raise ValueError("colored traces need at least two colors")
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
    if family not in CODEC_FAMILIES:
        raise ValueError(f"no codec for family {family!r}")
    if family != "colored" and colors:
        raise ValueError(f"{family} forests take no colors, got {colors}")
    # The inverse step from k roots has one choice per attachment target:
    # a*n + b*(n-k) of them, as the degrees of the n vertices sum to the n-k
    # edges.  This is the family's recurrence multiplier.
    a, b = _targets(family, colors)
    head = (colors - 1,) if _has_head(family, n) else ()
    return head + tuple(a * n + b * (n - k) for k in range(n - 1, 1, -1))


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


class _Run:
    """A forest under a codec or sampler run, edited in place step by step.

    Vertices keep the id they start with, their first label; ``label`` and
    ``vid`` map ids to labels and back, so exchanging labels 1 and k costs
    O(1).  ``parent`` and ``color`` are indexed by id - 1 (0 marks a root),
    and ``kids[id]`` lists a vertex's child ids, in plane order for plane
    forests.  The moves follow the rules of the :mod:`bijections` steps,
    with the coloring helpers of :mod:`forests` that the colored steps use.
    Plain reads no child list once ``load`` has checked its input: its
    moves set parents only, and its forward steps name gap 0.

    An inverse step counts attachment targets: a vertex of degree deg
    offers ``a + b*deg`` of them (one vertex, deg+1 gaps, or kc-1-deg free
    colors).  A run from ``base`` keeps what counting needs, since inverse
    steps only ever join trees: union-find over the trees, and for each
    tree but tree 1 the sorted list ``S`` of its labels, joined small into
    large.  Plane and colored (b != 0) also keep, per tree, the sorted list
    ``P`` of its vertices' parent labels (one entry per child), and a
    Fenwick tree ``degrees`` of the degrees by label; plain (b = 0) counts
    by label alone and keeps neither.  The targets at labels up to x then
    number ``a*x + b*degrees(x)``, and ``a*#S<=x + b*#P<=x`` of them lie in
    tree k (P's entries are labels of tree k too), so a choice is found by
    binary search on tree k's labels and one walk down the Fenwick tree, in
    O(log^2 n).  A forward step cuts a tree apart, which the lists cannot
    follow, so ``encode`` runs the forward steps on a ``load``-ed forest
    without counting, records each cut, and replays the record on a
    ``base`` run that only counts: it joins the trees (``_join``) and
    exchanges labels, but moves no vertex.  ``load`` finds the steps that
    take vertex n out of tree 1 in one walk up from n, the set ``swaps``.
    A colored move also walks the path whose two colors it exchanges
    (``_alternating_flip``), which can be as long as the tree is deep.
    """

    def __init__(self, family, n, colors, parent, kids, color) -> None:
        self.family, self.n, self.kc = family, n, colors
        self.a, self.b = _targets(family, colors)
        self.parent, self.kids, self.color = parent, kids, color
        self.label = list(range(n + 1))  # the sentinel 0 stays fixed
        self.vid = list(range(n + 1))

    @classmethod
    def base(cls, family: str, n: int, colors: int, base_color: int = 0):
        """The maximal-root state, ready for inverse steps."""
        kids = None if family == "plain" else [[] for _ in range(n + 1)]
        run = cls(family, n, colors, [0] * n, kids, [0] * n)
        run.up = list(range(n + 1))
        # No lists for tree 1, nor for the sentinel 0.
        run.S = [None, None] + [[v] for v in range(2, n + 1)]
        if run.b:
            run.P = [None, None] + [[] for _ in range(2, n + 1)]
            run.degrees = [0] * (n + 1)
        if n > 1:
            run._hang(n, 1, 0, base_color)
            run._join(n, 1)
        return run

    @classmethod
    def load(cls, forest):
        """A forest ready for forward steps.  Raises what the first forward
        step raises unless it is a one-root family member with vertex n in
        tree 1, so every later step's check would pass."""
        # Imported here, so that decode and sample_uniform never load the steps.
        from .bijections import _require_colored, _require_plain, _require_plane

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
        run = cls(family, n, colors, parent, kids, color)
        # The step at k cuts id k (label k is not exchanged before it), and
        # steps only cut, so vertex n leaves tree 1 at the step at k exactly
        # when k lies on n's root path and no id between n and k is smaller.
        run.swaps, low, v = set(), n, n
        while v:
            if v < low:
                run.swaps.add(v)
                low = v
            v = parent[v - 1]
        return run

    # ---------------------------------------------------------------- moves

    def _hang(self, u: int, v: int, j: int, y: int) -> None:
        """Hang vertex u, a root, below vertex v at gap j, or with color y."""
        self.parent[u - 1] = v
        if self.family == "plane":
            self.kids[v].insert(j, u)
        elif self.family == "colored":
            self.kids[v].append(u)
            self.color[u - 1] = y

    def _join(self, u: int, v: int) -> None:
        """Count vertex u, a root, as hung below vertex v: the degree of v
        rises and the two trees join."""
        w, b = self.label[v], self.b
        if b:
            self._add_degree(w, 1)
        s, t = self._find(u), self._find(v)
        S = self.S
        if S[s] is None or S[t] is None:
            # Tree 1 takes the other in.  Its lists are never read: a step
            # counts in tree k >= 2, and tree 1 keeps root label 1 (in the
            # swap case the joined tree's root takes it).
            self.up[s] = t
            S[s] = S[t] = None
            if b:
                self.P[s] = self.P[t] = None
            return
        if len(S[s]) > len(S[t]):
            s, t = t, s
        self.up[s] = t
        for x in S[s]:
            insort(S[t], x)
        S[s] = None
        if b:
            P = self.P
            for x in P[s]:
                insort(P[t], x)
            insort(P[t], w)
            P[s] = None

    def _find(self, v: int) -> int:
        up = self.up
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    def relabel(self, a: int, b: int) -> None:
        """Exchange labels a and b."""
        ia, ib = self.vid[a], self.vid[b]
        self.vid[a], self.vid[b] = ib, ia
        self.label[ia], self.label[ib] = b, a

    def _exchange(self, k: int) -> None:
        """Exchange labels 1 and k, and their degrees in the counts.  Both
        lie in tree 1, whose lists are never read."""
        if self.b:
            d1, dk = self._degree(1), self._degree(k)
            self._add_degree(1, dk - d1)
            self._add_degree(k, d1 - dk)
        self.relabel(1, k)

    def _add_degree(self, x: int, d: int) -> None:
        while x <= self.n:
            self.degrees[x] += d
            x += x & -x

    def _degree(self, x: int) -> int:
        """The degree at label x: node x of the Fenwick tree less the nodes
        that cover labels x-(x&-x)+1..x-1."""
        d, stop = self.degrees[x], x - (x & -x)
        x -= 1
        while x > stop:
            d -= self.degrees[x]
            x &= x - 1
        return d

    # ------------------------------------------------------------- counting

    def _upto(self, x: int) -> int:
        """The targets at labels 1..x."""
        total = self.a * x
        if self.b:
            i = x
            while i:
                total += self.b * self.degrees[i]
                i &= i - 1
        return total

    def _in(self, S: list[int], P: list[int] | None, x: int) -> int:
        """The targets at labels 1..x of the tree with lists S and P."""
        if self.b:
            return self.a * bisect_right(S, x) + self.b * bisect_right(P, x)
        return self.a * bisect_right(S, x)

    def _first(self, c: int) -> tuple[int, int]:
        """The least label x with c targets at labels 1..x, and the rank of
        the c-th among x's targets, by one walk down the Fenwick tree."""
        if not self.b:  # every label offers a targets
            return (c - 1) // self.a + 1, (c - 1) % self.a
        x, step = 0, 1 << (self.n.bit_length() - 1)
        while step:
            if x + step <= self.n:
                # Node x + step holds labels x+1..x+step.
                w = self.a * step + self.b * self.degrees[x + step]
                if w < c:
                    x, c = x + step, c - w
            step >>= 1
        return x + 1, c - 1

    def _tree(self, k: int) -> tuple[list[int], list[int] | None, int]:
        """The lists of tree k, and the number of targets outside it."""
        t = self._find(self.vid[k])
        S = self.S[t]
        P = self.P[t] if self.b else None
        # k roots: the degrees sum to the n-k edges, and tree k's to its
        # len(S)-1 edges.
        n, a, b = self.n, self.a, self.b
        return S, P, a * (n - len(S)) + b * (n - k - len(S) + 1)

    def locate(self, k: int, c: int) -> tuple[int, int, bool]:
        """The target label, its rank (gap or free color) and the swap flag
        that choice c names in the inverse step at k."""
        S, P, outside = self._tree(k)
        if c > outside:
            # The least label of tree k with c - outside targets up to it.
            c -= outside
            x = S[bisect_left(S, c, key=lambda s: self._in(S, P, s))]
            return x, c - 1 - self._in(S, P, x - 1), True
        # The labels of tree k cut the others into runs.  Find the run that
        # holds the c-th outside target; tree k's targets below the run then
        # number `inside`, and the target is the (c + inside)-th overall.
        i = bisect_left(S, c, key=lambda s: self._upto(s) - self._in(S, P, s))
        inside = self._in(S, P, S[i - 1]) if i else 0
        return *self._first(c + inside), False

    def count(self, k: int, w: int, j: int, swap: bool) -> int:
        """The choice that names label w, rank j and the swap flag in the
        inverse step at k: ``locate`` inverted."""
        S, P, outside = self._tree(k)
        if swap:
            return outside + self._in(S, P, w - 1) + j + 1
        return self._upto(w - 1) - self._in(S, P, w - 1) + j + 1

    # ---------------------------------------------------------------- steps

    def attach(self, k: int, w: int, j: int, swap: bool) -> None:
        """The inverse step at k: hang tree k, or with ``swap`` tree 1, below
        label w at gap j or with w's j-th free color, then with ``swap``
        exchange labels 1 and k."""
        moved, v = self.vid[1 if swap else k], self.vid[w]
        y = 0
        if self.family == "colored":
            # The j-th color free at v.  j is below the kc-1-deg colors v
            # offers, so y is at most kc, and at most kc-1 at a root.
            used = sorted(_used_colors(self.color, self.kids[v], v))
            y = j + 1
            for u in used:
                if 0 < u <= y:
                    y += 1
            # Push y back out for the last color below the moved root.
            _alternating_flip(self.kids, self.color, moved, y, self.kc)
        self._hang(moved, v, j, y)
        self._join(moved, v)
        if swap:
            self._exchange(k)

    def detach(self, k: int) -> tuple[int, int, bool]:
        """The forward step at k: cut the subtree at label k and, if vertex
        n leaves tree 1, exchange labels 1 and k.  Returns what ``attach``
        takes to undo it: the old parent's label, the gap or free-color
        rank, and the swap flag, all in the labels of the result."""
        u = self.vid[k]
        v = self.parent[u - 1]
        self.parent[u - 1] = 0
        j = 0  # plain has one gap and keeps no child lists
        if self.family != "plain":
            below = self.kids[v]
            j = below.index(u)
            del below[j]
        if self.family == "colored":
            x, self.color[u - 1] = self.color[u - 1], 0
            # The new root's edges avoid the last color: trade it for x.
            _alternating_flip(self.kids, self.color, u, self.kc, x)
            used = _used_colors(self.color, below, v)
            j = x - 1 - sum(1 for y in used if 0 < y < x)
        swapped = k in self.swaps  # vertex n leaves tree 1
        if swapped:
            self.relabel(1, k)
        return self.label[v], j, swapped

    # --------------------------------------------------------------- output

    def at_base(self) -> bool:
        """True iff labels 1..n-1 are roots and n hangs below 1."""
        up = [self.label[self.parent[u - 1]] for u in self.vid[1:]]
        return up == [0] * (self.n - 1) + [int(self.n > 1)]

    def value(self):
        """The forest as a value, built once."""
        label, n = self.label, self.n
        if self.family == "plane":  # the roots by ascending label, in preorder
            roots = [u for u in self.vid[1:] if not self.parent[u - 1]]
            word = _preorder(roots, self.kids.__getitem__, label.__getitem__)
            return _plane_word(*word)
        parents = [0] * n
        for u in range(1, n + 1):
            parents[label[u] - 1] = label[self.parent[u - 1]]
        forest = RootedForest(tuple(parents))
        if self.family == "plain":
            return forest
        colors = [0] * n
        for u in range(1, n + 1):
            colors[label[u] - 1] = self.color[u - 1]
        return EdgeColoredForest(forest, self.kc, tuple(colors))


def _run(family: str, n: int, colors: int, choices: tuple[int, ...]) -> _Run:
    """The inverse steps k = n-1, n-2, ..., one per choice, on a ``_Run``."""
    base_color, choices = _split_head(family, n, choices)
    run = _Run.base(family, n, colors, base_color)
    for k, c in zip(range(n - 1, 1, -1), choices):
        run.attach(k, *run.locate(k, c))
    return run


def decode(trace: ChoiceTrace):
    """Run the inverse steps k = n-1, ..., 2 from the maximal-root state."""
    return _run(trace.family, trace.n, trace.colors, trace.choices).value()


def encode(forest) -> ChoiceTrace:
    """Run the forward steps k = 2, ..., n-1 and record their choices.

    The input must be a one-root family member (root 1); the family is
    inferred from the value's type.  ``decode(encode(f)) == f``.
    """
    family, n, colors = _family_of(forest)
    run = _Run.load(forest)
    cuts = [run.detach(k) for k in range(2, n)]
    if not run.at_base():
        raise ValueError(f"input is not a one-root {family} family member")
    head = (run.color[run.vid[n] - 1],) if _has_head(family, n) else ()
    replay = _Run.base(family, n, colors, *head)
    chosen = []
    # The replay only counts: it joins trees and exchanges labels, but moves
    # no vertex, as count reads neither parents, child lists nor colors.
    for k, (w, j, swap) in zip(range(n - 1, 1, -1), reversed(cuts)):
        chosen.append(replay.count(k, w, j, swap))
        replay._join(replay.vid[1 if swap else k], replay.vid[w])
        if swap:
            replay._exchange(k)
    return ChoiceTrace(family, n, colors, head + tuple(chosen))


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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= roots <= max(n - 1, 1):
        raise ValueError(f"root count {roots} out of range")
    if _has_head(family, n) and colors < 2:
        raise ValueError("colored sampling needs at least two colors")
    if rng is None:
        rng = SplitMix64(seed)
    # Only the inverse steps from n-1 roots down to `roots` roots are run,
    # so the last roots-1 positions of the trace are never drawn.
    bounds = trace_bounds(family, n, colors)
    drawn = bounds[: len(bounds) - roots + 1]
    run = _run(family, n, colors, tuple(rng.below(b) + 1 for b in drawn))
    if not conditioned and roots > 1:
        run.relabel(1, rng.below(roots) + 1)
    return run.value()
