"""Bijection steps: worked vectors from the paper figures' instances,
plus exhaustive round trips at small sizes."""

from itertools import product

import pytest

from forestcodec import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    PlaneNode,
    RootedForest,
    colored_choice_count,
    colored_forward,
    colored_inverse,
    is_descendant,
    leafplane_choice_count,
    leafplane_forward,
    leafplane_inverse,
    parse_colored,
    parse_forest,
    parse_plane,
    partite_choice_count,
    partite_forward,
    partite_inverse,
    plain_choice_count,
    plain_forward,
    plain_inverse,
    plane_choice_count,
    plane_forward,
    plane_inverse,
    render_plane,
    reroot_switch,
    reroot_tree,
    subtree_vertices,
)
from forestcodec.enumeration import FamilySpec, enumerate_family
from forestcodec.forests import _rebuilt

BOTTOM = parse_forest("5 3 0 0 0 3 1")

# The five forests with roots 1, 2 that map onto BOTTOM, in choice order.
TOP_ROW = [
    (0, 0, 1, 3, 1),
    (0, 0, 2, 3, 1),
    (0, 0, 5, 3, 1),
    (0, 0, 1, 1, 3),
    (0, 0, 4, 1, 3),
]


class TestPlain:
    def test_forward_vectors(self):
        assert plain_forward(RootedForest((0, 0, 1, 3, 1)), 3) == (BOTTOM, 1)
        assert plain_forward(RootedForest((0, 0, 5, 3, 1)), 3) == (BOTTOM, 3)
        assert plain_forward(RootedForest((0, 0, 4, 1, 3)), 3) == (BOTTOM, 5)

    def test_inverse_row(self):
        got = [plain_inverse(BOTTOM, 3, c).parents for c in range(1, 6)]
        assert got == TOP_ROW
        assert plain_inverse(BOTTOM, 3, 2).parents == (0, 0, 2, 3, 1)

    def test_choice_range_guard(self):
        with pytest.raises(ValueError, match="choice"):
            plain_inverse(BOTTOM, 3, 6)
        with pytest.raises(ValueError, match="choice"):
            plain_inverse(BOTTOM, 3, 0)

    def test_family_guard(self):
        with pytest.raises(ValueError, match="roots"):
            plain_forward(BOTTOM, 3)  # three roots already
        off_pivot = RootedForest((0, 0, 0, 3, 2))  # 5 under root 2
        with pytest.raises(ValueError, match="tree rooted at 1"):
            plain_inverse(off_pivot, 3, 1)

    def test_choice_count(self):
        assert plain_choice_count(BOTTOM, 3) == 5
        assert plain_choice_count(RootedForest((0, 1)), 1) == 2

    def test_choice_count_is_partition_size(self):
        for n in range(2, 7):
            for k in range(1, n):
                spec = FamilySpec("plain", n=n, roots=k, conditioned=True)
                for f in enumerate_family(spec):
                    inside = subtree_vertices(f, k) if k > 1 else set()
                    assert plain_choice_count(f, k) == n
                    assert len(inside) + (n - len(inside)) == n

    def test_round_trips(self):
        for n in range(3, 6):
            for k in range(2, n):
                src = list(
                    enumerate_family(
                        FamilySpec("plain", n=n, roots=k - 1, conditioned=True)
                    )
                )
                tgt = list(
                    enumerate_family(
                        FamilySpec("plain", n=n, roots=k, conditioned=True)
                    )
                )
                assert len(src) == n * len(tgt)
                preimages = set()
                for f in src:
                    g, c = plain_forward(f, k)
                    assert plain_inverse(g, k, c) == f
                for g in tgt:
                    for c in range(1, n + 1):
                        f = plain_inverse(g, k, c)
                        assert f.parents not in preimages
                        preimages.add(f.parents)
                        assert plain_forward(f, k) == (g, c)
                assert len(preimages) == len(src)


class TestPartite:
    def test_bipartite_choice_count(self):
        parts = PartAssignment((2, 3))
        spec = FamilySpec("partite", part_sizes=(2, 3), roots=2, conditioned=True)
        members = list(enumerate_family(spec))
        assert members
        for f in members:
            assert partite_choice_count(f, 2, parts) == 3

    def test_triangle_single_step(self):
        # All parts of size one and a single root: no recursion steps apply,
        # the conditioned one-tree family is the whole spanning-tree set.
        spec = FamilySpec("partite", part_sizes=(1, 1, 1), roots=1, conditioned=True)
        assert len(list(enumerate_family(spec))) == 3

    def test_k22_recurrence(self):
        lhs = len(
            list(
                enumerate_family(
                    FamilySpec("partite", part_sizes=(2, 2), roots=1, conditioned=True)
                )
            )
        )
        rhs = len(
            list(
                enumerate_family(
                    FamilySpec("partite", part_sizes=(2, 2), roots=2, conditioned=True)
                )
            )
        )
        assert lhs == 2 * rhs

    def test_part_violation_rejected(self):
        parts = PartAssignment((2, 2))
        bad = RootedForest((0, 1, 1, 2))  # edge 1-2 inside part 1
        with pytest.raises(ValueError, match="inside one part"):
            partite_forward(bad, 2, parts)

    def test_round_trips(self):
        for sizes in [(2, 3), (3, 2), (2, 2), (2, 1, 1), (2, 2, 1)]:
            parts = PartAssignment(sizes)
            mult = parts.n - sizes[0]
            for k in range(2, sizes[0] + 1):
                src = list(
                    enumerate_family(
                        FamilySpec(
                            "partite", part_sizes=sizes, roots=k - 1, conditioned=True
                        )
                    )
                )
                tgt = list(
                    enumerate_family(
                        FamilySpec(
                            "partite", part_sizes=sizes, roots=k, conditioned=True
                        )
                    )
                )
                assert len(src) == mult * len(tgt)
                for f in src:
                    g, c = partite_forward(f, k, parts)
                    assert partite_inverse(g, k, parts, c) == f
                for g in tgt:
                    count = partite_choice_count(g, k, parts)
                    assert count == mult
                    for c in range(1, count + 1):
                        assert partite_forward(
                            partite_inverse(g, k, parts, c), k, parts
                        ) == (g, c)


class TestReroot:
    def test_edge_reversal(self):
        assert reroot_switch(RootedForest((0, 1))).parents == (2, 0)

    def test_mirror_involution(self):
        for n in range(3, 7):
            for r in range(1, n - 1):
                spec = FamilySpec("plain", n=n, roots=r)
                for f in enumerate_family(spec):
                    if not is_descendant(f, r + 1, 1):
                        continue
                    g = reroot_switch(f)
                    assert g.roots == tuple(range(2, r + 2))
                    assert is_descendant(g, 1, r + 1)
                    assert reroot_tree(g, 1) == f

    def test_tripartite_count_preserved(self):
        # K_{2,1,1}: re-rooting is a bijection, so both sides have equal size.
        spec = FamilySpec("partite", part_sizes=(2, 1, 1), roots=2, conditioned=True)
        members = list(enumerate_family(spec))
        images = {reroot_switch(f).parents for f in members}
        assert len(images) == len(members)
        for g in (RootedForest(p) for p in images):
            assert g.roots == (2, 3)
            assert is_descendant(g, 1, 3)

    def test_precondition(self):
        with pytest.raises(ValueError, match="tree rooted at 1"):
            reroot_switch(RootedForest((0, 0, 2)))  # 3 under root 2, roots 1..2


class TestPlane:
    def test_three_vertex_inverses(self):
        pf = parse_plane("1(3);2")
        got = [render_plane(plane_inverse(pf, 2, c)) for c in range(1, 5)]
        assert got == ["1(2,3)", "1(3,2)", "1(3(2))", "1(2(3))"]

    def test_choice_count(self):
        assert plane_choice_count(parse_plane("1(3);2"), 2) == 4

    def test_leaf_contributes_one_slot(self):
        # Leaf 3 offers only gap 0: one choice, the third, hangs tree 2
        # below it.  Tree 2's one slot (2, 0) is the last choice, the only
        # one that hangs tree 1 below 2 and then exchanges labels 1 and 2.
        pf = parse_plane("1(3);2")
        got = [render_plane(plane_inverse(pf, 2, c)) for c in range(1, 5)]
        assert [c for c, text in enumerate(got, 1) if "3(2)" in text] == [3]
        assert [c for c, text in enumerate(got, 1) if "2(3)" in text] == [4]
        with pytest.raises(ValueError, match=r"choice must be in 1\.\.4, got 5"):
            plane_inverse(pf, 2, 5)

    def test_round_trips(self):
        for n in range(3, 6):
            for k in range(2, n):
                src = list(
                    enumerate_family(
                        FamilySpec("plane", n=n, roots=k - 1, conditioned=True)
                    )
                )
                tgt = list(
                    enumerate_family(
                        FamilySpec("plane", n=n, roots=k, conditioned=True)
                    )
                )
                assert len(src) == (2 * n - k) * len(tgt)
                for f in src:
                    g, c = plane_forward(f, k)
                    assert plane_inverse(g, k, c) == f
                for g in tgt:
                    for c in range(1, 2 * n - k + 1):
                        assert plane_forward(plane_inverse(g, k, c), k) == (g, c)


def deep_chain(depth: int, leaf: str = "") -> str:
    """The plane text 1(2(3(...depth...))), optionally ending in a leaf."""
    labels = list(map(str, range(1, depth + 1))) + ([leaf] if leaf else [])
    return "(".join(labels) + ")" * (len(labels) - 1)


DEPTHS = (1200, 20_000)


class TestDeepPlaneSteps:
    """One step at k = 2 on deep chains, which takes the swap case (vertex
    n sits below 2), and back."""

    def test_plane(self):
        for depth in DEPTHS:
            pf = parse_plane(deep_chain(depth))
            g, c = plane_forward(pf, 2)
            assert g.root_labels() == (1, 2)
            # The subtree at 2 takes label 1; the rest of tree 1, its root
            # alone, takes label 2.
            assert g.trees[0].children[0].label == 3
            assert g.trees[1].is_leaf
            assert c == 2 * depth - 2
            assert plane_inverse(g, 2, c) == pf

    def test_leafplane(self):
        for depth in DEPTHS:
            pf = parse_plane(deep_chain(depth, "*"))
            g, c = leafplane_forward(pf, 2)
            assert g.root_labels() == (1, 2)
            # The hole is tree 2's one leaf, the last of the forest.
            assert g.preorder_labels[-2:] == (2, 0)
            assert c == 2
            assert leafplane_inverse(g, 2, c) == pf


PLANE_STEPS = {
    "forward": plane_forward,
    "inverse": lambda pf, k: plane_inverse(pf, k, 1),
    "choice_count": plane_choice_count,
}

LEAFPLANE_STEPS = {
    "forward": leafplane_forward,
    "inverse": lambda pf, r: leafplane_inverse(pf, r, 1),
    "choice_count": leafplane_choice_count,
}

# (forest text, k for forward, k for inverse and choice count, message, in
# which {k} stands for the roots the step expects).  Forward reads roots
# 1..k-1, the others roots 1..k.
PLANE_MESSAGES = [
    ("1(*,2,3)", 2, 2, "plane family here is fully labeled"),
    ("1(2,5)", 2, 2, "labels must be 1..n"),
    ("1(3,4);2", 2, 3, "expected roots exactly 1..{k}, got (1, 2)"),
    ("1(2,3,4)", 3, 2, "expected roots exactly 1..{k}, got (1,)"),
    ("1(3);2(4)", 3, 2, "vertex 4 must lie in the tree rooted at 1"),
]

LEAFPLANE_MESSAGES = [
    ("1(2,*)", 2, 2, "exactly the leaves must be unlabeled"),
    ("1(3(*),*)", 2, 2, "internal labels must be 1..2"),
    ("1(*);2(3(*))", 2, 3, "expected roots exactly 1..{k}, got (1, 2)"),
    ("1(2(*),3(*))", 3, 2, "expected roots exactly 1..{k}, got (1,)"),
    ("*;*", 2, 2, "expected roots exactly 1..{k}, got (None, None)"),
    ("1(*);2(3(*))", 3, 2, "vertex 3 must lie in the tree rooted at 1"),
]


def raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestPlaneMembershipMessages:
    """The membership messages of every plane and leafplane entry point."""

    @pytest.mark.parametrize("step", sorted(PLANE_STEPS))
    @pytest.mark.parametrize("text, k_forward, k, message", PLANE_MESSAGES)
    def test_plane(self, step, text, k_forward, k, message):
        if step == "forward":
            k = k_forward
        roots = k - 1 if step == "forward" else k
        got = raised(lambda: PLANE_STEPS[step](parse_plane(text), k))
        assert got == message.replace("{k}", str(roots))

    @pytest.mark.parametrize("step", sorted(LEAFPLANE_STEPS))
    @pytest.mark.parametrize("text, r_forward, r, message", LEAFPLANE_MESSAGES)
    def test_leafplane(self, step, text, r_forward, r, message):
        if step == "forward":
            r = r_forward
        roots = r - 1 if step == "forward" else r
        got = raised(lambda: LEAFPLANE_STEPS[step](parse_plane(text), r))
        assert got == message.replace("{k}", str(roots))

    def test_internal_unlabeled_vertex(self):
        # The constructor accepts an unlabeled internal vertex below a root;
        # neither family does.
        pf = PlaneForest((PlaneNode(1, (PlaneNode(None, (PlaneNode(2),)),)),))
        leafy = "exactly the leaves must be unlabeled"
        assert raised(lambda: leafplane_forward(pf, 2)) == leafy
        assert raised(lambda: leafplane_inverse(pf, 1, 1)) == leafy
        assert raised(lambda: leafplane_choice_count(pf, 1)) == leafy
        full = "plane family here is fully labeled"
        assert raised(lambda: plane_forward(pf, 2)) == full
        assert raised(lambda: plane_choice_count(pf, 1)) == full

    def test_empty_forest(self):
        empty = PlaneForest(())
        for count in (plane_choice_count, leafplane_choice_count):
            assert raised(lambda: count(empty, 0)) == "label 0 not present"
            assert raised(lambda: count(empty, 1)) == (
                "expected roots exactly 1..1, got ()"
            )

    def test_ranges(self):
        pf, two = parse_plane("1(2,3,4)"), parse_plane("1(3,4);2")
        k_range = "k must satisfy 2 <= k <= n-1, got {}"
        assert raised(lambda: plane_forward(pf, 4)) == k_range.format(4)
        assert raised(lambda: plane_inverse(pf, 1, 1)) == k_range.format(1)
        for c in (0, 7):
            assert raised(lambda: plane_inverse(two, 2, c)) == (
                f"choice must be in 1..6, got {c}"
            )
        lp = parse_plane("1(2(*),3(*))")
        r_range = "r must satisfy 2 <= r <= 2"
        assert raised(
            lambda: leafplane_forward(parse_plane("1(3(*),*);2(*)"), 3)
        ) == r_range
        assert raised(lambda: leafplane_inverse(lp, 1, 1)) == r_range
        lp2 = parse_plane("1(3(4(*),*),*);2(*)")
        for c in (0, 5):
            assert raised(lambda: leafplane_inverse(lp2, 2, c)) == (
                f"choice must be in 1..4, got {c}"
            )


PLAIN_STEPS = {
    "forward": plain_forward,
    "inverse": lambda f, k: plain_inverse(f, k, 1),
    "choice_count": plain_choice_count,
}

# (parent map, k for forward, k for inverse and choice count, message), as
# in PLANE_MESSAGES.
PLAIN_MESSAGES = [
    ((0, 0, 0, 3, 1), 3, 2, "expected roots exactly 1..{k}, got (1, 2, 3)"),
    ((0, 0, 1, 2, 2), 3, 2, "vertex 5 must lie in the tree rooted at 1"),
]

PARTITE_STEPS = {
    "forward": partite_forward,
    "inverse": lambda f, k, parts: partite_inverse(f, k, parts, 1),
    "choice_count": partite_choice_count,
}

# (parent map, part sizes, k, message): every step at that k raises it.
PARTITE_MESSAGES = [
    ((0, 1, 1, 1, 2), (2, 2), 2, "part sizes must cover the vertex set"),
    ((0, 1, 1, 1, 2), (5,), 2, "at least two parts are required"),
    ((0, 1, 1, 2), (2, 2), 2, "forest has an edge inside one part"),
]

COLORED_STEPS = {
    "forward": colored_forward,
    "inverse": lambda ef, r: colored_inverse(ef, r, 1),
    "choice_count": colored_choice_count,
}

# (parent map, colors, r for forward, r for inverse and choice count,
# message), in three colors.
COLORED_MESSAGES = [
    ((0, 0, 0, 1), (0, 0, 0, 1), 3, 2, "expected roots exactly 1..{k}, got (1, 2, 3)"),
    ((0, 0, 1, 1), (0, 0, 3, 1), 3, 2, "an edge out of a root carries the last color"),
    ((0, 0, 1, 2), (0, 0, 1, 1), 3, 2, "vertex 4 must lie in the tree rooted at 1"),
]


class TestLabeledMembershipMessages:
    """The guard messages of every plain, partite and colored entry point,
    and of ``reroot_switch``."""

    @pytest.mark.parametrize("step", sorted(PLAIN_STEPS))
    @pytest.mark.parametrize("parents, k_forward, k, message", PLAIN_MESSAGES)
    def test_plain(self, step, parents, k_forward, k, message):
        if step == "forward":
            k = k_forward
        roots = k - 1 if step == "forward" else k
        got = raised(lambda: PLAIN_STEPS[step](RootedForest(parents), k))
        assert got == message.replace("{k}", str(roots))

    def test_plain_ranges(self):
        k_range = "k must satisfy 2 <= k <= n-1, got {}"
        assert raised(lambda: plain_forward(BOTTOM, 5)) == k_range.format(5)
        assert raised(lambda: plain_inverse(BOTTOM, 1, 1)) == k_range.format(1)
        for c in (0, 6):
            assert raised(lambda: plain_inverse(BOTTOM, 3, c)) == (
                f"choice must be in 1..5, got {c}"
            )

    @pytest.mark.parametrize("step", sorted(PARTITE_STEPS))
    @pytest.mark.parametrize("parents, sizes, k, message", PARTITE_MESSAGES)
    def test_partite(self, step, parents, sizes, k, message):
        forest, parts = RootedForest(parents), PartAssignment(sizes)
        assert raised(lambda: PARTITE_STEPS[step](forest, k, parts)) == message

    def test_partite_roots_and_ranges(self):
        forest, parts = RootedForest((0, 0, 0, 1, 2)), PartAssignment((2, 3))
        # Only the choice count reads a k past part 1 as a root count.
        assert raised(lambda: partite_choice_count(forest, 3, parts)) == (
            "roots 1..3 must lie in part 1"
        )
        k_range = "k must satisfy 2 <= k <= |part 1| = 2, got {}"
        for k in (1, 3):
            assert raised(lambda: partite_forward(forest, k, parts)) == (
                k_range.format(k)
            )
            assert raised(lambda: partite_inverse(forest, k, parts, 1)) == (
                k_range.format(k)
            )

    @pytest.mark.parametrize("step", sorted(COLORED_STEPS))
    @pytest.mark.parametrize(
        "parents, colors, r_forward, r, message", COLORED_MESSAGES
    )
    def test_colored(self, step, parents, colors, r_forward, r, message):
        if step == "forward":
            r = r_forward
        roots = r - 1 if step == "forward" else r
        ef = EdgeColoredForest(RootedForest(parents), 3, colors)
        got = raised(lambda: COLORED_STEPS[step](ef, r))
        assert got == message.replace("{k}", str(roots))

    def test_colored_ranges(self):
        r_range = "r must satisfy 2 <= r <= n-1, got {}"
        assert raised(lambda: colored_forward(COLORED_BOTTOM, 6)) == r_range.format(6)
        assert raised(lambda: colored_inverse(COLORED_BOTTOM, 1, 1)) == (
            r_range.format(1)
        )
        for c in (0, 10):
            assert raised(lambda: colored_inverse(COLORED_BOTTOM, 3, c)) == (
                f"choice must be in 1..9, got {c}"
            )

    @pytest.mark.parametrize(
        "parents, message",
        [
            ((0, 1, 0), "roots must be exactly 1..r"),
            ((0, 0), "vertex r+1 does not exist"),
            ((0, 0, 2), "vertex 3 must lie in the tree rooted at 1"),
        ],
    )
    def test_reroot_switch(self, parents, message):
        assert raised(lambda: reroot_switch(RootedForest(parents))) == message


LEAFPLANE_BOTTOM = parse_plane("1(5(*,*),*,*);2(4(*));3(*,*,*)")

# The eight forests with roots 1, 2 that map onto LEAFPLANE_BOTTOM, in
# choice order: one per unlabeled leaf of the bottom forest in preorder.
LEAFPLANE_TOP = [
    "1(5(3(*,*,*),*),*,*);2(4(*))",
    "1(5(*,3(*,*,*)),*,*);2(4(*))",
    "1(5(*,*),3(*,*,*),*);2(4(*))",
    "1(5(*,*),*,3(*,*,*));2(4(*))",
    "1(5(*,*),*,*);2(4(3(*,*,*)))",
    "1(3(5(*,*),*,*),*,*);2(4(*))",
    "1(*,3(5(*,*),*,*),*);2(4(*))",
    "1(*,*,3(5(*,*),*,*));2(4(*))",
]


class TestLeafPlane:
    def test_figure_instance(self):
        assert leafplane_choice_count(LEAFPLANE_BOTTOM, 3) == 8
        got = []
        for c in range(1, 9):
            f = leafplane_inverse(LEAFPLANE_BOTTOM, 3, c)
            got.append(render_plane(f))
            assert leafplane_forward(f, 3) == (LEAFPLANE_BOTTOM, c)
        assert got == LEAFPLANE_TOP

    def test_single_leaf_chain(self):
        assert leafplane_choice_count(parse_plane("1(2(3(*)))"), 1) == 1

    def test_counts_by_enumeration(self):
        lhs = len(
            list(
                enumerate_family(
                    FamilySpec("leafplane", n=5, leaves=2, roots=1, conditioned=True)
                )
            )
        )
        rhs = len(
            list(
                enumerate_family(
                    FamilySpec("leafplane", n=6, leaves=3, roots=2, conditioned=True)
                )
            )
        )
        assert lhs == 3 * rhs

    def test_choice_range_guard(self):
        with pytest.raises(ValueError, match="choice"):
            leafplane_inverse(LEAFPLANE_BOTTOM, 3, 9)

    def test_round_trips(self):
        for internal in (3, 4):
            for p0 in (1, 2):
                n0 = internal + p0
                for r in range(2, internal):
                    nl, pl = n0 + r - 2, p0 + r - 2
                    src = list(
                        enumerate_family(
                            FamilySpec(
                                "leafplane",
                                n=nl,
                                leaves=pl,
                                roots=r - 1,
                                conditioned=True,
                            )
                        )
                    )
                    tgt = list(
                        enumerate_family(
                            FamilySpec(
                                "leafplane",
                                n=nl + 1,
                                leaves=pl + 1,
                                roots=r,
                                conditioned=True,
                            )
                        )
                    )
                    assert len(src) == (pl + 1) * len(tgt)
                    for f in src:
                        g, c = leafplane_forward(f, r)
                        assert leafplane_inverse(g, r, c) == f
                    for g in tgt:
                        assert leafplane_choice_count(g, r) == pl + 1
                        for c in range(1, pl + 2):
                            assert leafplane_forward(
                                leafplane_inverse(g, r, c), r
                            ) == (g, c)


COLORED_BOTTOM = parse_colored("6 3 0 0 0 1 3 1\n0 0 0 1 1 2", 3)

# The nine preimages of COLORED_BOTTOM under the step at r = 3, in choice
# order: attachment vertices 2, 4, 6 outside the moved tree, then 3, 5
# inside it (swap cases), colors ascending at each vertex.
COLORED_TOP = [
    ((0, 0, 2, 1, 3, 1), (0, 0, 1, 1, 3, 2)),
    ((0, 0, 2, 1, 3, 1), (0, 0, 2, 1, 1, 2)),
    ((0, 0, 4, 1, 3, 1), (0, 0, 2, 1, 1, 2)),
    ((0, 0, 4, 1, 3, 1), (0, 0, 3, 1, 1, 2)),
    ((0, 0, 6, 1, 3, 1), (0, 0, 1, 1, 3, 2)),
    ((0, 0, 6, 1, 3, 1), (0, 0, 3, 1, 1, 2)),
    ((0, 0, 1, 3, 1, 3), (0, 0, 2, 1, 1, 3)),
    ((0, 0, 5, 3, 1, 3), (0, 0, 2, 1, 1, 3)),
    ((0, 0, 5, 3, 1, 3), (0, 0, 3, 1, 1, 2)),
]


class TestColored:
    def test_figure_instance(self):
        assert colored_choice_count(COLORED_BOTTOM, 3) == 9
        for c, (parents, colors) in enumerate(COLORED_TOP, start=1):
            f = colored_inverse(COLORED_BOTTOM, 3, c)
            assert (f.base.parents, f.colors) == (parents, colors)
            assert colored_forward(f, 3) == (COLORED_BOTTOM, c)

    def test_small_recurrence(self):
        lhs = len(
            list(
                enumerate_family(
                    FamilySpec(
                        "special-colored", n=3, colors=2, roots=1, conditioned=True
                    )
                )
            )
        )
        rhs = len(
            list(
                enumerate_family(
                    FamilySpec(
                        "special-colored", n=3, colors=2, roots=2, conditioned=True
                    )
                )
            )
        )
        assert (lhs, rhs) == (2, 1)
        member = parse_colored("3 2 0 0 1\n0 0 1", 2)
        assert colored_choice_count(member, 2) == 2

    def test_rejects_non_special_input(self):
        # Root 1's edge carries the last color, so the forest is not special.
        bad = EdgeColoredForest(RootedForest((0, 1, 1)), 2, (0, 2, 1))
        with pytest.raises(ValueError, match="last color"):
            colored_forward(bad, 2)

    def test_recolor_cascades_down_the_alternating_path(self):
        # Cutting at 2 frees color 1; the edge (2,3) colored 3 takes it,
        # which collides with (3,4) colored 1, which must flip to 3.
        f = EdgeColoredForest(RootedForest((0, 1, 2, 3)), 3, (0, 1, 3, 1))
        g, c = colored_forward(f, 2)
        assert g.is_special()
        assert colored_inverse(g, 2, c) == f

    def test_properness_and_specialness_preserved(self):
        for n in range(3, 5):
            for kc in (2, 3):
                for r in range(2, n):
                    mult = kc * n - 2 * n + r
                    spec = FamilySpec(
                        "special-colored", n=n, colors=kc, roots=r, conditioned=True
                    )
                    for g in enumerate_family(spec):
                        assert colored_choice_count(g, r) == mult
                        for c in range(1, mult + 1):
                            f = colored_inverse(g, r, c)
                            # construction validates properness; specialness:
                            assert f.is_special()
                            assert colored_forward(f, r) == (g, c)

    def test_round_trip_sources(self):
        for n in range(3, 5):
            for kc in (2, 3):
                for r in range(2, n):
                    spec = FamilySpec(
                        "special-colored",
                        n=n,
                        colors=kc,
                        roots=r - 1,
                        conditioned=True,
                    )
                    for f in enumerate_family(spec):
                        g, c = colored_forward(f, r)
                        assert g.is_special()
                        assert colored_inverse(g, r, c) == f


def revalidate(value) -> None:
    """Check a step's output anew on the validating construction path,
    ``forests._rebuilt``, a colored forest's base first, and that every
    other field is an int or a tuple of ints, as the parsers build them."""
    for x in value._values:
        if isinstance(x, RootedForest):
            revalidate(x)
        else:
            assert type(x) is int or (
                type(x) is tuple and all(type(i) is int for i in x)
            ), x
    _rebuilt(type(value), value._values)


def _members(family, **spec):
    return list(enumerate_family(FamilySpec(family, conditioned=True, **spec)))


def _plain_levels():
    for n in range(3, 6):
        for k in range(2, n):
            yield k, plain_forward, plain_inverse, plain_choice_count, (
                _members("plain", n=n, roots=k - 1), _members("plain", n=n, roots=k)
            )


def _partite_levels():
    # Every part-size list of at most 5 vertices with part 1 of size >= 2.
    for m in (2, 3, 4):
        for sizes in product(range(1, 5), repeat=m):
            if sizes[0] < 2 or sum(sizes) > 5:
                continue
            parts = PartAssignment(sizes)
            for k in range(2, sizes[0] + 1):
                yield (
                    k,
                    lambda f, k: partite_forward(f, k, parts),
                    lambda g, k, c: partite_inverse(g, k, parts, c),
                    lambda g, k: partite_choice_count(g, k, parts),
                    (
                        _members("partite", part_sizes=sizes, roots=k - 1),
                        _members("partite", part_sizes=sizes, roots=k),
                    ),
                )


def _plane_levels():
    for n in range(3, 6):
        for k in range(2, n):
            yield k, plane_forward, plane_inverse, plane_choice_count, (
                _members("plane", n=n, roots=k - 1), _members("plane", n=n, roots=k)
            )


def _leafplane_levels():
    # The forward step's input has n vertices; its output one more, a leaf.
    for n in range(4, 6):
        for leaves in range(1, n - 2):
            for r in range(2, n - leaves):
                yield r, leafplane_forward, leafplane_inverse, leafplane_choice_count, (
                    _members("leafplane", n=n, leaves=leaves, roots=r - 1),
                    _members("leafplane", n=n + 1, leaves=leaves + 1, roots=r),
                )


def _colored_levels():
    for n in range(3, 6):
        for kc in (2, 3):
            for r in range(2, n):
                spec = {"n": n, "colors": kc}
                yield r, colored_forward, colored_inverse, colored_choice_count, (
                    _members("special-colored", roots=r - 1, **spec),
                    _members("special-colored", roots=r, **spec),
                )


STEP_LEVELS = {
    "plain": _plain_levels,
    "partite": _partite_levels,
    "plane": _plane_levels,
    "leafplane": _leafplane_levels,
    "colored": _colored_levels,
}


@pytest.mark.parametrize("family", STEP_LEVELS)
def test_step_outputs_validate(family):
    """Every forward step on every member with roots 1..k-1, and every
    inverse step at every choice on every member with roots 1..k, at n <= 5,
    builds a value its validating constructor accepts."""
    steps = 0
    for k, forward, inverse, count, (sources, targets) in STEP_LEVELS[family]():
        for f in sources:
            revalidate(forward(f, k)[0])
        for g in targets:
            for c in range(1, count(g, k) + 1):
                revalidate(inverse(g, k, c))
        steps += len(sources) + len(targets)
    assert steps


# family -> (its forward, inverse and choice count, the name of their k, a
# member with roots 1..r, r, and the step parameters after k)
STEP_CALLS = {
    "plain": (plain_forward, plain_inverse, plain_choice_count, "k", BOTTOM, 3, ()),
    "partite": (
        partite_forward, partite_inverse, partite_choice_count, "k",
        RootedForest((0, 0, 4, 1, 2, 1)), 2, (PartAssignment((3, 3)),),
    ),
    "plane": (
        plane_forward, plane_inverse, plane_choice_count, "k",
        parse_plane("1(3,4);2"), 2, (),
    ),
    "leafplane": (
        leafplane_forward, leafplane_inverse, leafplane_choice_count, "r",
        LEAFPLANE_BOTTOM, 3, (),
    ),
    "colored": (
        colored_forward, colored_inverse, colored_choice_count, "r",
        COLORED_BOTTOM, 3, (),
    ),
}


@pytest.mark.parametrize("family", STEP_CALLS)
def test_non_integer_step_arguments(family):
    """A step's k and choice are ints: on a member, a float one raises a
    ValueError that names it, from each entry point."""
    forward, inverse, count, name, forest, r, extra = STEP_CALLS[family]
    calls = [
        (lambda: forward(forest, r + 1.0, *extra), f"{name} must be an int, got {r + 1.0}"),
        (lambda: inverse(forest, float(r), *extra, 1), f"{name} must be an int, got {r}.0"),
        (lambda: inverse(forest, r, *extra, 1.0), "choice must be an int, got 1.0"),
        (lambda: count(forest, float(r), *extra), f"{name} must be an int, got {r}.0"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # The same member and ints step as before.
    assert inverse(forest, r, *extra, 1)
    assert forward(forest, r + 1, *extra)
