"""Core value types, structural operations, and text formats."""

import pytest

from forestcodec import (
    EdgeColoredForest,
    ParseError,
    PartAssignment,
    PlaneForest,
    PlaneNode,
    RootedForest,
    attach_subtree,
    children,
    degree,
    detach_subtree,
    is_descendant,
    parse_colored,
    parse_forest,
    parse_plane,
    render_colored,
    render_forest,
    render_plane,
    subtree_vertices,
    swap_colored_labels,
    swap_labels,
)
from forestcodec.enumeration import FamilySpec, enumerate_family, plane_key
from forestcodec.forests import plane_relabel

# Depths of the deep plane chains: every walk must be iterative.
DEPTHS = (1200, 20_000)


def forests_upto(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            yield from enumerate_family(FamilySpec("plain", n=n, roots=k))


class TestRootedForestInvariants:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            RootedForest((2, 3, 1))

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError, match="own parent"):
            RootedForest((0, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            RootedForest((0, 7))

    def test_roots_and_counts(self):
        f = RootedForest((0, 0, 0, 3, 1))
        assert f.n == 5
        assert f.roots == (1, 2, 3)
        assert f.root_count == 3
        assert f.has_standard_roots(3)
        assert not f.has_standard_roots(2)


class TestDescendant:
    def test_figure_instance(self):
        f = RootedForest((0, 0, 0, 3, 1))
        assert is_descendant(f, 4, 3)

    def test_reflexive(self):
        f = RootedForest((0, 0, 0, 3, 1))
        for x in range(1, 6):
            assert is_descendant(f, x, x)

    def test_chain(self):
        f = RootedForest((0, 1, 2))
        assert is_descendant(f, 3, 1)
        assert not is_descendant(f, 1, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_descendant(RootedForest((0, 1)), 3, 1)


class TestDetachAttach:
    def test_detach_example(self):
        f = RootedForest((0, 0, 1, 3, 1))
        assert detach_subtree(f, 3).parents == (0, 0, 0, 3, 1)

    def test_detach_leaf(self):
        assert detach_subtree(RootedForest((0, 1, 2)), 3).parents == (0, 1, 0)

    def test_detach_root_rejected(self):
        with pytest.raises(ValueError, match="already a root"):
            detach_subtree(RootedForest((0, 1)), 1)

    def test_attach_examples(self):
        f = RootedForest((0, 0, 0, 3, 1))
        assert attach_subtree(f, 3, 1).parents == (0, 0, 1, 3, 1)
        assert attach_subtree(f, 3, 5).parents == (0, 0, 5, 3, 1)

    def test_attach_cycle_guard(self):
        f = RootedForest((0, 0, 0, 3, 1))
        with pytest.raises(ValueError, match="cycle"):
            attach_subtree(f, 3, 4)

    def test_attach_nonroot_rejected(self):
        with pytest.raises(ValueError, match="not a root"):
            attach_subtree(RootedForest((0, 0, 0, 3, 1)), 4, 1)

    def test_detach_preserves_everything_else(self):
        # Exhaustive over all standard-root forests with n <= 5.
        for f in forests_upto(5):
            for x in range(1, f.n + 1):
                if f.parents[x - 1] == 0:
                    continue
                g = detach_subtree(f, x)
                assert g.n == f.n
                assert g.parents[x - 1] == 0
                assert set(g.roots) == set(f.roots) | {x}
                for v in range(1, f.n + 1):
                    if v != x:
                        assert g.parents[v - 1] == f.parents[v - 1]

    def test_attach_undoes_detach(self):
        # Exhaustive over all standard-root forests with n <= 6.
        for f in forests_upto(6):
            for x in range(1, f.n + 1):
                w = f.parents[x - 1]
                if w == 0:
                    continue
                assert attach_subtree(detach_subtree(f, x), x, w) == f


class TestSwapLabels:
    def test_chain_transposition(self):
        assert swap_labels(RootedForest((0, 1, 2)), 1, 3).parents == (2, 3, 0)

    def test_identity(self):
        f = RootedForest((0, 0, 5, 3, 1))
        assert swap_labels(f, 2, 2) is f

    def test_figure_composition(self):
        f = attach_subtree(RootedForest((0, 0, 0, 3, 1)), 1, 4)
        assert f.parents == (4, 0, 0, 3, 1)
        assert swap_labels(f, 1, 3).parents == (0, 0, 4, 1, 3)

    def test_involution(self):
        for f in forests_upto(5):
            for a in range(1, f.n + 1):
                for b in range(a, f.n + 1):
                    assert swap_labels(swap_labels(f, a, b), a, b) == f


class TestDegreeAndSubtree:
    def test_figure_degree(self):
        assert degree(RootedForest((0, 0, 1, 3, 1)), 1) == 2

    def test_edgeless(self):
        f = RootedForest((0, 0, 0))
        assert all(degree(f, v) == 0 for v in range(1, 4))

    def test_subtree_vertices(self):
        assert subtree_vertices(RootedForest((0, 0, 0, 3, 1)), 3) == {3, 4}

    def test_children(self):
        assert children(RootedForest((0, 0, 1, 3, 1)), 1) == (3, 5)

    def test_degree_sum_invariant(self):
        for f in forests_upto(5):
            total = sum(degree(f, x) for x in range(1, f.n + 1))
            assert total == f.n - f.root_count


class TestPartAssignment:
    def test_blocks_and_lookup(self):
        parts = PartAssignment((2, 3, 1))
        assert parts.n == 6
        assert [parts.part_of(v) for v in range(1, 7)] == [1, 1, 2, 2, 2, 3]
        assert list(parts.block(2)) == [3, 4, 5]

    def test_respects(self):
        parts = PartAssignment((2, 3))
        assert parts.respects(RootedForest((0, 0, 1, 1, 2)))
        assert not parts.respects(RootedForest((0, 1, 1, 1, 2)))

    def test_rejects_empty_part(self):
        with pytest.raises(ValueError):
            PartAssignment((2, 0))


class TestEdgeColored:
    def test_properness_enforced(self):
        base = RootedForest((0, 1, 1))
        with pytest.raises(ValueError, match="repeat a color"):
            EdgeColoredForest(base, 2, (0, 1, 1))
        EdgeColoredForest(base, 2, (0, 1, 2))

    def test_root_color_zero(self):
        with pytest.raises(ValueError, match="color 0"):
            EdgeColoredForest(RootedForest((0, 1)), 2, (1, 1))
        with pytest.raises(ValueError, match="out of range"):
            EdgeColoredForest(RootedForest((0, 1)), 2, (0, 3))

    def test_repeat_names_smallest_vertex(self):
        # Vertex 3 repeats color 1 (edge in and edge out) and vertex 1
        # repeats color 2 (two edges out); the message names vertex 1.
        base = RootedForest((0, 0, 2, 3, 1, 1))
        with pytest.raises(ValueError, match=r"^edges at vertex 1 repeat a color$"):
            EdgeColoredForest(base, 2, (0, 0, 1, 1, 2, 2))
        with pytest.raises(ValueError, match=r"^edges at vertex 3 repeat a color$"):
            EdgeColoredForest(base, 2, (0, 0, 1, 1, 2, 1))

    def test_is_special(self):
        base = RootedForest((0, 1, 2))
        assert not EdgeColoredForest(base, 2, (0, 2, 1)).is_special()
        assert EdgeColoredForest(base, 2, (0, 1, 2)).is_special()

    def test_colors_at(self):
        ef = EdgeColoredForest(RootedForest((0, 1, 2)), 3, (0, 1, 2))
        assert ef.colors_at(2) == {1, 2}
        assert ef.colors_at(1) == {1}

    def test_swap_colored_involution(self):
        ef = EdgeColoredForest(RootedForest((0, 1, 1, 3)), 3, (0, 1, 2, 1))
        g = swap_colored_labels(ef, 1, 3)
        assert g.base.parents == (3, 3, 0, 1)
        assert g.colors == (2, 1, 0, 1)
        assert swap_colored_labels(g, 1, 3) == ef


class TestTextFormats:
    def test_parent_array_round_trip(self):
        text = "5 3 0 0 0 3 1"
        f = parse_forest(text)
        assert f.parents == (0, 0, 0, 3, 1)
        assert render_forest(f) == text

    def test_header_mismatch(self):
        with pytest.raises(ParseError):
            parse_forest("5 2 0 0 0 3 1")
        with pytest.raises(ParseError):
            parse_forest("5 3 0 0 0 3")

    def test_bad_token_position(self):
        with pytest.raises(ParseError) as info:
            parse_forest("3 1 0 x 1")
        assert info.value.position == 6

    @pytest.mark.parametrize(
        "text, position",
        [
            ("3 1 0 1 \u0661", 8),  # an Arabic-Indic digit
            ("3 1 0 --1 1", 6),
            ("3 1 0 1\u00b2 1", 6),  # a superscript two
        ],
    )
    def test_only_ascii_integers(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_forest(text)
        assert info.value.position == position

    def test_plane_labels_are_ascii(self):
        with pytest.raises(ParseError) as info:
            parse_plane("1(\u0662)")
        assert info.value.position == 2

    def test_deep_plane_chain(self):
        for depth in DEPTHS:
            text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
            pf = parse_plane(text)
            assert render_plane(pf) == text
            assert pf.n_vertices == pf.trees[0].size == depth
            assert pf.leaf_count == 1
            assert list(pf.labels()) == list(range(1, depth + 1))
            assert PlaneForest(pf.trees) == pf
            assert plane_key(pf) == (
                tuple(x for v in range(1, depth + 1) for x in (1, v))
                + (0,) * (depth + 1)
            )

    def test_deep_plane_equality_and_hash(self):
        for depth in DEPTHS:
            text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
            a, b = parse_plane(text), parse_plane(text)
            assert a == b and hash(a) == hash(b)
            assert a.trees[0] == b.trees[0] and hash(a.trees[0]) == hash(b.trees[0])
            assert a != parse_plane(text.replace(str(depth), str(depth + 1)))
            assert a != parse_plane(text[: text.rindex("(")] + ")" * (depth - 2))

    def test_plane_equality_shares_subtrees(self):
        # Equality compares the preorder words, so a subtree shared by both
        # sides compares like any other.
        shared = PlaneNode(2, (PlaneNode(None),))
        assert PlaneNode(1, (shared,)) == PlaneNode(1, (shared,))
        assert PlaneNode(1, (shared,)) != PlaneNode(1, (shared, shared))
        assert PlaneNode(1, (PlaneNode(2),)) != PlaneNode(1, (PlaneNode(3),))
        assert PlaneNode(1) != PlaneNode(1, (PlaneNode(2),))
        assert hash(PlaneNode(1, (PlaneNode(2),))) == hash(
            PlaneNode(1, (PlaneNode(2),))
        )

    def test_plane_round_trip(self):
        text = "1(5,3(4));2"
        pf = parse_plane(text)
        assert pf.tree_count == 2
        assert pf.trees[0].children[0].label == 5
        assert pf.trees[0].children[1].label == 3
        assert render_plane(pf) == text

    def test_plane_star_leaves(self):
        pf = parse_plane("1(5(*,*),*,*);2(4(*));3(*,*,*)")
        assert pf.n_vertices == 13
        assert pf.leaf_count == 8
        assert pf.labeled_count == 5
        assert pf.is_leaf_unlabeled()

    def test_plane_errors(self):
        with pytest.raises(ParseError, match="must be leaves"):
            parse_plane("*(1)")
        with pytest.raises(ParseError, match="unterminated"):
            parse_plane("1(2")
        with pytest.raises(ParseError, match="trailing"):
            parse_plane("1(2))")
        for text in ("0", "1(0)", "0(1)", "2;0(1"):  # 0 means unlabeled in the word
            with pytest.raises(ValueError, match="^label must be positive, got 0$"):
                parse_plane(text)

    def test_plane_tree_order_enforced(self):
        with pytest.raises(ValueError, match="ascending"):
            PlaneForest((PlaneNode(2), PlaneNode(1)))

    def test_colored_round_trip(self):
        text = "6 3 0 0 0 1 3 1\n0 0 0 1 1 2"
        ef = parse_colored(text, 3)
        assert ef.colors == (0, 0, 0, 1, 1, 2)
        assert render_colored(ef) == text

    def test_colored_length_check(self):
        with pytest.raises(ParseError):
            parse_colored("3 1 0 1 1 0 1", 2)


class TestPlaneWalk:
    def test_relabel_on_one_root_path(self):
        # Labels 1 and 4 lie on one root path; the swapped trees are then
        # put back in order.
        pf = parse_plane("1(2(4(*)));3")
        assert render_plane(plane_relabel(pf, 1, 4)) == "3;4(2(1(*)))"
        assert plane_relabel(pf, 2, 2) is pf

    def test_root_labels_keep_unlabeled_roots(self):
        shapes = PlaneForest((PlaneNode(None, (PlaneNode(None),)), PlaneNode(None)))
        assert shapes.root_labels() == (None, None)
        assert parse_plane("1(*,2(*));3(*)").root_labels() == (1, 3)

    def test_root_labels_read_the_word(self, monkeypatch):
        depth = DEPTHS[-1]
        text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
        pf = parse_plane(text)

        def no_trees(self):
            raise AssertionError("root_labels built the node trees")

        monkeypatch.setattr(PlaneForest, "trees", property(no_trees))
        assert pf.root_labels() == (1,)

    def test_plane_node_repr_matches_dataclass(self):
        node = parse_plane("1(2,3(*),4(5))").trees[0]
        assert repr(node) == (
            "PlaneNode(label=1, children=(PlaneNode(label=2, children=()), "
            "PlaneNode(label=3, children=(PlaneNode(label=None, children=()),)), "
            "PlaneNode(label=4, children=(PlaneNode(label=5, children=()),))))"
        )
        assert repr(parse_plane("1(2);3")) == (
            "PlaneForest(trees=(PlaneNode(label=1, children=("
            "PlaneNode(label=2, children=()),)), PlaneNode(label=3, children=())))"
        )

    def test_deep_plane_node_repr(self):
        depth = 1200
        text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
        expected = (
            "".join(f"PlaneNode(label={v}, children=(" for v in range(1, depth + 1))
            + "))"
            + ",))" * (depth - 1)
        )
        assert repr(parse_plane(text).trees[0]) == expected
