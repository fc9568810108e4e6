"""Closed-form counts against brute-force oracles and boundary values."""

import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import forestcodec
from forestcodec import (
    bipartite_identity,
    catalan,
    cayley,
    colored_root_degree_count,
    colored_tree_count,
    composition_stats,
    degree,
    degseq_plane_count,
    degseq_rooted_count,
    erdelyi_etherington,
    forests_with_k_trees,
    is_descendant,
    kary_forest_count,
    kary_identity,
    kary_unlabeled_count,
    multipartite_spanning_trees,
    narayana,
    plane_labeled_count,
    riordan_closed_form,
    riordan_forest_count,
    rooted_forest_count,
    special_colored_count,
    tripartite_base_count,
)
from forestcodec.counting import _exact_div
from forestcodec.enumeration import (
    FamilySpec,
    count_by_enumeration,
    enumerate_family,
)


def count(spec):
    return count_by_enumeration(spec)


class TestCayleyFamily:
    def test_cayley(self):
        assert cayley(1) == 1
        assert cayley(2) == 1
        assert cayley(3) == count(FamilySpec("plain", n=3, roots=1)) == 3
        assert cayley(5) == count(FamilySpec("plain", n=5, roots=1)) == 125

    def test_rooted_forest_count(self):
        assert rooted_forest_count(5, 3, conditioned=True) == 5
        for n in range(2, 7):
            assert rooted_forest_count(n, n - 1, conditioned=True) == 1
        assert rooted_forest_count(5, 3) == 15
        assert rooted_forest_count(5, 3) == count(FamilySpec("plain", n=5, roots=3))
        with pytest.raises(ValueError):
            rooted_forest_count(5, 5)

    def test_forests_with_k_trees(self):
        # Oracle: sum the enumeration over every k-element root set.
        from itertools import combinations

        def oracle(n, k):
            return sum(
                count(FamilySpec("plain", n=n, root_set=rs))
                for rs in combinations(range(1, n + 1), k)
            )

        assert forests_with_k_trees(4, 2) == oracle(4, 2) == 48
        assert forests_with_k_trees(3, 2) == oracle(3, 2) == 6
        assert forests_with_k_trees(4, 1) == 4 ** 3  # rooted Cayley count

    def test_riordan(self):
        assert riordan_forest_count(3, 1) == 3
        assert riordan_forest_count(6, 2) == 432
        for n in range(1, 41):
            assert riordan_forest_count(n, n) == 1
            for k in range(1, n):
                assert riordan_forest_count(n, k) == k * n ** (n - k - 1)

    def test_riordan_closed_form(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert riordan_closed_form(n, k) == riordan_forest_count(n, k)
        for n, k in ((3, 0), (3, 4), (0, 0)):
            with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n={n}$"):
                riordan_closed_form(n, k)

    def test_riordan_fresh_at_low_recursion_limit(self):
        # A fresh process starts with an empty table, and the recursion
        # limit lies far below n: the rows must fill without nesting.
        code = (
            "import sys\n"
            "from forestcodec import riordan_forest_count\n"
            "sys.setrecursionlimit(60)\n"
            "assert riordan_forest_count(150, 1) == 150 ** 148\n"
        )
        src = str(Path(forestcodec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert time.perf_counter() - start < 2


class TestMultipartite:
    def test_values_and_oracles(self):
        cases = {(2, 3): 12, (1, 1, 1): 3, (1, 1, 2): 8}
        for sizes, want in cases.items():
            assert multipartite_spanning_trees(sizes) == want
            assert count(FamilySpec("partite", part_sizes=sizes, roots=1)) == want

    def test_four_parts_against_oracle(self):
        # The general product formula, checked by enumeration beyond the
        # three-part cases the recursion covers.
        for sizes in ((1, 1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 2)):
            assert multipartite_spanning_trees(sizes) == count(
                FamilySpec("partite", part_sizes=sizes, roots=1)
            )
        assert multipartite_spanning_trees((1, 1, 1, 1)) == 16

    def test_needs_two_parts(self):
        with pytest.raises(ValueError):
            multipartite_spanning_trees((4,))

    def test_bipartite_identity(self):
        assert bipartite_identity(2, 2) == (2, 2)
        assert bipartite_identity(3, 2) == (6, 6)
        assert bipartite_identity(2, 1) == (1, 1)

    def test_tripartite_base(self):
        assert tripartite_base_count(1, 1, 1) == 3
        assert tripartite_base_count(1, 1, 2) == 8
        assert tripartite_base_count(2, 1, 1) == 4

    def test_tripartite_base_oracle(self):
        # Forests of r+s-1 tripartite trees with roots 2..r+s and vertex 1
        # below vertex r+1, counted directly for (r, s, t) = (2, 1, 1).
        spec = FamilySpec("partite", part_sizes=(2, 1, 1), root_set=(2, 3))
        members = [f for f in enumerate_family(spec) if is_descendant(f, 1, 3)]
        assert len(members) == tripartite_base_count(2, 1, 1)

    def test_tripartite_derivation_pipeline(self):
        # The whole chain behind the product formula, step by enumeration:
        # peel roots in part 1, hand the root of the shared tree from 1 to
        # r+1, peel roots in part 2, and finish with the base-family count.
        def conditioned_count(sizes, root_set, below, above):
            spec = FamilySpec("partite", part_sizes=sizes, root_set=root_set)
            return sum(
                1
                for f in enumerate_family(spec)
                if is_descendant(f, below, above)
            )

        for r, s, t in ((2, 2, 1), (2, 1, 2), (3, 2, 1)):
            sizes = (r, s, t)
            spanning = conditioned_count(sizes, (1,), r + 1, 1)
            assert spanning == multipartite_spanning_trees(sizes)

            part1_peeled = conditioned_count(
                sizes, tuple(range(1, r + 1)), r + 1, 1
            )
            assert spanning == (s + t) ** (r - 1) * part1_peeled

            rerooted = conditioned_count(
                sizes, tuple(range(2, r + 2)), 1, r + 1
            )
            assert rerooted == part1_peeled

            base = conditioned_count(sizes, tuple(range(2, r + s + 1)), 1, r + 1)
            assert rerooted == (r + t) ** (s - 1) * base
            assert base == tripartite_base_count(r, s, t)


class TestPlaneCounts:
    def test_plane_labeled(self):
        def oracle(v):
            return sum(
                count(FamilySpec("plane", n=v, root_set=(r,)))
                for r in range(1, v + 1)
            )

        assert plane_labeled_count(2) == 2
        assert plane_labeled_count(3) == oracle(3) == 12
        assert plane_labeled_count(4) == oracle(4) == 120

    def test_catalan(self):
        assert catalan(1) == 1
        assert catalan(4) == count(FamilySpec("plane", n=5, roots=1, labeled=False))
        assert catalan(5) == count(FamilySpec("plane", n=6, roots=1, labeled=False))
        assert catalan(5) == 42

    def test_narayana(self):
        def oracle(n, p):
            return count(
                FamilySpec("plane", n=n + 1, roots=1, labeled=False, leaves=p)
            )

        assert narayana(4, 2) == oracle(4, 2) == 6
        assert narayana(3, 2) == oracle(3, 2) == 3
        for n in (3, 5, 8):
            assert narayana(n, n) == 1
        for n in range(1, 21):
            assert sum(narayana(n, p) for p in range(1, n + 1)) == catalan(n)

    def test_composition_stats(self):
        def oracle(n, m):
            comps = [
                c
                for c in product(range(1, n + 1), repeat=m)
                if sum(c) == n
            ]
            return len(comps), sum(c[0] for c in comps)

        assert composition_stats(3, 2) == oracle(3, 2) == (2, 3)
        assert composition_stats(5, 3) == oracle(5, 3) == (6, 10)
        for n in (1, 4, 7):
            assert composition_stats(n, 1) == (1, n)


class TestKary:
    def test_forest_count(self):
        assert kary_forest_count(2, 2, 1) == count(
            FamilySpec("kary", arity=2, n=2, roots=1)
        )
        assert kary_forest_count(2, 2, 1) == 2
        assert kary_forest_count(2, 2, 2) == count(
            FamilySpec("kary", arity=2, n=2, roots=2)
        )
        assert kary_forest_count(2, 2, 2) == 1
        assert kary_forest_count(3, 1, 1) == 1

    def test_unlabeled(self):
        assert kary_unlabeled_count(2, 3) == count(
            FamilySpec("kary", arity=2, n=3, roots=1, labeled=False)
        )
        assert kary_unlabeled_count(2, 3) == 5
        assert kary_unlabeled_count(3, 3) == count(
            FamilySpec("kary", arity=3, n=3, roots=1, labeled=False)
        )
        assert kary_unlabeled_count(3, 3) == 12
        for k in (1, 2, 5):
            assert kary_unlabeled_count(k, 1) == 1

    def test_identity(self):
        assert kary_identity(2, 1, 1, 2) == (1, 1)
        assert kary_identity(2, 1, 1, 3) == (4, 4)
        for k in (2, 3):
            for p, q in ((1, 1), (1, 2), (2, 2)):
                lhs, rhs = kary_identity(k, p, q, p + q)
                assert lhs == rhs


class TestDegreeSequences:
    def test_plane(self):
        def oracle(d):
            n = len(d)
            return sum(
                sum(
                    1
                    for _ in enumerate_family(
                        FamilySpec("plane", n=n, root_set=(r,), degrees=tuple(d))
                    )
                )
                for r in range(1, n + 1)
            )

        assert degseq_plane_count((1, 1, 0)) == oracle((1, 1, 0)) == 2
        assert degseq_plane_count((2, 0, 0)) == oracle((2, 0, 0)) == 2
        assert degseq_plane_count((0,)) == 1
        with pytest.raises(ValueError):
            degseq_plane_count((1, 1, 1))

    def test_rooted(self):
        def oracle(d):
            n = len(d)
            return sum(
                sum(
                    1
                    for _ in enumerate_family(
                        FamilySpec("plain", n=n, root_set=(r,), degrees=tuple(d))
                    )
                )
                for r in range(1, n + 1)
            )

        assert degseq_rooted_count((2, 0, 0)) == oracle((2, 0, 0)) == 1
        assert degseq_rooted_count((1, 1, 0)) == oracle((1, 1, 0)) == 2
        for n in (3, 5, 7):
            assert degseq_rooted_count((n - 1,) + (0,) * (n - 1)) == 1

    def test_erdelyi_etherington(self):
        def shape_degree_multiplicities(pf):
            out = {}
            for d in pf.preorder_degrees:
                if d:
                    out[d] = out.get(d, 0) + 1
            return out

        def oracle(mult):
            n = 1 + sum(i * x for i, x in enumerate(mult, start=1))
            want = {i: x for i, x in enumerate(mult, start=1) if x}
            spec = FamilySpec("plane", n=n, roots=1, labeled=False)
            return sum(
                1
                for pf in enumerate_family(spec)
                if shape_degree_multiplicities(pf) == want
            )

        assert erdelyi_etherington((1, 1)) == oracle((1, 1)) == 3
        assert erdelyi_etherington((0, 0, 1)) == oracle((0, 0, 1)) == 1
        assert erdelyi_etherington((3,)) == oracle((3,)) == 1

    def test_partition_sum_is_catalan(self):
        def partitions(total, max_part):
            # multiplicity vectors (n_1 ... n_max) with sum i * n_i = total
            if max_part == 0:
                if total == 0:
                    yield ()
                return
            for last in range(total // max_part + 1):
                for rest in partitions(total - last * max_part, max_part - 1):
                    yield rest + (last,)

        for n in range(2, 9):
            total = sum(
                erdelyi_etherington(mult) for mult in partitions(n - 1, n - 1)
            )
            assert total == catalan(n - 1)


class TestColoredCounts:
    def test_special(self):
        assert special_colored_count(3, 2, 1) == count(
            FamilySpec("special-colored", n=3, colors=2, roots=1)
        )
        assert special_colored_count(3, 2, 1) == 2
        assert special_colored_count(4, 2, 1) == count(
            FamilySpec("special-colored", n=4, colors=2, roots=1)
        )
        assert special_colored_count(4, 2, 1) == 6
        for n in (3, 4, 5):
            for kc in (2, 3):
                assert special_colored_count(n, kc, n - 1, conditioned=True) == kc - 1
                assert special_colored_count(n, kc, n - 1) == (n - 1) * (kc - 1)

    def test_colored_trees(self):
        assert colored_tree_count(3, 2) == 6
        assert colored_tree_count(4, 2) == 24
        assert colored_tree_count(4, 3) == 168
        assert colored_tree_count(3, 2) == count(
            FamilySpec("colored", n=3, colors=2, roots=1)
        )
        for kc in (1, 2, 3):  # one vertex, no edge to color
            assert colored_tree_count(1, kc) == count(
                FamilySpec("colored", n=1, colors=kc)
            ) == 1

    def test_root_degree(self):
        def oracle(n, kc, r):
            spec = FamilySpec("colored", n=n, colors=kc, roots=1)
            return sum(1 for ef in enumerate_family(spec) if degree(ef.base, 1) == r)

        assert colored_root_degree_count(3, 2, 1) == oracle(3, 2, 1) == 4
        assert colored_root_degree_count(3, 2, 2) == oracle(3, 2, 2) == 2
        assert sum(colored_root_degree_count(3, 2, r) for r in (1, 2)) == 6


class TestExactness:
    def test_exact_division_guard(self):
        assert _exact_div(12, 4) == 3
        with pytest.raises(ArithmeticError):
            _exact_div(13, 4)

    def test_identity_sides_are_integers(self):
        # Rational intermediates must collapse to integers.
        for k in (1, 2, 3, 4):
            for p in (1, 2):
                for q in (1, 2):
                    for n in range(p + q, 10):
                        lhs, rhs = kary_identity(k, p, q, n)
                        assert isinstance(lhs, int) and isinstance(rhs, int)


# Input checks of the closed forms: the function, its arguments and the
# start of the ValueError's message.
BAD_ARGUMENTS = [
    (cayley, (-1,), "need n >= 1, got -1"),
    (forests_with_k_trees, (4, 4), "need 1 <= k <= n-1, got k=4, n=4"),
    (riordan_forest_count, (3, 0), "need 1 <= k <= n, got k=0, n=3"),
    (multipartite_spanning_trees, ((2, 0),), "every part must be nonempty"),
    (tripartite_base_count, (1, 0, 2), "part sizes must be positive"),
    (plane_labeled_count, (0,), "need v >= 1, got 0"),
    (catalan, (-1,), "need n >= 0, got -1"),
    (narayana, (3, 0), "need 1 <= p <= n, got p=0, n=3"),
    (narayana, (3, 4), "need 1 <= p <= n, got p=4, n=3"),
    (composition_stats, (0, 2), "need n, m >= 1, got n=0, m=2"),
    (kary_forest_count, (0, 3, 1), "need arity >= 1, got 0"),
    (kary_forest_count, (2, 3, 4), "need 1 <= roots <= internal, got 4, 3"),
    (kary_unlabeled_count, (0, 3), "need arity >= 1 and internal >= 1"),
    (kary_unlabeled_count, (2, 0), "need arity >= 1 and internal >= 1"),
    (kary_identity, (0, 1, 1, 2), "need arity >= 1, got 0"),
    (kary_identity, (-1, 1, 1, 2), "need arity >= 1, got -1"),
    (kary_identity, (2, 1, 0, 3), "need p, q >= 1 and n >= p+q, got 1, 0, 3"),
    (kary_identity, (2, 2, 2, 3), "need p, q >= 1 and n >= p+q, got 2, 2, 3"),
    (degseq_plane_count, ((),), "need at least one vertex"),
    (degseq_plane_count, ((2, -1, 0),), "degrees must be nonnegative"),
    (degseq_rooted_count, ((),), "need at least one vertex"),
    (degseq_rooted_count, ((2, -1, 0),), "degrees must be nonnegative"),
    (degseq_rooted_count, ((1, 1, 1),), "degrees must sum to n-1 = 2, got 3"),
    (erdelyi_etherington, ((1, -1),), "multiplicities must be nonnegative"),
    (special_colored_count, (4, 0, 1), "need at least one color, got 0"),
    (special_colored_count, (4, 3, 4), "need 1 <= r <= n-1, got r=4, n=4"),
    (colored_tree_count, (4, 0), "need at least one color, got 0"),
    (colored_tree_count, (0, 3), "need n >= 1, got 0"),
    (colored_root_degree_count, (4, 0, 1), "need at least one color, got 0"),
    (colored_root_degree_count, (4, 3, 0), "need 1 <= r <= n-1, got r=0, n=4"),
]


@pytest.mark.parametrize(
    "func, args, message",
    BAD_ARGUMENTS,
    ids=[f"{func.__name__}{args}" for func, args, _ in BAD_ARGUMENTS],
)
def test_bad_arguments_are_rejected(func, args, message):
    with pytest.raises(ValueError) as info:
        func(*args)
    assert str(info.value).startswith(message)


# A float, or a float entry, among each closed form's arguments: the call
# and its ValueError, which names the argument.
NON_INTEGERS = [
    (cayley, (5.0,), "n must be an int, got 5.0"),
    (rooted_forest_count, (5.0, 2), "n must be an int, got 5.0"),
    (forests_with_k_trees, (5, 2.0), "k must be an int, got 2.0"),
    (riordan_forest_count, (5.0, 2), "n must be an int, got 5.0"),
    (riordan_closed_form, (5, 2.0), "k must be an int, got 2.0"),
    (multipartite_spanning_trees, ((2, 3.0),), "parts entries must be ints, got 3.0"),
    (tripartite_base_count, (1, 1, 2.0), "t must be an int, got 2.0"),
    (bipartite_identity, (2.0, 3), "r must be an int, got 2.0"),
    (plane_labeled_count, (4.0,), "v must be an int, got 4.0"),
    (catalan, (4.0,), "n must be an int, got 4.0"),
    (narayana, (4, 2.0), "p must be an int, got 2.0"),
    (composition_stats, (4, 2.0), "m must be an int, got 2.0"),
    (kary_forest_count, (2, 3.0, 1), "internal must be an int, got 3.0"),
    (kary_unlabeled_count, (2.0, 3), "arity must be an int, got 2.0"),
    (kary_identity, (2, 1, 1, 3.0), "n must be an int, got 3.0"),
    (degseq_plane_count, ((1.0, 0),), "degrees entries must be ints, got 1.0"),
    (degseq_rooted_count, ((1, 0.0),), "degrees entries must be ints, got 0.0"),
    (erdelyi_etherington, ((1.0,),), "multiplicities entries must be ints, got 1.0"),
    (special_colored_count, (4, 3.0, 1), "colors must be an int, got 3.0"),
    (colored_tree_count, (4, 3.0), "colors must be an int, got 3.0"),
    (colored_root_degree_count, (4, 3, 1.0), "r must be an int, got 1.0"),
]


@pytest.mark.parametrize(
    "func, args, message",
    NON_INTEGERS,
    ids=[f"{func.__name__}{args}" for func, args, _ in NON_INTEGERS],
)
def test_non_integers_are_rejected(func, args, message):
    with pytest.raises(ValueError) as info:
        func(*args)
    assert str(info.value) == message
