"""The brute-force oracles: order, closure, counts, and the budget guard."""

from itertools import islice

import pytest

from forestcodec import (
    EdgeColoredForest,
    PartAssignment,
    is_descendant,
    parse_plane,
    render_plane,
)
from forestcodec.enumeration import (
    BudgetExceededError,
    FamilySpec,
    canonical_key,
    count_by_enumeration,
    enumerate_degree_filtered,
    enumerate_family,
    verify_recurrence,
)


class TestPlainStream:
    def test_three_vertex_trees(self):
        got = [f.parents for f in enumerate_family(FamilySpec("plain", n=3, roots=1))]
        assert got == [(0, 1, 1), (0, 1, 2), (0, 3, 1)]

    def test_two_vertex_tree(self):
        got = list(enumerate_family(FamilySpec("plain", n=2, roots=1)))
        assert [f.parents for f in got] == [(0, 1)]

    def test_cayley_counts(self):
        for n in range(1, 7):
            assert count_by_enumeration(FamilySpec("plain", n=n, roots=1)) == (
                1 if n <= 2 else n ** (n - 2)
            )

    def test_boundary_maximal_roots(self):
        for n in range(2, 7):
            spec = FamilySpec("plain", n=n, roots=n - 1, conditioned=True)
            assert count_by_enumeration(spec) == 1


class TestPartiteStream:
    def test_k23_spanning_trees(self):
        spec = FamilySpec("partite", part_sizes=(2, 3), roots=1)
        assert count_by_enumeration(spec) == 12

    def test_closure(self):
        parts = PartAssignment((2, 3))
        spec = FamilySpec("partite", part_sizes=(2, 3), roots=2, conditioned=True)
        members = list(enumerate_family(spec))
        assert members
        for f in members:
            assert f.has_standard_roots(2)
            assert parts.respects(f)
            assert is_descendant(f, 3, 1)

    def test_singleton_parts_match_plain(self):
        for n in (3, 4):
            for k in (1, 2):
                plain = [
                    f.parents
                    for f in enumerate_family(FamilySpec("plain", n=n, roots=k))
                ]
                singl = [
                    f.parents
                    for f in enumerate_family(
                        FamilySpec("partite", part_sizes=(1,) * n, roots=k)
                    )
                ]
                assert plain == singl


class TestPlaneStream:
    def test_unlabeled_shape_count(self):
        spec = FamilySpec("plane", n=5, roots=1, labeled=False)
        assert count_by_enumeration(spec) == 14

    def test_labeled_total(self):
        total = sum(
            count_by_enumeration(FamilySpec("plane", n=3, root_set=(r,)))
            for r in (1, 2, 3)
        )
        assert total == 12

    def test_strictly_increasing_keys(self):
        for spec in (
            FamilySpec("plane", n=4, roots=1),
            FamilySpec("plane", n=5, roots=2, conditioned=True),
            FamilySpec("plane", n=5, root_set=(2, 4)),
            FamilySpec("plane", n=6, roots=1, labeled=False),
            FamilySpec("plane", n=7, roots=3, labeled=False),
            FamilySpec("kary", n=3, arity=2, roots=2),
            FamilySpec("kary", n=4, arity=3, labeled=False),
            FamilySpec("plain", n=4, roots=2),
            FamilySpec("leafplane", n=5, leaves=2, roots=1, conditioned=True),
            FamilySpec("leafplane", n=8, leaves=3, roots=3),
            FamilySpec("special-colored", n=4, colors=3, roots=1, conditioned=True),
        ):
            keys = [canonical_key(x) for x in enumerate_family(spec)]
            assert keys, spec
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_streams_lazily(self):
        # The family has 8! * 1430 members, far over the budget of 100.
        spec = FamilySpec("plane", n=9, roots=1)
        first = list(islice(enumerate_family(spec, budget=100), 3))
        keys = [canonical_key(pf) for pf in first]
        assert len(keys) == 3
        assert keys[0] < keys[1] < keys[2]

    @pytest.mark.parametrize(
        "spec",
        [
            # 6! * 13860 and 7! * 1430 members, far over the budget of 100.
            FamilySpec("leafplane", n=12, leaves=5, roots=1),
            FamilySpec("kary", n=8, arity=2, roots=1),
        ],
        ids=lambda spec: spec.family,
    )
    def test_leaf_unlabeled_streams_lazily(self, spec):
        first = list(islice(enumerate_family(spec, budget=100), 3))
        keys = [canonical_key(pf) for pf in first]
        assert len(keys) == 3
        assert keys[0] < keys[1] < keys[2]

    def test_key_of_a_deep_chain(self):
        chain = parse_plane("(".join(map(str, range(1, 1201))) + ")" * 1199)
        key = canonical_key(chain)
        assert key == tuple(x for v in range(1, 1201) for x in (1, v)) + (0,) * 1201


class TestColoredStream:
    def test_colored_trees(self):
        spec = FamilySpec("colored", n=3, colors=2, roots=1)
        assert count_by_enumeration(spec) == 6

    def test_special_colored(self):
        spec = FamilySpec("special-colored", n=3, colors=2, roots=1)
        assert count_by_enumeration(spec) == 2

    def test_closure(self):
        spec = FamilySpec(
            "special-colored", n=4, colors=3, roots=2, conditioned=True
        )
        members = list(enumerate_family(spec))
        assert members
        for ef in members:
            assert isinstance(ef, EdgeColoredForest)  # construction validated
            assert ef.is_special()
            assert ef.base.has_standard_roots(2)
            assert is_descendant(ef.base, 4, 1)


class TestLeafPlaneStream:
    def test_closure(self):
        spec = FamilySpec("leafplane", n=6, leaves=3, roots=2, conditioned=True)
        members = list(enumerate_family(spec))
        assert members
        for pf in members:
            assert pf.is_leaf_unlabeled()
            assert pf.leaf_count == 3
            assert pf.root_labels() == (1, 2)
            assert set(pf.labels()) == {1, 2, 3}


class TestDegreeFiltered:
    def test_plane_chain_degrees(self):
        total = 0
        for r in (1, 2, 3):
            spec = FamilySpec("plane", n=3, root_set=(r,))
            total += sum(1 for _ in enumerate_degree_filtered(spec, (1, 1, 0)))
        assert total == 2

    def test_rooted_star(self):
        total = 0
        for r in (1, 2, 3):
            spec = FamilySpec("plain", n=3, root_set=(r,))
            total += sum(1 for _ in enumerate_degree_filtered(spec, (2, 0, 0)))
        assert total == 1

    def test_bad_sum_is_empty(self):
        spec = FamilySpec("plain", n=3, roots=1)
        assert list(enumerate_degree_filtered(spec, (1, 1, 1))) == []


class TestVerifyRecurrence:
    def test_plain_five(self):
        rows = verify_recurrence("plain", n=5)
        assert [(r.lhs, r.multiplier, r.rhs) for r in rows] == [
            (125, 5, 25),
            (25, 5, 5),
            (5, 5, 1),
        ]
        assert all(r.ok for r in rows)

    def test_colored(self):
        rows = verify_recurrence("colored", n=4, colors=3)
        assert all(r.ok for r in rows)
        assert [r.multiplier for r in rows] == [6, 7]

    def test_partite(self):
        rows = verify_recurrence("partite", part_sizes=(2, 3))
        assert all(r.ok for r in rows)
        assert rows[0].multiplier == 3

    def test_leafplane(self):
        rows = verify_recurrence("leafplane", n=6, leaves=2)
        assert all(r.ok for r in rows)
        assert [r.multiplier for r in rows] == [3, 4]

    @pytest.mark.parametrize("family", ["plain", "plane"])
    def test_steps_in_any_order_match_single_steps(self, family):
        """Row k's rhs is row k+1's lhs, counted once per call: repeated and
        unordered steps give the rows of separate one-step calls."""
        steps = (4, 2, 4, 3)
        rows = verify_recurrence(family, n=5, k_range=steps)
        assert rows == [verify_recurrence(family, n=5, k_range=(k,))[0] for k in steps]

    def test_each_count_has_its_own_budget(self):
        # The k=1 count spends 5**4 = 625 candidates, k=2 then 125, and so on.
        assert len(verify_recurrence("plain", n=5, budget=625)) == 3
        with pytest.raises(BudgetExceededError):
            verify_recurrence("plain", n=5, budget=624)


class TestBudget:
    def test_guard_trips(self):
        with pytest.raises(BudgetExceededError):
            count_by_enumeration(FamilySpec("plain", n=12, roots=1))

    def test_explicit_budget(self):
        with pytest.raises(BudgetExceededError):
            count_by_enumeration(FamilySpec("plain", n=4, roots=1), budget=10)

    def test_plane_spends_one_per_candidate(self):
        # 10 forests with roots 1, 2 on four labels; 5 have 4 in tree 1.
        spec = FamilySpec("plane", n=4, roots=2, conditioned=True)
        assert count_by_enumeration(spec, budget=10) == 5
        # The stream yields 4 of the 5 before its 10th candidate.
        got = []
        with pytest.raises(BudgetExceededError):
            got.extend(enumerate_family(spec, budget=9))
        assert [render_plane(pf) for pf in got] == [
            "1(3,4);2", "1(3(4));2", "1(4);2(3)", "1(4,3);2"
        ]

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FORESTCODEC_ORACLE_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            count_by_enumeration(FamilySpec("plain", n=4, roots=1))
        monkeypatch.setenv("FORESTCODEC_ORACLE_BUDGET", "not-a-number")
        with pytest.raises(ValueError):
            count_by_enumeration(FamilySpec("plain", n=4, roots=1))

    def test_nonpositive_budget(self):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="must be positive"):
                count_by_enumeration(FamilySpec("plain", n=4, roots=1), budget)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            list(enumerate_family(FamilySpec("weird", n=3)))

    def test_conditioned_needs_root_one(self):
        with pytest.raises(ValueError, match="vertex 1"):
            list(
                enumerate_family(
                    FamilySpec("plain", n=3, root_set=(2,), conditioned=True)
                )
            )

    def test_root_count_out_of_range(self):
        with pytest.raises(ValueError, match="root count"):
            list(enumerate_family(FamilySpec("partite", part_sizes=(2, 2), roots=5)))

    @pytest.mark.parametrize(
        "spec, param",
        [
            (FamilySpec("leafplane", n=5, leaves=2, degrees=(9,)), "degrees"),
            (FamilySpec("kary", n=2, arity=2, degrees=(2, 0, 0, 0, 0)), "degrees"),
            (FamilySpec("plane", n=7, labeled=False, degrees=(1, 1)), "degrees"),
            (FamilySpec("kary", n=2, arity=2, labeled=False, degrees=(2,)), "degrees"),
            (FamilySpec("plane", n=4, labeled=False, conditioned=True), "conditioned"),
            (
                FamilySpec("kary", n=2, arity=2, labeled=False, conditioned=True),
                "conditioned",
            ),
            (FamilySpec("kary", n=2, arity=2, labeled=False, roots=3), "roots"),
            (FamilySpec("plain", n=3, labeled=False), "unlabeled"),
            (FamilySpec("partite", part_sizes=(2, 2), labeled=False), "unlabeled"),
            (FamilySpec("colored", n=3, colors=2, labeled=False), "unlabeled"),
            (FamilySpec("special-colored", n=3, colors=2, labeled=False), "unlabeled"),
            (FamilySpec("leafplane", n=5, leaves=2, labeled=False), "unlabeled"),
            (FamilySpec("plain", n=3, leaves=1), "leaves"),
            (FamilySpec("partite", part_sizes=(2, 2), leaves=1), "leaves"),
            (FamilySpec("kary", n=2, arity=2, leaves=3), "leaves"),
            (FamilySpec("colored", n=3, colors=2, leaves=1), "leaves"),
            (FamilySpec("special-colored", n=3, colors=2, leaves=1), "leaves"),
            (FamilySpec("plain", n=3, colors=3), "^plain forests take no colors, got 3$"),
            (FamilySpec("kary", n=2, arity=2, colors=2), "take no colors, got 2"),
            (FamilySpec("plain", n=3, arity=2), "^plain forests take no arity, got 2$"),
            (FamilySpec("colored", n=3, colors=2, arity=2), "take no arity, got 2"),
            (FamilySpec("plane", n=3, part_sizes=(2, 3)), "take no part_sizes, got"),
            (FamilySpec("partite", part_sizes=(2, 3), n=5), "take no n, got 5"),
        ],
    )
    def test_ignored_parameters_are_rejected(self, spec, param):
        """A parameter the family's generator would drop names itself."""
        with pytest.raises(ValueError, match=param):
            spec.validate()

    def test_parameters_the_family_uses_still_pass(self):
        for spec in (
            FamilySpec("plane", n=3, degrees=(2, 0, 0)),
            FamilySpec("plane", n=4, labeled=False, leaves=2),
            FamilySpec("kary", n=2, arity=2, roots=2, conditioned=True),
            FamilySpec("kary", n=2, arity=2, labeled=False),
            FamilySpec("colored", n=3, colors=2, degrees=(2, 0, 0)),
        ):
            spec.validate()


# Family specs that validate() rejects, with the start of the message.
BAD_SPECS = {
    "partite with one part": (
        FamilySpec("partite", part_sizes=(3,)),
        "partite family needs at least two nonempty parts",
    ),
    "kary arity 0": (FamilySpec("kary", n=2, arity=0), "kary needs arity >= 1"),
    "root set not ascending": (
        FamilySpec("plain", n=3, root_set=(2, 1)),
        "bad root set (2, 1)",
    ),
    "empty root set": (FamilySpec("plain", n=3, root_set=()), "bad root set ()"),
    "root set past n": (FamilySpec("plain", n=3, root_set=(4,)), "bad root set (4,)"),
    "leafplane root set": (
        FamilySpec("leafplane", n=5, leaves=2, root_set=(1,)),
        "leafplane roots are always labeled 1..r",
    ),
    "kary root set": (
        FamilySpec("kary", n=2, arity=2, root_set=(1,)),
        "kary roots are always labeled 1..r",
    ),
    "colored without colors": (
        FamilySpec("colored", n=3),
        "colored families need at least one color",
    ),
    "negative degrees": (
        FamilySpec("plain", n=3, degrees=(2, 0, -1)),
        "degrees must be nonnegative",
    ),
    # The numbers of a spec are ints.
    "n not an int": (FamilySpec("plain", n=4.0), "n must be an int, got 4.0"),
    "roots not an int": (
        FamilySpec("plain", n=4, roots=2.0),
        "roots must be an int, got 2.0",
    ),
    "leaves not an int": (
        FamilySpec("plane", n=4, leaves=2.0),
        "leaves must be an int, got 2.0",
    ),
    "part size not an int": (
        FamilySpec("partite", part_sizes=(2, 3.0)),
        "part_sizes entries must be ints, got 3.0",
    ),
    "root set entry not an int": (
        FamilySpec("plain", n=3, root_set=(1, 2.0)),
        "root_set entries must be ints, got 2.0",
    ),
    "degree not an int": (
        FamilySpec("plain", n=3, degrees=(2, 0, 0.0)),
        "degrees entries must be ints, got 0.0",
    ),
}


@pytest.mark.parametrize("case", BAD_SPECS)
def test_bad_specs_are_rejected(case):
    spec, message = BAD_SPECS[case]
    with pytest.raises(ValueError) as info:
        spec.validate()
    assert str(info.value).startswith(message)
