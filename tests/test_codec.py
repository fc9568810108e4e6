"""Choice-trace codecs, the fixed PRNG, and uniform sampling."""

import pickle
from collections import Counter
from itertools import product
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest
from helpers import revalidate

from forestcodec import (
    ChoiceTrace,
    EdgeColoredForest,
    PlaneForest,
    RootedForest,
    SplitMix64,
    catalan,
    colored_root_degree_count,
    decode,
    encode,
    is_descendant,
    narayana,
    parse_plane,
    parse_trace,
    plane_labeled_count,
    render_colored,
    render_forest,
    render_plane,
    render_trace,
    rooted_forest_count,
    sample_uniform,
    special_colored_count,
    trace_bounds,
    trace_space_size,
)
from forestcodec.enumeration import FamilySpec, enumerate_family


# 0.999 quantiles of the chi-square distribution, by degrees of freedom.
CHI2_Q999_DF83 = 128.5648
CHI2_Q999_DF49 = 85.3506
CHI2_Q999_DF287 = 366.7676
CHI2_Q999_DF335 = 420.7176
# ... and for 1..30 degrees of freedom, CHI2_Q999[df - 1].
CHI2_Q999 = (
    10.8276, 13.8155, 16.2662, 18.4668, 20.5150, 22.4577, 24.3219, 26.1245,
    27.8772, 29.5883, 31.2641, 32.9095, 34.5282, 36.1233, 37.6973, 39.2524,
    40.7902, 42.3124, 43.8202, 45.3147, 46.7970, 48.2679, 49.7282, 51.1786,
    52.6197, 54.0520, 55.4760, 56.8923, 58.3012, 59.7031,
)


def all_traces(family, n, colors=0):
    bounds = trace_bounds(family, n, colors)
    for combo in product(*(range(1, b + 1) for b in bounds)):
        yield ChoiceTrace(family, n, colors, combo)


def checked(value):
    """``value``, once it is checked anew on the validating path."""
    revalidate(value)
    return value


def round_trip(forest):
    """``decode(encode(forest))``, each output checked anew."""
    return checked(decode(checked(encode(forest))))


def assert_uniform(draw, members, per_member, q999):
    """``draw(rng)`` hits every member, ``per_member`` times on average,
    with chi-square below the 0.999 quantile ``q999``."""
    draws = per_member * len(members)
    rng = SplitMix64(20261018)
    freq = Counter(draw(rng) for _ in range(draws))
    assert set(freq) == members
    chi2 = sum((c - per_member) ** 2 / per_member for c in freq.values())
    assert chi2 < q999, f"chi-square {chi2:.2f}"


class TestDecodeEncode:
    def test_two_vertices(self):
        assert checked(decode(ChoiceTrace("plain", 2))).parents == (0, 1)
        assert checked(encode(RootedForest((0, 1)))) == ChoiceTrace("plain", 2)

    def test_three_vertices(self):
        got = {checked(decode(t)).parents for t in all_traces("plain", 3)}
        want = {
            f.parents
            for f in enumerate_family(FamilySpec("plain", n=3, roots=1))
        }
        assert got == want == {(0, 1, 1), (0, 1, 2), (0, 3, 1)}

    def test_chain_trace(self):
        chain = RootedForest((0, 1, 2))
        assert checked(encode(chain)) == ChoiceTrace("plain", 3, 0, (3,))
        assert checked(decode(ChoiceTrace("plain", 3, 0, (3,)))) == chain

    def test_plain_bijection_n5(self):
        images = set()
        for t in all_traces("plain", 5):
            f = checked(decode(t))
            assert f.parents not in images
            images.add(f.parents)
            assert checked(encode(f)) == t
        assert len(images) == 125 == trace_space_size("plain", 5)

    def test_plane_bijection_n5(self):
        images = set()
        for t in all_traces("plane", 5):
            pf = checked(decode(t))
            key = render_plane(pf)
            assert key not in images
            images.add(key)
            assert checked(encode(pf)) == t
        # (2n-2)!/n! labeled plane trees rooted at 1
        assert len(images) == 336 == trace_space_size("plane", 5)

    def test_colored_bijection(self):
        got = {
            (ef.base.parents, ef.colors)
            for ef in map(checked, map(decode, all_traces("colored", 3, 2)))
        }
        want = {
            (ef.base.parents, ef.colors)
            for ef in enumerate_family(
                FamilySpec("colored", n=3, colors=2, roots=1, conditioned=True)
            )
            if ef.is_special()
        }
        assert got == want
        assert len(got) == 2

        for n, kc in ((4, 3), (5, 2), (5, 3)):
            images = set()
            for t in all_traces("colored", n, kc):
                ef = checked(decode(t))
                images.add((ef.base.parents, ef.colors))
                assert checked(encode(ef)) == t
            assert len(images) == trace_space_size("colored", n, kc)
            assert len(images) == special_colored_count(n, kc, 1, conditioned=True)
        assert trace_space_size("colored", 4, 3) == 84

    def test_rejects_bad_traces(self):
        with pytest.raises(ValueError, match="choices"):
            ChoiceTrace("plain", 5, 0, (1, 2))
        with pytest.raises(ValueError, match="out of range"):
            ChoiceTrace("plain", 5, 0, (1, 2, 6))
        with pytest.raises(ValueError, match="colors"):
            ChoiceTrace("colored", 4, 1, (1, 1, 1))

    def test_deep_plane_round_trip(self):
        # Deep enough that the recursive dataclass equality overflowed.
        depth = 300
        text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
        forest = parse_plane(text)
        assert round_trip(forest) == forest

    def test_deep_plane_round_trip_full_depth(self):
        # The 1200-deep chain: every forward step finds vertex n below k
        # only at the bottom of the chain.
        depth = 1200
        text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
        forest = parse_plane(text)
        assert round_trip(forest) == forest

    @pytest.mark.parametrize("family", ("plain", "plane", "colored"))
    def test_deep_chain_round_trip(self, family):
        # The chain 1-2-...-n: every forward step takes vertex n out of
        # tree 1.  Colored edges alternate colors 1 and 2 of 3.
        n = 20_000
        forest = RootedForest(tuple(range(n)))
        if family == "plane":
            forest = parse_plane("(".join(map(str, range(1, n + 1))) + ")" * (n - 1))
        elif family == "colored":
            colors = (0,) + tuple(1 + v % 2 for v in range(n - 1))
            forest = EdgeColoredForest(forest, 3, colors)
        assert round_trip(forest) == forest

    @pytest.mark.parametrize("family", ("plain", "plane"))
    @pytest.mark.parametrize("shape", ("star", "broom"))
    def test_wide_round_trip(self, family, shape):
        # The star hangs every vertex below 1; the broom hangs 2 and n below
        # 1 and 3..n-1 below 2.  Every step cuts from, or hangs below, a
        # vertex of high degree, and the trees joined are lopsided.
        n = 20_000
        below = [range(2, n + 1)] if shape == "star" else [(2, n), range(3, n)]
        if family == "plain":
            parents = [0] * n
            for v, kids in enumerate(below, 1):
                for u in kids:
                    parents[u - 1] = v
            forest = RootedForest(tuple(parents))
        else:
            inner = ",".join(map(str, below[-1]))
            forest = parse_plane(f"1({inner})" if shape == "star" else f"1(2({inner}),{n})")
        assert round_trip(forest) == forest

    @pytest.mark.parametrize("choices", ((2, 9, 8, 7), (2, 9, 9, 9)), ids=("in", "out"))
    def test_decode_takes_traces_only(self, choices):
        # A trace's constructor checks its choices, so decode builds its
        # result unchecked from a ChoiceTrace alone; (2, 9, 9, 9) would give
        # color 4 of 3.
        fake = SimpleNamespace(family="colored", n=5, colors=3, choices=choices)
        with pytest.raises(TypeError, match="^cannot decode SimpleNamespace$"):
            decode(fake)

    @pytest.mark.parametrize("text", ("plain 4 : 2 3", "plane 4 : 5 3", "colored 4 3 : 2 1 1"))
    def test_copies_of_outputs_are_checked(self, text, monkeypatch):
        # decode builds its result unchecked; a pickled or replaced copy
        # goes through the constructor's check, __post_init__.
        forest = decode(parse_trace(text))
        seen = []
        for cls in (RootedForest, PlaneForest, EdgeColoredForest):
            def spy(value, check=cls.__post_init__):
                seen.append(type(value))
                check(value)
            monkeypatch.setattr(cls, "__post_init__", spy)
        assert pickle.loads(pickle.dumps(forest)) == forest
        assert type(forest) in seen
        seen.clear()
        last = forest.__slots__[-1]
        assert forest.replace(**{last: getattr(forest, last)}) == forest
        assert seen == [type(forest)]

    def test_encode_rejects_non_members(self):
        with pytest.raises(ValueError, match="roots"):
            encode(RootedForest((0, 0, 1)))  # two roots

    @pytest.mark.parametrize("family", ("plain", "plane"))
    def test_rejects_colors_on_uncolored_traces(self, family):
        with pytest.raises(ValueError, match=f"^{family} forests take no colors, got 9$"):
            ChoiceTrace(family, 4, 9, (1, 1))


class TestTraceText:
    def test_round_trip(self):
        t = ChoiceTrace("plain", 5, 0, (3, 1, 4))
        assert render_trace(t) == "plain 5 : 3 1 4"
        assert parse_trace("plain 5 : 3 1 4") == t

    def test_colored_params(self):
        t = ChoiceTrace("colored", 4, 3, (2, 5, 1))
        assert render_trace(t) == "colored 4 3 : 2 5 1"
        assert parse_trace(render_trace(t)) == t

    def test_empty_choices(self):
        t = ChoiceTrace("plain", 2)
        assert render_trace(t) == "plain 2 :"
        assert parse_trace("plain 2 :") == t

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_trace("plain 5 3 1 4")
        with pytest.raises(ValueError):
            parse_trace("colored 4 : 1 1")


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs for seed 0, cross-checked against a C implementation
        # of the published algorithm.
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0x09AAB36CFDA2D1B3,
            0x5B00C67197590451,
            0x0EB2AFB57F7F9972,
        ]

    def test_below_range_and_determinism(self):
        g1, g2 = SplitMix64(99), SplitMix64(99)
        draws = [g1.below(7) for _ in range(2000)]
        assert draws == [g2.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_below_rejects_zero(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)


class TestSampling:
    def test_same_seed_same_forest(self):
        a = sample_uniform("plain", 9, seed=42)
        b = sample_uniform("plain", 9, seed=42)
        assert a == b
        assert render_forest(a) == render_forest(b)

    def test_family_invariants_hold(self):
        for i in range(300):
            f = checked(sample_uniform("plain", 7, seed=1000 + i))
            assert f.roots == (1,)
            pf = checked(sample_uniform("plane", 6, seed=2000 + i))
            assert pf.is_fully_labeled()
            assert pf.root_labels() == (1,)
            ef = checked(sample_uniform("colored", 5, seed=3000 + i, colors=3))
            assert ef.is_special()  # properness checked by checked()
            assert ef.base.roots == (1,)

    def test_unconditioned_roots(self):
        seen_pivot_roots = set()
        for i in range(60):
            f = sample_uniform(
                "plain", 5, seed=i, roots=3, conditioned=False
            )
            assert f.roots == (1, 2, 3)
            for j in (1, 2, 3):
                if is_descendant(f, 5, j):
                    seen_pivot_roots.add(j)
        assert seen_pivot_roots == {1, 2, 3}

    def test_conditioned_multi_root(self):
        for i in range(40):
            f = sample_uniform("plain", 5, seed=500 + i, roots=2)
            assert f.roots == (1, 2)
            assert is_descendant(f, 5, 1)

    def test_unconditioned_plane_is_uniform(self):
        # An unconditioned draw gives label 1 to a root drawn from 1..j by
        # exchanging two labels of the run engine.
        members = set(enumerate_family(FamilySpec("plane", n=5, roots=2)))
        assert len(members) == 84
        draws = 16_000
        rng = SplitMix64(20261018)
        freq = Counter(
            sample_uniform("plane", 5, seed=0, roots=2, conditioned=False, rng=rng)
            for _ in range(draws)
        )
        assert set(freq) == members
        expected = draws / len(members)
        chi2 = sum((c - expected) ** 2 / expected for c in freq.values())
        assert chi2 < CHI2_Q999_DF83, f"chi-square {chi2:.2f}"

    def test_colored_is_uniform(self):
        # Every choice names a (vertex, color) pair by counting free colors.
        members = set(
            enumerate_family(FamilySpec("special-colored", n=4, roots=1, colors=3))
        )
        assert len(members) == 84
        draws = 16_000
        rng = SplitMix64(20261018)
        freq = Counter(
            sample_uniform("colored", 4, seed=0, colors=3, rng=rng)
            for _ in range(draws)
        )
        assert set(freq) == members
        expected = draws / len(members)
        chi2 = sum((c - expected) ** 2 / expected for c in freq.values())
        assert chi2 < CHI2_Q999_DF83, f"chi-square {chi2:.2f}"

    def test_plane_one_root_is_uniform(self):
        members = set(enumerate_family(FamilySpec("plane", n=5, roots=1)))
        assert len(members) == 336
        assert_uniform(
            lambda rng: sample_uniform("plane", 5, seed=0, rng=rng),
            members, 50, CHI2_Q999_DF335,
        )

    def test_unconditioned_plain_is_uniform(self):
        members = set(enumerate_family(FamilySpec("plain", n=5, roots=2)))
        assert len(members) == 50
        assert_uniform(
            lambda rng: sample_uniform(
                "plain", 5, seed=0, roots=2, conditioned=False, rng=rng
            ),
            members, 100, CHI2_Q999_DF49,
        )

    def test_colored_multi_root_is_uniform(self):
        members = set(
            enumerate_family(FamilySpec("special-colored", n=5, roots=2, colors=3))
        )
        assert len(members) == 288
        assert_uniform(
            lambda rng: sample_uniform(
                "colored", 5, seed=0, colors=3, roots=2, conditioned=False,
                rng=rng,
            ),
            members, 50, CHI2_Q999_DF287,
        )

    def test_colored_sample_text_stable(self):
        texts = {
            render_colored(sample_uniform("colored", 6, seed=7, colors=3))
            for _ in range(3)
        }
        assert len(texts) == 1

    @pytest.mark.parametrize("family", ("plain", "plane"))
    def test_rejects_colors_on_uncolored_families(self, family):
        with pytest.raises(ValueError, match=f"^{family} forests take no colors, got 7$"):
            sample_uniform(family, 5, 1, colors=7)

    @pytest.mark.parametrize("family", ("plain", "plane", "colored"))
    @pytest.mark.parametrize("n", (0, -3))
    def test_rejects_empty_and_negative_n(self, family, n):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            sample_uniform(family, n, seed=1, colors=3)


# One statistic per codec family, with its exact distribution over the
# one-root family on n vertices: weight[x] members take the value x, so the
# weights sum to the family's count.
def plain_root_degree(n):
    weights = {d: comb(n - 2, d - 1) * (n - 1) ** (n - 1 - d) for d in range(1, n)}
    return (lambda f: f.parents.count(1)), weights, rooted_forest_count(n, 1)


def plane_leaf_count(n):
    weights = {p: factorial(n - 1) * narayana(n - 1, p) for p in range(1, n)}
    count, rest = divmod(plane_labeled_count(n), n)  # root 1 of n labels
    assert rest == 0
    return (lambda f: f.preorder_degrees.count(0)), weights, count


def colored_root_degree(n, kc=3):
    # The root avoids the last color: (kc-r)/kc of the trees with root
    # degree r are special.
    weights = {
        r: (kc - r) * colored_root_degree_count(n, kc, r) // kc for r in range(1, kc)
    }
    return (lambda f: f.base.parents.count(1)), weights, special_colored_count(n, kc, 1)


DISTRIBUTIONS = {
    "plain": (0, plain_root_degree),
    "plane": (0, plane_leaf_count),
    "colored": (3, colored_root_degree),
}


def pooled_chi2(freq, weights, draws):
    """Chi-square of the counts ``freq`` against ``weights``, with bins
    pooled in key order until each expects at least 5 draws, and its
    degrees of freedom."""
    assert set(freq) <= set(weights)
    total = sum(weights.values())
    pooled, expected, observed = [], 0.0, 0
    for x in sorted(weights):
        expected += draws * weights[x] / total
        observed += freq[x]
        if expected >= 5:
            pooled.append((expected, observed))
            expected, observed = 0.0, 0
    last_expected, last_observed = pooled.pop()
    pooled.append((last_expected + expected, last_observed + observed))
    chi2 = sum((o - e) ** 2 / e for e, o in pooled)
    return chi2, len(pooled) - 1


@pytest.mark.parametrize("n", (100, 200))
@pytest.mark.parametrize("family", sorted(DISTRIBUTIONS))
def test_sampler_distribution_at_size(family, n):
    """A statistic of uniform samples at sizes no oracle reaches follows its
    exact distribution: plain root degree, plane leaf count and colored
    (kc=3) root degree."""
    colors, distribution = DISTRIBUTIONS[family]
    statistic, weights, count = distribution(n)
    assert sum(weights.values()) == count == trace_space_size(family, n, colors)
    draws = 400
    rng = SplitMix64(20261019 + n)
    freq = Counter(
        statistic(sample_uniform(family, n, seed=0, colors=colors, rng=rng))
        for _ in range(draws)
    )
    chi2, df = pooled_chi2(freq, weights, draws)
    assert df >= 1
    assert chi2 < CHI2_Q999[df - 1], f"chi-square {chi2:.2f} on {df} df"


# Per family: (trees on m vertices rooted at their least label, forests on
# s vertices with j roots, the j least labels).  A forest made only of its
# roots counts once.
TREE_ONE_PARTS = {
    "plain": (
        lambda m, kc: m ** max(m - 2, 0),
        lambda s, j, kc: 1 if s == j else rooted_forest_count(s, j),
    ),
    "plane": (
        lambda m, kc: catalan(m - 1) * factorial(m - 1),
        lambda s, j, kc: j * comb(2 * s - j - 1, s - j) * factorial(s - j) // s,
    ),
    "colored": (
        lambda m, kc: 1 if m == 1 else special_colored_count(m, kc, 1),
        lambda s, j, kc: 1 if s == j else special_colored_count(s, kc, j),
    ),
}


def tree_one_weights(n, r, conditioned, family="plain", kc=0):
    """Members of the family with roots 1..r whose tree 1 has s vertices.
    Tree 1 holds vertex 1 (and vertex n when conditioned) and s-1 (or s-2)
    of the other non-roots, is one of the family's trees on s vertices
    rooted at 1, and the other n-s vertices form a forest on roots 2..r."""
    trees, forests = TREE_ONE_PARTS[family]
    fixed = 2 if conditioned else 1  # the vertices tree 1 must hold
    return {
        s: comb(n - r - fixed + 1, s - fixed) * trees(s, kc) * forests(n - s, r - 1, kc)
        for s in range(fixed, n - r + 2)
    }


def tree_one_size(forest):
    """The number of vertices of tree 1."""
    if isinstance(forest, PlaneForest):
        return forest.trees[0].size
    base = getattr(forest, "base", forest)
    return sum(is_descendant(base, v, 1) for v in range(1, base.n + 1))


@pytest.mark.parametrize("family, n, kcs", [
    ("plain", 6, (0,)), ("plane", 6, (0,)), ("colored", 5, (2, 3)),
], ids=("plain", "plane", "colored"))
@pytest.mark.parametrize("roots", (2, 3), ids=("roots2", "roots3"))
@pytest.mark.parametrize("conditioned", (True, False), ids=("conditioned", "unconditioned"))
def test_tree_one_weights_match_the_oracle(family, n, kcs, roots, conditioned):
    oracle_family = "special-colored" if family == "colored" else family
    for m, kc in product(range(3, n + 1), kcs):
        if roots >= m:
            continue
        spec = FamilySpec(
            oracle_family, n=m, roots=roots, colors=kc, conditioned=conditioned
        )
        sizes = Counter(map(tree_one_size, enumerate_family(spec)))
        weights = tree_one_weights(m, roots, conditioned, family, kc)
        assert sizes == {s: w for s, w in weights.items() if w}


# Per case: the colors, and the degrees of freedom the pooled tree-1 sizes
# have at n = 100 with three roots and 400 draws, with the 0.999 quantile.
TREE_ONE_CASES = {
    "conditioned": ("plain", 0, True, 36, 67.9852),
    "unconditioned": ("plain", 0, False, 34, 65.2472),
    "plane-conditioned": ("plane", 0, True, 29, 58.3012),
    "plane-unconditioned": ("plane", 0, False, 28, 56.8923),
    "colored-conditioned": ("colored", 3, True, 43, 77.4186),
    "colored-unconditioned": ("colored", 3, False, 40, 73.4020),
}


@pytest.mark.parametrize("case", TREE_ONE_CASES)
def test_sampler_distribution_with_roots(case):
    """Samples at n = 100 with three roots, conditioned on vertex n in tree
    1 or not, follow the exact distribution of tree 1's size: plain, plane
    and colored (kc=3)."""
    family, colors, conditioned, want_df, quantile = TREE_ONE_CASES[case]
    n, roots, draws = 100, 3, 400
    weights = tree_one_weights(n, roots, conditioned, family, colors)
    # The sampler draws the choices of the steps from n-1 roots down to
    # ``roots``, and relabels the pivot root when unconditioned.
    bounds = trace_bounds(family, n, colors)
    count = prod(bounds[: len(bounds) - roots + 1]) * (1 if conditioned else roots)
    assert sum(weights.values()) == count
    rng = SplitMix64(20261019 + n)
    freq = Counter(
        tree_one_size(sample_uniform(
            family, n, seed=0, colors=colors, roots=roots,
            conditioned=conditioned, rng=rng,
        ))
        for _ in range(draws)
    )
    chi2, df = pooled_chi2(freq, weights, draws)
    assert df == want_df
    assert chi2 < quantile, f"chi-square {chi2:.2f} on {df} df"
