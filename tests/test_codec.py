"""Choice-trace codecs, the fixed PRNG, and uniform sampling."""

from collections import Counter
from itertools import product

import pytest

from forestcodec import (
    ChoiceTrace,
    RootedForest,
    SplitMix64,
    decode,
    encode,
    is_descendant,
    parse_plane,
    parse_trace,
    render_colored,
    render_forest,
    render_plane,
    render_trace,
    sample_uniform,
    special_colored_count,
    trace_bounds,
    trace_space_size,
)
from forestcodec.enumeration import FamilySpec, enumerate_family


CHI2_Q999_DF83 = 128.5648


def all_traces(family, n, colors=0):
    bounds = trace_bounds(family, n, colors)
    for combo in product(*(range(1, b + 1) for b in bounds)):
        yield ChoiceTrace(family, n, colors, combo)


class TestDecodeEncode:
    def test_two_vertices(self):
        assert decode(ChoiceTrace("plain", 2)).parents == (0, 1)
        assert encode(RootedForest((0, 1))) == ChoiceTrace("plain", 2)

    def test_three_vertices(self):
        got = {decode(t).parents for t in all_traces("plain", 3)}
        want = {
            f.parents
            for f in enumerate_family(FamilySpec("plain", n=3, roots=1))
        }
        assert got == want == {(0, 1, 1), (0, 1, 2), (0, 3, 1)}

    def test_chain_trace(self):
        chain = RootedForest((0, 1, 2))
        assert encode(chain) == ChoiceTrace("plain", 3, 0, (3,))
        assert decode(ChoiceTrace("plain", 3, 0, (3,))) == chain

    def test_plain_bijection_n5(self):
        images = set()
        for t in all_traces("plain", 5):
            f = decode(t)
            assert f.parents not in images
            images.add(f.parents)
            assert encode(f) == t
        assert len(images) == 125 == trace_space_size("plain", 5)

    def test_plane_bijection_n5(self):
        images = set()
        for t in all_traces("plane", 5):
            pf = decode(t)
            key = render_plane(pf)
            assert key not in images
            images.add(key)
            assert encode(pf) == t
        # (2n-2)!/n! labeled plane trees rooted at 1
        assert len(images) == 336 == trace_space_size("plane", 5)

    def test_colored_bijection(self):
        got = {
            (decode(t).base.parents, decode(t).colors)
            for t in all_traces("colored", 3, 2)
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
                ef = decode(t)
                images.add((ef.base.parents, ef.colors))
                assert encode(ef) == t
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
        # Deep enough that the recursive dataclass equality overflowed.  A
        # codec run costs O(n^2), so the 1200-deep chain takes about 16 times
        # as long as this one.
        depth = 300
        text = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
        forest = parse_plane(text)
        assert decode(encode(forest)) == forest

    def test_encode_rejects_non_members(self):
        with pytest.raises(ValueError, match="roots"):
            encode(RootedForest((0, 0, 1)))  # two roots


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
            f = sample_uniform("plain", 7, seed=1000 + i)
            assert f.roots == (1,)
            pf = sample_uniform("plane", 6, seed=2000 + i)
            assert pf.is_fully_labeled()
            assert pf.root_labels() == (1,)
            ef = sample_uniform("colored", 5, seed=3000 + i, colors=3)
            assert ef.is_special()  # properness checked at construction
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
        # The 1..j relabeling of an unconditioned draw runs plane_relabel.
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

    def test_colored_sample_text_stable(self):
        texts = {
            render_colored(sample_uniform("colored", 6, seed=7, colors=3))
            for _ in range(3)
        }
        assert len(texts) == 1
