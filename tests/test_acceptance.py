"""Acceptance criteria: every check is exact, with a wall-clock budget.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one pass/fail
line per criterion.
"""

import time
from collections import Counter
from contextlib import contextmanager
from itertools import product
from math import factorial

from forestcodec import (
    ChoiceTrace,
    SplitMix64,
    bipartite_identity,
    catalan,
    cayley,
    colored_choice_count,
    colored_forward,
    colored_inverse,
    colored_root_degree_count,
    colored_tree_count,
    decode,
    degseq_plane_count,
    degseq_rooted_count,
    encode,
    erdelyi_etherington,
    kary_forest_count,
    kary_identity,
    kary_unlabeled_count,
    leafplane_forward,
    leafplane_inverse,
    multipartite_spanning_trees,
    narayana,
    parse_colored,
    parse_forest,
    plain_forward,
    plain_inverse,
    plane_forward,
    plane_inverse,
    plane_labeled_count,
    render_forest,
    riordan_forest_count,
    rooted_forest_count,
    sample_uniform,
    special_colored_count,
    trace_bounds,
)
from forestcodec import cli
from forestcodec.enumeration import (
    FamilySpec,
    count_by_enumeration,
    enumerate_family,
)

# 0.999 quantile of the chi-square distribution with 15 degrees of freedom.
CHI2_Q999_DF15 = 37.6973


@contextmanager
def criterion(number, description, time_limit):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number:2d} PASS  {description}  "
        f"[{elapsed:.2f}s / {time_limit}s]"
    )
    assert elapsed < time_limit, f"over time budget: {elapsed:.2f}s"


def family_count(**kwargs):
    return count_by_enumeration(FamilySpec(**kwargs))


def test_01_plain_recurrence_and_closed_form():
    with criterion(1, "plain recurrence and n^(n-k-1), n = 4..7", 60):
        for n in range(4, 8):
            counts = {
                k: family_count(family="plain", n=n, roots=k, conditioned=True)
                for k in range(1, n)
            }
            for k in range(2, n):
                assert counts[k - 1] == n * counts[k]
            for k in range(1, n):
                assert counts[k] == n ** (n - k - 1)
                assert counts[k] == rooted_forest_count(n, k, conditioned=True)


def test_02_figure_one_vector():
    with criterion(2, "the five preimages of '5 3 0 0 0 3 1'", 1):
        bottom = parse_forest("5 3 0 0 0 3 1")
        got = {render_forest(plain_inverse(bottom, 3, c)) for c in range(1, 6)}
        want = {
            "5 2 0 0 1 3 1",
            "5 2 0 0 5 3 1",
            "5 2 0 0 2 3 1",
            "5 2 0 0 4 1 3",
            "5 2 0 0 1 1 3",
        }
        assert got == want


def test_03_bijection_round_trips():
    with criterion(3, "exhaustive round trips in all four families", 180):
        for n in range(3, 7):
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
                for f in src:
                    g, c = plain_forward(f, k)
                    assert plain_inverse(g, k, c) == f
                for g in tgt:
                    for c in range(1, n + 1):
                        assert plain_forward(plain_inverse(g, k, c), k) == (g, c)

        for n in range(3, 8):
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
                for f in src:
                    g, c = plane_forward(f, k)
                    assert plane_inverse(g, k, c) == f
                for g in tgt:
                    for c in range(1, 2 * n - k + 1):
                        assert plane_forward(plane_inverse(g, k, c), k) == (g, c)

        leafplane_grid = [
            (internal, p0)
            for internal in (3, 4, 5)
            for p0 in (1, 2)
        ] + [(6, 1)]
        for internal, p0 in leafplane_grid:
            n0 = internal + p0
            for r in range(2, internal):
                nl, pl = n0 + r - 2, p0 + r - 2
                src = list(
                    enumerate_family(
                        FamilySpec(
                            "leafplane", n=nl, leaves=pl, roots=r - 1,
                            conditioned=True,
                        )
                    )
                )
                tgt = list(
                    enumerate_family(
                        FamilySpec(
                            "leafplane", n=nl + 1, leaves=pl + 1, roots=r,
                            conditioned=True,
                        )
                    )
                )
                assert len(src) == (pl + 1) * len(tgt)
                for f in src:
                    g, c = leafplane_forward(f, r)
                    assert leafplane_inverse(g, r, c) == f
                for g in tgt:
                    for c in range(1, pl + 2):
                        assert leafplane_forward(
                            leafplane_inverse(g, r, c), r
                        ) == (g, c)

        for n in range(3, 6):
            for kc in (2, 3):
                for r in range(2, n):
                    mult = kc * n - 2 * n + r
                    src = list(
                        enumerate_family(
                            FamilySpec(
                                "special-colored", n=n, colors=kc,
                                roots=r - 1, conditioned=True,
                            )
                        )
                    )
                    tgt = list(
                        enumerate_family(
                            FamilySpec(
                                "special-colored", n=n, colors=kc,
                                roots=r, conditioned=True,
                            )
                        )
                    )
                    assert len(src) == mult * len(tgt)
                    for f in src:
                        g, c = colored_forward(f, r)
                        assert colored_inverse(g, r, c) == f
                    for g in tgt:
                        for c in range(1, mult + 1):
                            assert colored_forward(
                                colored_inverse(g, r, c), r
                            ) == (g, c)


def test_04_codec_bijectivity():
    with criterion(4, "codec on 125 traces at n = 5", 5):
        n = 5
        images = set()
        for combo in product(range(1, n + 1), repeat=n - 2):
            trace = ChoiceTrace("plain", n, 0, combo)
            forest = decode(trace)
            assert forest.parents not in images
            images.add(forest.parents)
            assert encode(forest) == trace
        assert len(images) == 125 == cayley(n)


def test_05_multipartite_counts():
    with criterion(5, "spanning trees of four multipartite graphs", 30):
        for sizes, want in (
            ((2, 3), 12),
            ((3, 3), 81),
            ((1, 1, 2), 8),
            ((2, 2, 2), 384),
        ):
            assert multipartite_spanning_trees(sizes) == want
            assert (
                family_count(family="partite", part_sizes=sizes, roots=1) == want
            )


def test_06_plane_counts():
    with criterion(6, "labeled plane, Catalan, and Narayana counts", 10):
        for v, want in ((3, 12), (4, 120)):
            assert plane_labeled_count(v) == want
            assert want == sum(
                family_count(family="plane", n=v, root_set=(r,))
                for r in range(1, v + 1)
            )
        assert catalan(4) == 14
        assert family_count(family="plane", n=5, roots=1, labeled=False) == 14
        row = [narayana(4, p) for p in range(1, 5)]
        assert row == [1, 6, 6, 1]
        assert sum(row) == 14
        for p in range(1, 5):
            assert row[p - 1] == family_count(
                family="plane", n=5, roots=1, labeled=False, leaves=p
            )


def test_07_kary_counts_and_identity():
    with criterion(7, "k-ary shape counts and the convolution identity", 30):
        assert kary_unlabeled_count(2, 3) == 5
        assert (
            family_count(family="kary", arity=2, n=3, roots=1, labeled=False) == 5
        )
        assert kary_unlabeled_count(3, 3) == 12
        assert (
            family_count(family="kary", arity=3, n=3, roots=1, labeled=False)
            == 12
        )
        assert kary_forest_count(2, 2, 1) == 2
        assert family_count(family="kary", arity=2, n=2, roots=1) == 2
        for k in range(1, 5):
            for p in range(1, 4):
                for q in range(1, 4):
                    if p + q > 4:
                        continue
                    for n in range(p + q, 13):
                        lhs, rhs = kary_identity(k, p, q, n)
                        assert lhs == rhs


def degree_vector_plain(forest):
    counts = [0] * forest.n
    for p in forest.parents:
        if p:
            counts[p - 1] += 1
    return tuple(counts)


def degree_vector_plane(pf):
    counts = [0] * pf.n_vertices
    for label, d in zip(pf.preorder_labels, pf.preorder_degrees):
        counts[label - 1] = d
    return tuple(counts)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def partitions_as_multiplicities(total, max_part):
    if max_part == 0:
        if total == 0:
            yield ()
        return
    for last in range(total // max_part + 1):
        for rest in partitions_as_multiplicities(total - last * max_part, max_part - 1):
            yield rest + (last,)


def test_08_degree_sequences_and_partitions():
    with criterion(8, "degree-sequence counts and the partition refinement", 60):
        for n in range(1, 7):
            by_deg_plane = Counter()
            by_deg_rooted = Counter()
            for r in range(1, n + 1):
                for pf in enumerate_family(
                    FamilySpec("plane", n=n, root_set=(r,))
                ):
                    by_deg_plane[degree_vector_plane(pf)] += 1
                for f in enumerate_family(
                    FamilySpec("plain", n=n, root_set=(r,))
                ):
                    by_deg_rooted[degree_vector_plain(f)] += 1
            all_d = [d for d in compositions(n - 1, n)]
            assert set(by_deg_plane) == set(all_d)
            for d in all_d:
                assert by_deg_plane[d] == degseq_plane_count(d) == factorial(n - 1)
                assert by_deg_rooted[d] == degseq_rooted_count(d)

        for n in range(2, 8):
            by_mult = Counter()
            for pf in enumerate_family(
                FamilySpec("plane", n=n, roots=1, labeled=False)
            ):
                mult = [0] * (n - 1)
                for d in pf.preorder_degrees:
                    if d:
                        mult[d - 1] += 1
                by_mult[tuple(mult)] += 1
            for mult in partitions_as_multiplicities(n - 1, n - 1):
                assert by_mult.get(mult, 0) == erdelyi_etherington(mult)

        for n in range(2, 9):
            total = sum(
                erdelyi_etherington(mult)
                for mult in partitions_as_multiplicities(n - 1, n - 1)
            )
            assert total == catalan(n - 1)


def test_09_colored_counts():
    with criterion(9, "colored tree counts, special forests, figure vector", 60):
        for n, kc, want in ((3, 2, 6), (4, 2, 24), (4, 3, 168)):
            assert colored_tree_count(n, kc) == want
            assert family_count(family="colored", n=n, colors=kc, roots=1) == want

        for n in range(2, 6):
            for kc in (2, 3):
                for r in range(1, n):
                    assert special_colored_count(n, kc, r) == family_count(
                        family="special-colored", n=n, colors=kc, roots=r
                    )

        for n in range(2, 7):
            for kc in range(2, 5):
                assert (
                    sum(
                        colored_root_degree_count(n, kc, r) for r in range(1, n)
                    )
                    == colored_tree_count(n, kc)
                )

        bottom = parse_colored("6 3 0 0 0 1 3 1\n0 0 0 1 1 2", 3)
        assert colored_choice_count(bottom, 3) == 9
        preimages = set()
        for c in range(1, 10):
            f = colored_inverse(bottom, 3, c)
            preimages.add((f.base.parents, f.colors))
            assert colored_forward(f, 3) == (bottom, c)
        assert len(preimages) == 9


def test_10_identities_and_riordan():
    with criterion(10, "bipartite identity grid and the deletion recurrence", 5):
        for r in range(2, 9):
            for s in range(1, 9):
                lhs, rhs = bipartite_identity(r, s)
                assert lhs == rhs
        for n in range(1, 41):
            for k in range(1, n):
                assert riordan_forest_count(n, k) == k * n ** (n - k - 1)


def test_11_sampler(capsys):
    with criterion(11, "seed reproducibility and chi-square uniformity", 10):
        argv = ["sample", "--family", "plain", "--n", "12", "--seed", "42",
                "--count", "5"]
        assert cli.run(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.run(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second

        n, draws = 4, 16_000
        rng = SplitMix64(20260810)
        freq = Counter()
        for _ in range(draws):
            forest = sample_uniform("plain", n, seed=0, rng=rng)
            freq[forest.parents] += 1
        assert len(freq) == 16 == cayley(n)
        expected = draws / 16
        chi2 = sum((c - expected) ** 2 / expected for c in freq.values())
        assert chi2 < CHI2_Q999_DF15, f"chi-square {chi2:.2f}"
        assert all(b == n for b in trace_bounds("plain", n))
