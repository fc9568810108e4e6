"""oracle: passes over a fixed battery of brute-force checks.

Why: enumeration and the construction of forest values do most of the work,
counting takes a share, and bijections runs only on tiny forests; this is
the one workload where the partite and leafplane steps run in bulk.  codec
and cli do no work.  The round trips are the work of the acceptance test
that dominates the tier-1 suite, with plane forests up to n = 6.

The battery has four parts, one op per item: verify_recurrence for all five
families, formula-against-enumeration grids, exhaustive forward/inverse
round trips, and closed forms at large n checked against independent
identities.  Every pass runs every item once; the seed picks the order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from harness import Op, expect
from warmup import RIORDAN_N


def rounds(fc, seed: int):
    rng = random.Random(seed)
    items = battery(fc)
    while True:
        ops = list(items)
        rng.shuffle(ops)
        yield ops


def battery(fc) -> list[Op]:
    return recurrences(fc) + grids(fc) + round_trips(fc) + closed_forms(fc)


# --------------------------------------------------------------------------
# Independent checks
# --------------------------------------------------------------------------


def key(forest):
    """The documented canonical order, computed here without the oracles."""
    if hasattr(forest, "trees"):
        return tuple(node_key(t) for t in forest.trees)
    if hasattr(forest, "base"):
        return (forest.base.parents, forest.colors)
    return forest.parents


def node_key(node):
    return (node.label or 0, tuple(node_key(c) for c in node.children))


def check_stream(forests: list, want: int) -> int:
    expect(len(forests) == want, f"{len(forests)} forests, closed form {want}")
    keys = [key(f) for f in forests]
    expect(
        all(a < b for a, b in zip(keys, keys[1:])),
        "canonical keys do not strictly increase",
    )
    return len(forests)


def raising(check):
    def run(out):
        if isinstance(out, Exception):
            raise out
        return check(out)

    return run


# --------------------------------------------------------------------------
# verify_recurrence for the five families
# --------------------------------------------------------------------------


def recurrences(fc) -> list[Op]:
    cases = [("plain", {"n": n}) for n in range(3, 7)]
    cases += [("plane", {"n": n}) for n in range(3, 7)]
    cases += [
        ("colored", {"n": n, "colors": kc}) for n in range(3, 6) for kc in (2, 3)
    ]
    cases += [
        ("partite", {"part_sizes": s}) for s in ((2, 3), (3, 3), (2, 2, 2), (3, 2, 2))
    ]
    cases += [("leafplane", {"n": n, "leaves": p}) for n, p in ((6, 2), (7, 2), (7, 3))]
    return [recurrence_op(fc, family, kw) for family, kw in cases]


def recurrence_op(fc, family: str, kw: dict) -> Op:
    def check(rows) -> int:
        expect(bool(rows), "no rows")
        for row in rows:
            expect(row.lhs == row.multiplier * row.rhs, f"{family} {row}")
            if family == "plain":
                n, k = kw["n"], int(row.label.split("k=")[1])
                expect(row.rhs == n ** (n - k - 1), f"plain closed form {row}")
        return sum(row.lhs + row.rhs for row in rows)

    return Op("recurrence", lambda: fc.verify_recurrence(family, **kw), raising(check))


# --------------------------------------------------------------------------
# Closed forms against enumerate_family
# --------------------------------------------------------------------------


def enumeration_op(fc, specs: list, want: int) -> Op:
    """Enumerate each spec; the streams together must hold `want` forests."""

    def call():
        return [list(fc.enumerate_family(spec)) for spec in specs]

    def check(streams) -> int:
        for forests in streams:
            check_stream(forests, len(forests))
        total = sum(len(forests) for forests in streams)
        expect(total == want, f"{total} forests, closed form {want}")
        return total

    return Op("grid", call, raising(check))


def grids(fc) -> list[Op]:
    spec = fc.FamilySpec
    ops = []
    for n in range(1, 7):
        ops.append(enumeration_op(fc, [spec("plain", n=n)], n ** (n - 2) if n > 1 else 1))
    for n in range(2, 7):
        ops.append(
            enumeration_op(
                fc,
                [spec("plain", n=n, roots=k) for k in range(1, n)],
                sum(k * n ** (n - k - 1) for k in range(1, n)),
            )
        )
    for sizes in ((2, 3), (3, 3), (1, 1, 2), (2, 2, 2), (1, 2, 3)):
        n, want = sum(sizes), Fraction(sum(sizes)) ** (len(sizes) - 2)
        for s in sizes:
            want *= (n - s) ** (s - 1)
        ops.append(enumeration_op(fc, [spec("partite", part_sizes=sizes)], int(want)))
    for v in range(2, 6):
        ops.append(
            enumeration_op(
                fc,
                [spec("plane", n=v, root_set=(r,)) for r in range(1, v + 1)],
                factorial(2 * v - 2) // factorial(v - 1),
            )
        )
    for n in range(1, 8):
        shapes = spec("plane", n=n + 1, labeled=False)
        ops.append(enumeration_op(fc, [shapes], comb(2 * n, n) // (n + 1)))
    for n in range(2, 8):
        ops.append(
            enumeration_op(
                fc,
                [spec("plane", n=n + 1, labeled=False, leaves=p) for p in range(1, n + 1)],
                sum(comb(n, p) * comb(n, p - 1) // n for p in range(1, n + 1)),
            )
        )
    for arity, top in ((2, 5), (3, 4)):
        for m in range(1, top + 1):
            shapes = spec("kary", n=m, arity=arity, labeled=False)
            ops.append(enumeration_op(fc, [shapes], comb(arity * m + 1, m) // (arity * m + 1)))
    for arity, m, r in ((2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 4, 2), (2, 4, 1)):
        want = Fraction(r, m) * comb(arity * m, m - r) * factorial(m - r)
        ops.append(enumeration_op(fc, [spec("kary", n=m, arity=arity, roots=r)], int(want)))
    for kc in (2, 3):
        for n in range(2, 5):
            want = kc * factorial(n - 2) * comb(kc * n - n, n - 2)
            ops.append(enumeration_op(fc, [spec("colored", n=n, colors=kc)], want))
        for n in range(2, 6):
            ops.append(
                enumeration_op(
                    fc,
                    [spec("special-colored", n=n, colors=kc, roots=r) for r in range(1, n)],
                    sum(
                        r * (kc - 1) * factorial(n - r - 1) * comb(kc * n - n - 1, n - r - 1)
                        for r in range(1, n)
                    ),
                )
            )
    ops += [degree_op(fc, "plain", n) for n in range(2, 6)]
    ops += [degree_op(fc, "plane", n) for n in range(2, 5)]
    return ops


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def degree_op(fc, family: str, n: int) -> Op:
    """Trees on 1..n by child-count vector, over every root, through
    enumerate_degree_filtered."""
    vectors = list(compositions(n - 1, n))

    def call():
        return [
            (d, list(fc.enumerate_degree_filtered(fc.FamilySpec(family, n=n, root_set=(r,)), d)))
            for d in vectors
            for r in range(1, n + 1)
        ]

    def check(streams) -> int:
        per_vector = dict.fromkeys(vectors, 0)
        for d, forests in streams:
            check_stream(forests, len(forests))
            for forest in forests:
                expect(child_counts(forest, n) == d, f"{family} degrees {d}")
            per_vector[d] += len(forests)
        for d, got in per_vector.items():
            want = factorial(n - 1)
            if family == "plain":
                for x in d:
                    want //= factorial(x)
            expect(got == want, f"{family} degrees {d}: {got} != {want}")
        return sum(per_vector.values())

    return Op("grid", call, raising(check))


def child_counts(forest, n: int) -> tuple[int, ...]:
    counts = [0] * n
    if hasattr(forest, "trees"):
        stack = list(forest.trees)
        while stack:
            node = stack.pop()
            counts[node.label - 1] = len(node.children)
            stack.extend(node.children)
    else:
        for p in forest.parents:
            if p:
                counts[p - 1] += 1
    return tuple(counts)


# --------------------------------------------------------------------------
# Exhaustive forward/inverse round trips
# --------------------------------------------------------------------------


def round_trip_op(fc, family: str, k: int, src_spec, tgt_spec, mult: int, extra=()) -> Op:
    def call():
        # Looked up per call, so that a traced run sees the wrapped steps.
        forward = getattr(fc, f"{family}_forward")
        inverse = getattr(fc, f"{family}_inverse")
        src = list(fc.enumerate_family(src_spec))
        tgt = list(fc.enumerate_family(tgt_spec))
        there = []
        for f in src:
            g, c = forward(f, k, *extra)
            there.append((f, inverse(g, k, *extra, c)))
        back = [
            (g, c, forward(inverse(g, k, *extra, c), k, *extra))
            for g in tgt
            for c in range(1, mult + 1)
        ]
        return src, tgt, there, back

    def check(out) -> int:
        src, tgt, there, back = out
        expect(len(src) == mult * len(tgt), f"{family} k={k}: {len(src)} != {mult}*{len(tgt)}")
        expect(all(f == h for f, h in there), f"{family} k={k}: inverse(forward(f)) != f")
        expect(all(got == (g, c) for g, c, got in back), f"{family} k={k}: forward(inverse) differs")
        return len(there) + len(back)

    return Op("roundtrip", call, raising(check))


def round_trips(fc) -> list[Op]:
    spec = fc.FamilySpec
    ops = []
    for n in range(3, 7):
        for k in range(2, n):
            ops.append(
                round_trip_op(
                    fc, "plain", k,
                    spec("plain", n=n, roots=k - 1, conditioned=True),
                    spec("plain", n=n, roots=k, conditioned=True),
                    n,
                )
            )
            ops.append(
                round_trip_op(
                    fc, "plane", k,
                    spec("plane", n=n, roots=k - 1, conditioned=True),
                    spec("plane", n=n, roots=k, conditioned=True),
                    2 * n - k,
                )
            )
    for sizes in ((2, 3), (3, 3), (2, 2, 2), (3, 2, 2)):
        parts = fc.PartAssignment(sizes)
        for k in range(2, sizes[0] + 1):
            ops.append(
                round_trip_op(
                    fc, "partite", k,
                    spec("partite", part_sizes=sizes, roots=k - 1, conditioned=True),
                    spec("partite", part_sizes=sizes, roots=k, conditioned=True),
                    sum(sizes) - sizes[0],
                    (parts,),
                )
            )
    for internal, p0 in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)):
        for r in range(2, internal):
            n, p = internal + p0 + r - 2, p0 + r - 2
            ops.append(
                round_trip_op(
                    fc, "leafplane", r,
                    spec("leafplane", n=n, leaves=p, roots=r - 1, conditioned=True),
                    spec("leafplane", n=n + 1, leaves=p + 1, roots=r, conditioned=True),
                    p + 1,
                )
            )
    for n in range(3, 6):
        for kc in (2, 3):
            for r in range(2, n):
                ops.append(
                    round_trip_op(
                        fc, "colored", r,
                        spec("special-colored", n=n, colors=kc, roots=r - 1, conditioned=True),
                        spec("special-colored", n=n, colors=kc, roots=r, conditioned=True),
                        kc * n - 2 * n + r,
                    )
                )
    return ops


# --------------------------------------------------------------------------
# Closed forms at large n against independent identities
# --------------------------------------------------------------------------


def closed_op(call, check) -> Op:
    return Op("closed", call, raising(check))


def partitions(total: int, largest: int):
    """Partitions of `total` as multiplicity vectors (n_1, ..., n_largest)."""
    if largest == 0:
        if total == 0:
            yield ()
        return
    for last in range(total // largest + 1):
        for rest in partitions(total - last * largest, largest - 1):
            yield rest + (last,)


def closed_forms(fc) -> list[Op]:
    ops = []
    for n in (RIORDAN_N, 90, 75, 60):
        ops.append(
            closed_op(
                lambda n=n: [fc.riordan_forest_count(n, k) for k in range(1, n)],
                lambda got, n=n: check_values(got, [k * n ** (n - k - 1) for k in range(1, n)]),
            )
        )
    pairs = [(r, s) for r in range(2, 9) for s in range(1, 9)]
    ops.append(
        closed_op(
            lambda: [fc.bipartite_identity(r, s) for r, s in pairs],
            lambda got: check_values(got, [(r ** (s - 1) * s ** (r - 2),) * 2 for r, s in pairs]),
        )
    )
    quads = [
        (k, p, q, n)
        for k in range(1, 5)
        for p in range(1, 4)
        for q in range(1, 4)
        for n in range(p + q, 13)
    ]
    ops.append(
        closed_op(
            lambda: [fc.kary_identity(*args) for args in quads],
            lambda got: check_values(
                got,
                [(int(Fraction(p + q, n) * comb(k * n, n - p - q)),) * 2 for k, p, q, n in quads],
            ),
        )
    )
    sizes = [(n, kc) for n in range(2, 41) for kc in range(2, 6)]
    ops.append(
        closed_op(
            lambda: [
                (sum(fc.colored_root_degree_count(n, kc, r) for r in range(1, n)),
                 fc.colored_tree_count(n, kc))
                for n, kc in sizes
            ],
            lambda got: check_values(
                got,
                [(kc * factorial(n - 2) * comb(kc * n - n, n - 2),) * 2 for n, kc in sizes],
            ),
        )
    )
    shapes = {n: list(partitions(n - 1, n - 1)) for n in range(2, 14)}
    ops.append(
        closed_op(
            lambda: [sum(fc.erdelyi_etherington(m) for m in shapes[n]) for n in shapes],
            lambda got: check_values(got, [comb(2 * n - 2, n - 1) // n for n in shapes]),
        )
    )
    ops.append(
        closed_op(
            lambda: [sum(fc.narayana(n, p) for p in range(1, n + 1)) for n in range(1, 151)],
            lambda got: check_values(got, [comb(2 * n, n) // (n + 1) for n in range(1, 151)]),
        )
    )
    return ops


def check_values(got: list, want: list) -> int:
    expect(len(got) == len(want), "wrong number of values")
    for i, (a, b) in enumerate(zip(got, want)):
        expect(a == b, f"value {i}: {a} != {b}")
    return 0
