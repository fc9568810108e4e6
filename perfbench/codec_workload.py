"""codec: sample -> encode -> decode round trips at n = 100, and the
encode/decode sweep over n that traced runs report.

Why: forests, bijections and codec do all of the work here; enumeration,
counting and cli do none.  A plain op takes a fraction of a plane op, which
takes a fraction of a colored op, so with the three families in equal
counts op_p50_ms lies inside the plane class and op_p90_ms inside the
colored class: a gain on the plane path and one on the colored path move
different metrics.
"""

from __future__ import annotations

import math
import random
import statistics

from harness import Op, expect, scaled_call

N = 100
COLORS = 3
FAMILIES = (("plain", 0), ("plane", 0), ("colored", COLORS))
# Ops per family in a round; 17 rounds make the 102 ops of a run.
PER_ROUND = 2


def rounds(fc, seed: int):
    """Endless rounds; the seed picks each op's sampler seed and the order."""
    rng = random.Random(seed)
    while True:
        ops = [
            round_trip_op(fc, family, colors, rng.getrandbits(63))
            for family, colors in FAMILIES
            for _ in range(PER_ROUND)
        ]
        rng.shuffle(ops)
        yield ops


def round_trip_op(fc, family: str, colors: int, sample_seed: int) -> Op:
    def call():
        forest = fc.sample_uniform(family, N, sample_seed, colors=colors)
        trace = fc.encode(forest)
        return forest, trace, fc.decode(trace)

    def check(out) -> int:
        if isinstance(out, Exception):
            raise out
        forest, trace, back = out
        expect(back == forest, "decode(encode(f)) != f")
        expect((trace.family, trace.n) == (family, N), f"trace header {trace}")
        MEMBERS[family](forest)
        return 1

    return Op(family, call, check)


def check_tree(parents: tuple[int, ...]) -> None:
    """A tree on 1..N rooted at 1: every vertex climbs to 1 within N steps."""
    expect(len(parents) == N, f"{len(parents)} vertices")
    expect(parents[0] == 0, "vertex 1 is not a root")
    for v in range(2, N + 1):
        u, steps = v, 0
        while u != 1:
            u = parents[u - 1]
            steps += 1
            expect(1 <= u <= N and steps < N, f"vertex {v} does not reach root 1")


def check_plain(forest) -> None:
    check_tree(forest.parents)


def check_plane(forest) -> None:
    expect(len(forest.trees) == 1, f"{len(forest.trees)} trees")
    expect(forest.trees[0].label == 1, "the root is not labeled 1")
    labels, stack = [], [forest.trees[0]]
    while stack:
        node = stack.pop()
        labels.append(node.label)
        stack.extend(node.children)
    expect(sorted(labels) == list(range(1, N + 1)), "labels are not 1..N")


def check_colored(forest) -> None:
    """A special properly colored tree: no last color on the root's edges."""
    parents, colors = forest.base.parents, forest.colors
    check_tree(parents)
    expect(forest.color_count == COLORS and colors[0] == 0, "root color")
    at = [set() for _ in range(N + 1)]
    for v in range(2, N + 1):
        c, p = colors[v - 1], parents[v - 1]
        expect(1 <= c <= COLORS, f"color {c} into {v}")
        expect(c not in at[v] and c not in at[p], f"color {c} repeats at {v}")
        at[v].add(c)
        at[p].add(c)
        expect(not (p == 1 and c == COLORS), "the root has an edge of the last color")


MEMBERS = {"plain": check_plain, "plane": check_plane, "colored": check_colored}


SWEEP_SIZES = (25, 50, 100, 200)
SWEEP_REPEATS = 3


def sweep(fc, seed: int) -> dict[str, float]:
    """Median encode and decode times per family over SWEEP_SIZES, untraced,
    and the log-log slope of decode time against n."""
    rng = random.Random(seed)
    metrics = {}
    for family, colors in FAMILIES:
        decode_ms = []
        for n in SWEEP_SIZES:
            forest = fc.sample_uniform(family, n, rng.getrandbits(63), colors=colors)
            encode_s, trace = median_time(lambda: fc.encode(forest))
            decode_s, back = median_time(lambda: fc.decode(trace))
            expect(back == forest, f"sweep {family} n={n}: decode(encode(f)) != f")
            metrics[f"codec.encode_ms.{family}.n{n}"] = 1000 * encode_s
            metrics[f"codec.decode_ms.{family}.n{n}"] = 1000 * decode_s
            decode_ms.append(1000 * decode_s)
        metrics[f"codec.decode_slope.{family}"] = log_log_slope(SWEEP_SIZES, decode_ms)
    return metrics


def median_time(fn):
    """Median scaled time of SWEEP_REPEATS calls, and the last result."""
    times = []
    for _ in range(SWEEP_REPEATS):
        elapsed, out = scaled_call(fn)
        times.append(elapsed)
    return statistics.median(times), out


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)
