"""cli: forestcodec subprocesses, one at a time, from a fixed weighted mix.

Why: process start-up, import, argparse, parsing and rendering do most of
the work here, and the other two workloads never touch them.  Forest text
goes both ways (text in; text, json or dot out).

A round is 100 commands in four classes:
  85 short: count (big-integer closed forms), bijection forward/inverse for
     all five families via --forest and via stdin, convert to text, json
     and dot, small sample and enumerate runs; about one interpreter start;
   7 medium: sample --family plain --n 100 --count 20, four conditioned and
     three with --roots 3 --unconditioned; about 2.5 starts, all alike;
   5 heavy: sample plane and colored --n 100 --count 20, enumerate --format
     json, verify recurrence, count riordan --n 150;
   3 known defects, which count as slower than every successful op.
Sorted by latency, the medium class covers ranks 86-92 while the defects
fail and ranks 89-95 once they are fixed, so op_p90_ms (rank 90) stays
inside one class of like commands either way, and op_p50_ms inside the
short class.  The seed picks the forests, the sampler seeds, the choices
and the order, never the commands or their sizes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from harness import KnownDefect, Mismatch, Op, Result, expect, judge, timed
from oracle_workload import key
from tracing import caches
from warmup import SRC

# The console-script entry point, as an installed forestcodec runs it.
LAUNCH = "import sys; from forestcodec.cli import main; sys.exit(main())"
TRIVIAL = ["count", "cayley", "--n", "5"]
TIMEOUT_S = 120

# Known defects: every one counts as a failed op until it is fixed.
DEFECT_DIGITS = "int-str-digits"  # count cayley --n 2000 hits the 4300-digit limit
DEFECT_DEPTH = "deep-plane-recursion"  # a 1200-deep plane chain ends in RecursionError
DEFECT_ASCII = "non-ascii-digit"  # an Arabic-Indic digit parses; should exit 1


@dataclass
class Command:
    kind: str  # "short", "medium", "heavy" or "defect"
    label: str
    argv: list[str]
    stdin: str | None
    # Checks (exit code, stdout, stderr); returns the forests it checked.
    check: Callable[[tuple[int, str, str]], int]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUTF8"] = "1"
    return env


ENV = child_env()


def launcher(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *argv]


def run_subprocess(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    proc = subprocess.run(
        launcher(argv),
        input=stdin,
        capture_output=True,
        encoding="utf-8",
        env=ENV,
        timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def as_op(cmd: Command) -> Op:
    def check(out) -> int:
        if isinstance(out, Exception):
            raise out
        return cmd.check(out)

    return Op(f"{cmd.kind}:{cmd.label}", lambda: run_subprocess(cmd.argv, cmd.stdin), check)


def rounds(fc, seed: int):
    rng = random.Random(seed)
    ops = [as_op(cmd) for cmd in commands(fc, rng)]
    while True:
        rng.shuffle(ops)
        yield list(ops)


# --------------------------------------------------------------------------
# Expected outputs, computed in this process
# --------------------------------------------------------------------------


def memo(fn):
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int-to-str digit limit (Python 3.11+) for an expected value."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def succeeded(out) -> str:
    code, stdout, stderr = out
    expect(code == 0, f"exit {code}: {stderr[-300:]}")
    return stdout


def exact(kind, label, argv, want: Callable[[], str], forests: int, stdin=None) -> Command:
    want = memo(want)

    def check(out) -> int:
        expect(succeeded(out) == want(), f"{label}: stdout differs")
        return forests

    return Command(kind, label, argv, stdin, check)


# Expected text, json and dot are written here from FORMATS.md, not with the
# program's renderers.  A plane forest has `trees`, a colored one a `base`.


def parents_of(obj) -> tuple[int, ...]:
    return obj.base.parents if hasattr(obj, "base") else obj.parents


def text(obj) -> str:
    if hasattr(obj, "trees"):
        return ";".join(plane_term(t) for t in obj.trees)
    parents = parents_of(obj)
    line = " ".join(map(str, [len(parents), parents.count(0), *parents]))
    return line + "\n" + " ".join(map(str, obj.colors)) if hasattr(obj, "base") else line


def plane_term(node) -> str:
    head = "*" if node.label is None else str(node.label)
    if not node.children:
        return head
    return head + "(" + ",".join(plane_term(c) for c in node.children) + ")"


def as_json(obj) -> dict:
    if hasattr(obj, "trees"):
        nodes = sum(1 for _ in walk(obj.trees))

        def node(nd):
            return {"label": nd.label, "children": [node(c) for c in nd.children]}

        return {"kind": "plane", "vertices": nodes, "trees": [node(t) for t in obj.trees]}
    colored = hasattr(obj, "base")
    parents = parents_of(obj)
    out = {
        "kind": "colored" if colored else "rooted",
        "n": len(parents),
        "roots": [v for v, p in enumerate(parents, 1) if p == 0],
        "parents": list(parents),
    }
    if colored:
        out.update(colors=list(obj.colors), colorCount=obj.color_count)
    return out


def walk(trees):
    stack = list(trees)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


DOT_NODE = re.compile(r'  v(\d+) \[label="([^"]*)"\];')
DOT_EDGE = re.compile(r'  v(\d+) -> v(\d+)(?: \[label="(\d+)"\])?;')


def dot_edges(obj) -> set:
    """(parent label, child label, color) for every edge."""
    if hasattr(obj, "trees"):
        edges = set()
        for node in walk(obj.trees):
            edges.update((str(node.label), str(c.label), None) for c in node.children)
        return edges
    colored = hasattr(obj, "base")
    return {
        (str(p), str(v), str(obj.colors[v - 1]) if colored else None)
        for v, p in enumerate(parents_of(obj), 1)
        if p
    }


def check_dot(obj, stdout: str) -> None:
    lines = stdout.splitlines()
    expect(lines[0] == "digraph forest {" and lines[-1] == "}", "dot frame")
    labels, edges = {}, set()
    for line in lines[1:-1]:
        if m := DOT_NODE.fullmatch(line):
            labels[m[1]] = m[2]
        elif m := DOT_EDGE.fullmatch(line):
            edges.add((labels[m[1]], labels[m[2]], m[3]))
        else:
            raise Mismatch(f"dot line {line!r}")
    expect(edges == dot_edges(obj), "dot edges differ")


def json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()]


# --------------------------------------------------------------------------
# The mix
# --------------------------------------------------------------------------


def commands(fc, rng: random.Random) -> list[Command]:
    return (
        counts()
        + bijections(fc, rng)
        + converts(fc, rng)
        + samples(fc, rng)
        + enumerations(fc)
        + [verify_cmd()]
        + defects()
    )


def count_cmd(kind, argv, value: Callable[[], int]) -> Command:
    return exact(kind, " ".join(argv[:2]), argv, lambda: f"{value()}\n", 0)


def counts() -> list[Command]:
    return [
        count_cmd("short", ["count", "cayley", "--n", "1000"], lambda: 1000**998),
        count_cmd("short", ["count", "riordan", "--n", "40", "--k", "3"], lambda: 3 * 40**36),
        count_cmd("short", ["count", "catalan", "--n", "400"], lambda: comb(800, 400) // 401),
        count_cmd(
            "short",
            ["count", "colored-tree", "--n", "40", "--kc", "3"],
            lambda: 3 * factorial(38) * comb(80, 38),
        ),
        count_cmd(
            "short",
            ["count", "multipartite", "--parts", "3,4,5"],
            lambda: 12 * 9**2 * 8**3 * 7**4,
        ),
        count_cmd(
            "short",
            ["count", "plane-labeled", "--v", "300"],
            lambda: factorial(598) // factorial(299),
        ),
        count_cmd(
            "short",
            ["count", "kary-forest", "--arity", "3", "--internal", "30", "--roots", "4"],
            lambda: int(Fraction(4, 30) * comb(90, 26) * factorial(26)),
        ),
        count_cmd(
            "short",
            ["count", "special-colored", "--n", "30", "--kc", "4", "--r", "2"],
            lambda: 2 * 3 * factorial(27) * comb(89, 27),
        ),
        count_cmd(
            "short",
            ["count", "forests-k-trees", "--n", "60", "--k", "5"],
            lambda: comb(59, 4) * 60**55,
        ),
        count_cmd(
            "short",
            ["count", "narayana", "--n", "300", "--p", "100"],
            lambda: comb(300, 100) * comb(300, 99) // 300,
        ),
        count_cmd("heavy", ["count", "riordan", "--n", "150", "--k", "1"], lambda: 150**148),
    ]


def verify_cmd() -> Command:
    """verify recurrence for plane n=6: one PASS row per step k = 2..5."""
    n = 6

    def check(out) -> int:
        lines = succeeded(out).splitlines()
        expect(lines[-1] == "PASS" and len(lines) == n - 1, "verify summary")
        for k, line in zip(range(2, n), lines):
            m = re.fullmatch(rf"n={n} k={k}: (\d+) = (\d+) \* (\d+) PASS", line)
            expect(bool(m), f"verify row {line!r}")
            lhs, mult, rhs = map(int, m.groups())
            expect(mult == 2 * n - k and lhs == mult * rhs, f"verify row {line!r}")
        return 0

    argv = ["verify", "recurrence", "--family", "plane", "--n", str(n)]
    return Command("heavy", "verify recurrence plane", argv, None, check)


def bijections(fc, rng: random.Random) -> list[Command]:
    """Forward and inverse steps for all five families, each via --forest and
    via stdin, on forests and choices drawn by the seed."""
    spec = fc.FamilySpec

    def sampled(family, n, colors=0):
        return lambda roots: fc.sample_uniform(family, n, rng.getrandbits(63), colors=colors, roots=roots)

    def enumerated(family, sizes):
        return lambda roots: rng.choice(
            list(fc.enumerate_family(spec(family, roots=roots, conditioned=True, **sizes(roots))))
        )

    return (
        family_steps(fc, rng, "plain", 4, sampled("plain", 12))
        + family_steps(fc, rng, "plane", 3, sampled("plane", 10))
        + family_steps(fc, rng, "colored", 3, sampled("colored", 10, 3), ["--kc", "3"])
        + family_steps(
            fc, rng, "partite", 2, enumerated("partite", lambda r: {"part_sizes": (3, 4)}),
            ["--parts", "3,4"], (fc.PartAssignment((3, 4)),),
        )
        + family_steps(
            fc, rng, "leafplane", 3, enumerated("leafplane", lambda r: {"n": r + 5, "leaves": r + 1})
        )
    )


def family_steps(fc, rng, family, k, source, flags=(), extra=()) -> list[Command]:
    """Step k forward from a forest with k-1 roots and back from one with k
    roots, twice with the forest in --forest and twice on stdin."""
    forward = getattr(fc, f"{family}_forward")
    inverse = getattr(fc, f"{family}_inverse")
    choices = getattr(fc, f"{family}_choice_count")
    head = ["--family", family, "--k", str(k), *flags]
    out = []
    for via_stdin in (False, True, False, True):
        f = source(k - 1)
        out.append(step_cmd(family, ["forward", *head], f, via_stdin, lambda f=f: forward(f, k, *extra)))
        g = source(k)
        c = rng.randint(1, choices(g, k, *extra))
        out.append(
            step_cmd(
                family, ["inverse", *head, "--choice", str(c)], g, via_stdin,
                lambda g=g, c=c: inverse(g, k, *extra, c),
            )
        )
    return out


def step_cmd(family, argv, forest, via_stdin, step) -> Command:
    def want() -> str:
        result = step()
        if isinstance(result, tuple):
            return f"{text(result[0])}\nchoice {result[1]}\n"
        return text(result) + "\n"

    given = text(forest)
    if via_stdin:
        return exact("short", f"bijection {family}", ["bijection", *argv], want, 1, stdin=given)
    return exact("short", f"bijection {family}", ["bijection", *argv, "--forest", given], want, 1)


def converts(fc, rng: random.Random) -> list[Command]:
    """Two forests of each kind, each into two formats."""
    out = []
    for _ in range(2):
        rooted = fc.sample_uniform("plain", 15, rng.getrandbits(63), roots=3, conditioned=False)
        plane = fc.sample_uniform("plane", 12, rng.getrandbits(63), roots=2)
        colored = fc.sample_uniform("colored", 12, rng.getrandbits(63), colors=3)
        colored_flags = ["--kind", "colored", "--kc", "3"]
        out += [
            convert_cmd(rooted, "json", [], False),
            convert_cmd(rooted, "dot", [], True),
            convert_cmd(plane, "json", [], True),
            convert_cmd(plane, "dot", [], False),
            convert_cmd(colored, "text", colored_flags, True),
            convert_cmd(colored, "dot", colored_flags, False),
        ]
    return out


def convert_cmd(forest, fmt, flags, via_stdin) -> Command:
    given = text(forest)
    argv = ["convert", *flags, "--format", fmt] + ([] if via_stdin else ["--forest", given])

    def check(out) -> int:
        stdout = succeeded(out)
        if fmt == "json":
            expect(json_lines(stdout) == [as_json(forest)], "json differs")
        elif fmt == "dot":
            check_dot(forest, stdout)
        else:
            expect(stdout == given + "\n", "text differs")
        return 1

    return Command("short", f"convert {fmt}", argv, given if via_stdin else None, check)


def sample_cmd(fc, kind, family, n, count, seed, fmt="text", colors=0, roots=1, unconditioned=False) -> Command:
    argv = ["sample", "--family", family, "--n", str(n), "--count", str(count), "--seed", str(seed)]
    argv += ["--kc", str(colors)] if colors else []
    argv += ["--roots", str(roots)] if roots != 1 else []
    argv += ["--unconditioned"] if unconditioned else []
    argv += ["--format", fmt] if fmt != "text" else []

    @memo
    def want() -> list:
        rng = fc.SplitMix64(seed)
        return [
            fc.sample_uniform(
                family, n, seed, colors=colors, roots=roots, conditioned=not unconditioned, rng=rng
            )
            for _ in range(count)
        ]

    def check(out) -> int:
        stdout = succeeded(out)
        if fmt == "json":
            expect(json_lines(stdout) == [as_json(f) for f in want()], "samples differ")
        else:
            expect(stdout == "".join(text(f) + "\n" for f in want()), "samples differ")
        return count

    return Command(kind, f"sample {family} n={n}", argv, None, check)


def samples(fc, rng: random.Random) -> list[Command]:
    seed = lambda: rng.getrandbits(31)  # noqa: E731
    out = []
    for fmt in ("text", "json", "text", "json"):
        out.append(sample_cmd(fc, "short", "plain", 10, 3, seed(), fmt))
        out.append(sample_cmd(fc, "short", "plane", 10, 3, seed(), fmt))
        out.append(sample_cmd(fc, "short", "colored", 10, 3, seed(), fmt, colors=3))
    for _ in range(4):
        out.append(sample_cmd(fc, "medium", "plain", 100, 20, seed()))
    for _ in range(3):
        out.append(sample_cmd(fc, "medium", "plain", 100, 20, seed(), roots=3, unconditioned=True))
    out.append(sample_cmd(fc, "heavy", "plane", 100, 20, seed()))
    out.append(sample_cmd(fc, "heavy", "colored", 100, 20, seed(), colors=3))
    return out


def json_key(obj):
    """Canonical order key of a JSON forest, as for the forest values."""
    if obj["kind"] == "plane":
        node = lambda nd: (nd["label"] or 0, tuple(node(c) for c in nd["children"]))  # noqa: E731
        return tuple(node(t) for t in obj["trees"])
    if obj["kind"] == "colored":
        return (tuple(obj["parents"]), tuple(obj["colors"]))
    return tuple(obj["parents"])


def enumerate_cmd(fc, kind, argv: list[str], want: int, fmt: str) -> Command:
    """Exactly `want` members, in strictly increasing canonical order."""

    def check(out) -> int:
        stdout = succeeded(out)
        lines = stdout.splitlines()
        if fmt == "json":
            keys = [json_key(obj) for obj in json_lines(stdout)]
        elif fmt == "colored":
            pairs = ["\n".join(lines[i : i + 2]) for i in range(0, len(lines), 2)]
            keys = [key(fc.parse_colored(pair, int(argv[-1]))) for pair in pairs]
        elif fmt == "plane":
            keys = [key(fc.parse_plane(line)) for line in lines]
        else:
            keys = [key(fc.parse_forest(line)) for line in lines]
        expect(len(keys) == want, f"{len(keys)} forests, closed form {want}")
        expect(all(a < b for a, b in zip(keys, keys[1:])), "keys do not strictly increase")
        return want

    return Command(kind, " ".join(argv[:3]), argv, None, check)


def enumerations(fc) -> list[Command]:
    fam = ["enumerate", "--family"]
    short = [
        (["plain", "--n", "4"], 4**2, "rooted"),
        (["plain", "--n", "5", "--roots", "2"], 2 * 5**2, "rooted"),
        (["plane", "--n", "4"], factorial(6) // factorial(3) // 4, "plane"),
        (["plane", "--n", "5"], factorial(8) // factorial(4) // 5, "plane"),
        (["colored", "--n", "3", "--kc", "2"], 2 * factorial(1) * comb(3, 1), "colored"),
        (["colored", "--n", "4", "--kc", "2"], 2 * factorial(2) * comb(4, 2), "colored"),
        (["special-colored", "--n", "3", "--kc", "2"], comb(2, 1), "colored"),
        (["kary", "--arity", "2", "--n", "3"], comb(6, 2) * factorial(2) // 3, "plane"),
        (["kary", "--arity", "3", "--n", "2"], comb(6, 1) // 2, "plane"),
        (["partite", "--parts", "2,3"], 2**2 * 3**1, "rooted"),
        (["partite", "--parts", "2,2"], 2 * 2, "rooted"),
    ]
    return [enumerate_cmd(fc, "short", fam + argv, want, fmt) for argv, want, fmt in short] + [
        enumerate_cmd(
            fc, "heavy", fam + ["plane", "--n", "6", "--format", "json"],
            factorial(10) // factorial(5) // 6, "json",
        ),
    ]


# --------------------------------------------------------------------------
# Known defects: the right behaviour passes, the documented wrong one is a
# KnownDefect, anything else a Mismatch
# --------------------------------------------------------------------------


def defects() -> list[Command]:
    return [digits_defect(), depth_defect(), ascii_defect()]


def digits_defect() -> Command:
    n = 2000

    def check(out) -> int:
        code, stdout, stderr = out
        if code == 1 and not stdout and "Exceeds the limit (4300 digits)" in stderr:
            raise KnownDefect(DEFECT_DIGITS)
        with unlimited_digits():
            want = f"{n ** (n - 2)}\n"
        expect(code == 0 and stdout == want, f"count cayley --n {n}: exit {code}")
        return 0

    return Command("defect", DEFECT_DIGITS, ["count", "cayley", "--n", str(n)], None, check)


def depth_defect() -> Command:
    depth = 1200
    chain = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)

    def check(out) -> int:
        code, stdout, stderr = out
        if code != 0 and "RecursionError" in stderr:
            raise KnownDefect(DEFECT_DEPTH)
        expect(code == 0 and stdout == chain + "\n", f"deep chain: exit {code}")
        return 1

    return Command("defect", DEFECT_DEPTH, ["convert", "--kind", "plane"], chain, check)


def ascii_defect() -> Command:
    forest = "3 1 0 1 \u0661"

    def check(out) -> int:
        code, stdout, stderr = out
        if code == 0 and stdout == "3 1 0 1 1\n":
            raise KnownDefect(DEFECT_ASCII)
        lines = stderr.splitlines()
        if code != 1 or stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            raise Mismatch(f"non-ASCII digit: exit {code}, stderr {stderr[-200:]!r}")
        return 0

    return Command("defect", DEFECT_ASCII, ["convert", "--forest", forest], None, check)


# --------------------------------------------------------------------------
# Traced run: each command of the first round in a subprocess, then in this
# process untraced and traced, with the lru caches reset before each run so
# that every run starts as cold as a fresh process
# --------------------------------------------------------------------------


def run_in_process(cli, cmd: Command) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(cmd.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(cmd.argv))
            except Exception:  # an uncaught error: Python would exit 1
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def traced_pass(fc, seed: int, tracer) -> tuple[list[Result], dict[str, float]]:
    rng = random.Random(seed)
    cmds = commands(fc, rng)
    rng.shuffle(cmds)  # the order of the untraced run's first round
    cli = importlib.import_module("forestcodec.cli")
    reset = caches()

    def fresh(cmd):
        for cached in reset:
            cached.cache_clear()
        start = time.perf_counter()
        out = run_in_process(cli, cmd)
        return time.perf_counter() - start, out

    results, subprocess_s, in_process_s = [], 0.0, 0.0
    for cmd in cmds:
        op = as_op(cmd)
        latency, out = timed(op)
        subprocess_s += latency
        results.append(Result(op.kind, latency, *judge(op, out)))
        in_process_s += fresh(cmd)[0]
    traced_s, output_bytes = 0.0, 0
    tracer.install(fc)
    try:
        for cmd, result in zip(cmds, results):
            latency, out = fresh(cmd)
            tracer.close_open_spans()
            traced_s += latency
            output_bytes += len(out[1].encode())
            status, _, detail = judge(as_op(cmd), out)
            if status != result.status:
                result.status, result.detail = "fail", f"in process: {status} {detail}"
    finally:
        tracer.uninstall()
    return results, {
        "cli.run_s": in_process_s,
        "cli.startup_s": subprocess_s - in_process_s,
        "cli.output_bytes": output_bytes,
        "trace.overhead_share": traced_s / in_process_s - 1,
    }
