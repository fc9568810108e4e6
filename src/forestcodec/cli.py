"""Command line driver: counting, enumeration, bijection steps, codecs,
sampling, identities, and the verification battery, which lives in
:mod:`forestcodec._battery`.

Exit codes: 0 success, 1 usage or validation failure, 2 a verification
mismatch (a formula disagreeing with its oracle, or a failed identity).

Each command imports the library modules it runs when it runs, so a
process compiles only those: ``count`` loads ``counting`` and nothing else,
and only ``verify all`` and ``identity`` load the battery.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# The choices of every --format option; the families with bijection steps
# and recurrences, which `bijection` and `verify` take; and, as literals so
# that building the parser imports none of those modules,
# `codec.CODEC_FAMILIES`, `enumeration.FAMILIES` and the names of
# `_battery._IDENTITIES`, which a test pins them to.
_FORMATS = ("text", "json", "dot")
_STEP_FAMILIES = ("plain", "partite", "plane", "leafplane", "colored")
_CODEC_FAMILIES = ("plain", "plane", "colored")
_IDENTITY_NAMES = ("bipartite", "kary")
_FAMILIES = (
    "plain",
    "partite",
    "plane",
    "leafplane",
    "kary",
    "colored",
    "special-colored",
)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _to_json(obj) -> dict:
    """A rooted forest's document; a colored one's is its base's, with its
    colors added."""
    from .forests import EdgeColoredForest

    if isinstance(obj, EdgeColoredForest):
        doc = _to_json(obj.base)
        doc.update(kind="colored", colors=list(obj.colors), colorCount=obj.color_count)
        return doc
    return {
        "kind": "rooted",
        "n": obj.n,
        "roots": list(obj.roots),
        "parents": list(obj.parents),
    }


def _plane_json(pf) -> str:
    """The text ``json.dumps(doc, sort_keys=True)`` gives for a plane
    forest's nested document, written from its word, so depth is no limit.
    The sorted keys put a vertex's ``"label"`` after its ``"children"``, so
    the stack holds the label of each vertex whose child list is open."""
    from .forests import _depths

    depth = _depths(pf.preorder_degrees)
    out, stack = [], []
    for i, x in enumerate(pf.preorder_labels):
        out.append('{"children": [')
        stack.append(x)
        ends = depth[i] + 1 - depth[i + 1]  # child lists that end with vertex i
        for _ in range(ends):
            out.append(f'], "label": {stack.pop() or "null"}}}')
        if ends:  # the next vertex, if any, is a sibling
            out.append(", ")
    trees = "".join(out)[:-2]
    return f'{{"kind": "plane", "trees": [{trees}], "vertices": {pf.n_vertices}}}'


def _to_dot(obj) -> str:
    from .forests import EdgeColoredForest, RootedForest, _preorder_parents

    lines = ["digraph forest {"]
    if isinstance(obj, (RootedForest, EdgeColoredForest)):
        base = obj.base if isinstance(obj, EdgeColoredForest) else obj
        colors = obj.colors if isinstance(obj, EdgeColoredForest) else None
        for v in range(1, base.n + 1):
            lines.append(f'  v{v} [label="{v}"];')
        for v in range(1, base.n + 1):
            p = base.parents[v - 1]
            if p == 0:
                continue
            attr = f' [label="{colors[v - 1]}"]' if colors else ""
            lines.append(f"  v{p} -> v{v}{attr};")
    else:  # a plane forest; vertex v{i} is the i-th in global preorder.
        kids: list[list[int]] = [[] for _ in range(obj.n_vertices + 1)]
        up = _preorder_parents(obj.preorder_degrees)
        for i, (x, p) in enumerate(zip(obj.preorder_labels, up)):
            lines.append(f'  v{i} [label="{x or "*"}"];')
            kids[p].append(i)
        for i, below in enumerate(kids[1:]):
            for j in below:
                lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines)


def _render(obj, fmt: str) -> str:
    if fmt == "dot":
        return _to_dot(obj)
    from .forests import (
        EdgeColoredForest,
        PlaneForest,
        render_colored,
        render_forest,
        render_plane,
    )

    if isinstance(obj, PlaneForest):
        return _plane_json(obj) if fmt == "json" else render_plane(obj)
    if fmt == "json":
        import json

        return json.dumps(_to_json(obj), sort_keys=True)
    if isinstance(obj, EdgeColoredForest):
        return render_colored(obj)
    return render_forest(obj)


def _parse_any(text: str, kind: str, color_count: int | None):
    from .forests import parse_colored, parse_forest, parse_plane

    if kind == "auto":
        if any(ch in text for ch in "(;*"):
            kind = "plane"
        else:
            tokens = text.split()
            if not tokens or not tokens[0].isdecimal():  # int() takes no "²"
                raise ValueError("cannot detect the input kind")
            n = int(tokens[0])
            kind = "colored" if len(tokens) == 2 + 2 * n else "rooted"
    if kind == "plane":
        return parse_plane(text)
    if kind == "colored":
        if color_count is None:
            raise ValueError("colored input needs --kc")
        return parse_colored(text, color_count)
    return parse_forest(text)


# As `forests._INTEGER`; `count` loads no `forests`.
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An integer in ASCII digits, as the text formats take it; spaces around
    it are dropped.  ``int()`` alone would also take other scripts' digits
    and underscores."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _ints(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers given to --``flag``."""
    try:
        return tuple(_integer(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ValueError(f"--{flag} takes comma-separated integers, got {text!r}") from None


def _parse_range(text: str, flag: str) -> range:
    """The integer or inclusive range lo..hi given to --``flag``."""
    try:
        lo, hi = map(_integer, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise ValueError(f"--{flag} takes an integer or lo..hi, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}: {lo} > {hi}")
    return range(lo, hi + 1)


def _parse_grid(text: str) -> dict[str, range]:
    grid = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"grid entries look like var=lo..hi, got {item!r}")
        name, _, spec = item.partition("=")
        name = name.strip()
        if name in grid:
            raise ValueError(f"--grid gives {name!r} twice")
        grid[name] = _parse_range(spec.strip(), "grid")
    return grid


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------


# The flags of `count`, in help order: int flags, comma-separated lists
# (which arrive as strings), and the switch --conditioned.
_COUNT_INTS = "n k r s t p v m kc arity internal roots".split()
_COUNT_LISTS = "parts degrees multiplicities".split()

# formula -> (its function in `counting`, the flags it takes in argument
# order).  Names, not functions, so each call sees the module's current
# attribute.
_FORMULAS = {
    "cayley": ("cayley", "n"),
    "rooted-forest": ("rooted_forest_count", "n k conditioned"),
    "forests-k-trees": ("forests_with_k_trees", "n k"),
    "riordan": ("riordan_closed_form", "n k"),
    "multipartite": ("multipartite_spanning_trees", "parts"),
    "tripartite-base": ("tripartite_base_count", "r s t"),
    "plane-labeled": ("plane_labeled_count", "v"),
    "catalan": ("catalan", "n"),
    "narayana": ("narayana", "n p"),
    "compositions": ("composition_stats", "n m"),
    "kary-forest": ("kary_forest_count", "arity internal roots"),
    "kary-unlabeled": ("kary_unlabeled_count", "arity internal"),
    "degseq-plane": ("degseq_plane_count", "degrees"),
    "degseq-rooted": ("degseq_rooted_count", "degrees"),
    "erdelyi-etherington": ("erdelyi_etherington", "multiplicities"),
    "special-colored": ("special_colored_count", "n kc r conditioned"),
    "colored-tree": ("colored_tree_count", "n kc"),
    "colored-root-degree": ("colored_root_degree_count", "n kc r"),
}


def _reject_flags(args, reader: str, names) -> None:
    """Each flag named is one the ``reader`` (say "count cayley takes")
    never reads: given, it is an error, not a no-op.  A flag not given, or
    not defined, is None, or False for a switch."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value is not False:
            raise ValueError(f"{reader} no --{name.replace('_', '-')}")


def _cmd_count(args) -> int:
    if args.formula not in _FORMULAS:
        raise ValueError(f"unknown formula {args.formula!r}")
    from . import counting

    name, flags = _FORMULAS[args.formula]
    read = flags.split()
    unread = [f for f in (*_COUNT_INTS, *_COUNT_LISTS, "conditioned") if f not in read]
    _reject_flags(args, f"count {args.formula} takes", unread)
    values = [getattr(args, flag) for flag in read]
    if None in values:
        raise ValueError(f"count {args.formula} needs --{read[values.index(None)]}")
    out = getattr(counting, name)(
        *(_ints(v, f) if isinstance(v, str) else v for f, v in zip(read, values))
    )
    # composition_stats answers with a (count, total) pair.
    print(*(out if isinstance(out, tuple) else (out,)))
    return EXIT_OK


# --------------------------------------------------------------------------
# enumerate / sample / bijection
# --------------------------------------------------------------------------


def _spec_from_args(args):
    from .enumeration import FamilySpec

    return FamilySpec(
        family=args.family,
        n=args.n or 0,
        roots=args.roots,
        part_sizes=_ints(args.parts, "parts") if args.parts else (),
        leaves=args.leaves,
        colors=args.kc or 0,
        arity=args.arity or 0,
        conditioned=args.conditioned,
        labeled=not args.unlabeled,
        degrees=None if args.degrees is None else _ints(args.degrees, "degrees"),
    )


def _cmd_enumerate(args) -> int:
    from .enumeration import _checked, count_by_enumeration, enumerate_family

    if args.count_only:
        _reject_flags(args, "enumerate --count-only takes", ["limit", "format"])
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    spec = _spec_from_args(args)
    _checked(spec, args.budget)  # a bad spec or budget fails at --limit 0 too
    # The spec reads a parameter of 0, or an empty --parts, as not given.
    family = args.family
    reads = {"n": family != "partite", "parts": family == "partite",
             "kc": family.endswith("colored"), "arity": family == "kary"}
    _reject_flags(args, f"{family} forests take", [f for f, r in reads.items() if not r])
    if args.count_only:
        print(count_by_enumeration(spec, args.budget))
        return EXIT_OK
    for forest in islice(enumerate_family(spec, args.budget), args.limit):
        print(_render(forest, args.format or "text"))
    return EXIT_OK


# The one family that reads each family parameter of sample, bijection,
# encode and verify recurrence.
_READERS = {"parts": "partite", "leaves": "leafplane", "kc": "colored"}


def _reject_unread(args) -> None:
    unread = [name for name, family in _READERS.items() if family != args.family]
    _reject_flags(args, f"{args.family} forests take", unread)


def _cmd_sample(args) -> int:
    from . import codec

    _reject_unread(args)
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    if not 0 <= args.seed <= codec._MASK64:
        # SplitMix64 takes its seed mod 2^64: -1 would sample as 2^64 - 1.
        raise ValueError(f"--seed must lie in 0..{codec._MASK64}, got {args.seed}")
    rng = codec.SplitMix64(args.seed)
    for _ in range(args.count):
        forest = codec.sample_uniform(
            args.family,
            args.n,
            args.seed,
            colors=args.kc or 0,
            roots=args.roots,
            conditioned=not args.unconditioned,
            rng=rng,
        )
        print(_render(forest, args.format))
    return EXIT_OK


# family -> the input kind of its forests, where the two names differ.
_KINDS = {"plain": "rooted", "partite": "rooted", "leafplane": "plane"}


def _family_forest(args):
    """The forest of ``args.family`` given by --forest, or else on stdin."""
    text = args.forest if args.forest is not None else sys.stdin.read()
    if args.family == "colored" and args.kc is None:
        raise ValueError("colored forests need --kc")
    return _parse_any(text, _KINDS.get(args.family, args.family), args.kc)


def _cmd_bijection(args) -> int:
    from . import bijections
    from .forests import PartAssignment

    family = args.family
    _reject_unread(args)
    if args.direction == "forward":
        _reject_flags(args, "bijection forward takes", ["choice"])
    forest = _family_forest(args)
    if args.k is None:
        raise ValueError("bijection needs --k (the new root label)")
    parts = ()
    if family == "partite":
        if not args.parts:
            raise ValueError("partite bijections need --parts")
        parts = (PartAssignment(_ints(args.parts, "parts")),)
    step = getattr(bijections, f"{family}_{args.direction}")
    if args.direction == "forward":
        out, c = step(forest, args.k, *parts)
        print(_render(out, args.format))
        print(f"choice {c}")
        return EXIT_OK
    if args.choice is None:
        raise ValueError("bijection inverse needs --choice")
    print(_render(step(forest, args.k, *parts, args.choice), args.format))
    return EXIT_OK


def _cmd_encode(args) -> int:
    from . import codec

    _reject_unread(args)
    print(codec.render_trace(codec.encode(_family_forest(args))))
    return EXIT_OK


def _cmd_decode(args) -> int:
    from . import codec

    text = args.trace if args.trace is not None else sys.stdin.read()
    print(_render(codec.decode(codec.parse_trace(text)), args.format))
    return EXIT_OK


def _cmd_convert(args) -> int:
    text = args.forest if args.forest is not None else sys.stdin.read()
    obj = _parse_any(text.strip(), args.kind, args.kc)
    print(_render(obj, args.format))
    return EXIT_OK


# --------------------------------------------------------------------------
# identity / verify
# --------------------------------------------------------------------------


def _cmd_identity(args) -> int:
    from ._battery import _identity_rows

    grid = _parse_grid(args.grid) if args.grid else {}
    failures = 0
    for point, lhs, rhs in _identity_rows(args.name, grid):
        failures += _row(f"{point} lhs={lhs} rhs={rhs}", lhs == rhs)
    return _verdict(failures)


def _row(text: str, ok: bool) -> bool:
    """Print a checked row with its verdict; True iff it failed."""
    print(f"{text} {'PASS' if ok else 'FAIL'}")
    return not ok


def _print_rows(rows) -> int:
    """Print recurrence rows; returns how many failed."""
    return sum(_row(f"{r.label}: {r.lhs} = {r.multiplier} * {r.rhs}", r.ok) for r in rows)


def _verdict(failures: int) -> int:
    print("FAIL" if failures else "PASS")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_verify(args) -> int:
    # Each mode rejects the flags only the other reads.
    recurrence = ("family", "n", "k_range", "parts", "kc", "leaves")
    other = ("max_n",) if args.what == "recurrence" else recurrence
    _reject_flags(args, f"verify {args.what} takes", other)
    if args.what == "recurrence":
        from .enumeration import verify_recurrence

        if args.family is None:
            raise ValueError("verify recurrence needs --family")
        _reject_unread(args)
        k_range = _parse_range(args.k_range, "k-range") if args.k_range else None
        part_sizes = _ints(args.parts, "parts") if args.parts else ()
        if args.family == "partite":  # its parts fix n, so an --n of 0 is given too
            _reject_flags(args, "partite forests take", ["n"])
        rows = verify_recurrence(
            args.family,
            n=args.n or 0,
            k_range=k_range,
            part_sizes=part_sizes,
            colors=args.kc or 0,
            leaves=args.leaves,
            budget=args.budget,
        )
        return _verdict(_print_rows(rows))
    max_n = 6 if args.max_n is None else args.max_n
    if max_n < 3:  # the least n with a recurrence step
        raise ValueError(f"--max-n must be at least 3, got {max_n}")
    from ._battery import _verify_all

    return _verify_all(max_n, args.budget)


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestcodec",
        description="Bijections, exact counts, and uniform samplers for "
        "rooted-forest families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser(
        "count",
        help="evaluate a closed-form count",
        epilog="formulas: " + ", ".join(_FORMULAS),
    )
    pc.add_argument("formula")
    for flag in _COUNT_INTS:
        pc.add_argument(f"--{flag}", type=int)
    for flag in _COUNT_LISTS:
        pc.add_argument(f"--{flag}")
    pc.add_argument("--conditioned", action="store_true")
    pc.set_defaults(func=_cmd_count)

    pe = sub.add_parser("enumerate", help="stream a family exhaustively")
    _family_flags(pe)
    pe.add_argument("--limit", type=int)
    pe.add_argument("--count-only", action="store_true")
    pe.add_argument("--budget", type=int)
    # No default, so that --count-only can tell a given --format.
    pe.add_argument("--format", choices=_FORMATS)
    pe.set_defaults(func=_cmd_enumerate)

    ps = sub.add_parser("sample", help="draw uniform random forests")
    ps.add_argument("--family", choices=_CODEC_FAMILIES, default="plain")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--kc", type=int)
    ps.add_argument("--roots", type=int, default=1)
    ps.add_argument("--unconditioned", action="store_true")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--count", type=int, default=1)
    ps.add_argument("--format", choices=_FORMATS, default="text")
    ps.set_defaults(func=_cmd_sample)

    pb = sub.add_parser("bijection", help="apply one forward or inverse step")
    pb.add_argument("direction", choices=("forward", "inverse"))
    pb.add_argument("--family", choices=_STEP_FAMILIES, default="plain")
    pb.add_argument("--k", type=int)
    pb.add_argument("--choice", type=int)
    pb.add_argument("--parts")
    pb.add_argument("--kc", type=int)
    pb.add_argument("--forest")
    pb.add_argument("--format", choices=_FORMATS, default="text")
    pb.set_defaults(func=_cmd_bijection)

    pn = sub.add_parser("encode", help="print the choice trace of a forest")
    pn.add_argument("--family", choices=_CODEC_FAMILIES, default="plain")
    pn.add_argument("--kc", type=int)
    pn.add_argument("--forest")
    pn.set_defaults(func=_cmd_encode)

    pd = sub.add_parser("decode", help="rebuild the forest of a choice trace")
    pd.add_argument("trace", nargs="?", help='e.g. "plain 5 : 3 1 4"')
    pd.add_argument("--format", choices=_FORMATS, default="text")
    pd.set_defaults(func=_cmd_decode)

    pi = sub.add_parser("identity", help="check a summation identity on a grid")
    pi.add_argument("name", choices=_IDENTITY_NAMES)
    pi.add_argument("--grid")
    pi.set_defaults(func=_cmd_identity)

    pv = sub.add_parser("verify", help="check formulas against oracles")
    pv.add_argument("what", choices=("recurrence", "all"))
    pv.add_argument("--family", choices=_STEP_FAMILIES)
    pv.add_argument("--n", type=int)
    pv.add_argument("--k-range")
    pv.add_argument("--parts")
    pv.add_argument("--kc", type=int)
    pv.add_argument("--leaves", type=int)
    pv.add_argument("--max-n", type=int, help="largest n checked (default 6, at least 3)")
    pv.add_argument("--budget", type=int)
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("convert", help="re-render a forest in another format")
    pt.add_argument("--forest")
    pt.add_argument(
        "--kind", choices=("auto", "rooted", "plane", "colored"), default="auto"
    )
    pt.add_argument("--kc", type=int)
    pt.add_argument("--format", choices=_FORMATS, default="text")
    pt.set_defaults(func=_cmd_convert)

    # Every `type=int` flag reads through `_integer`; argparse still names
    # the type "int" in its usage error.
    for command in sub.choices.values():
        command.register("type", int, _integer)
    return parser


def _family_flags(sp) -> None:
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument(
        "--n", type=int, help="vertex count (for kary: internal vertex count)"
    )
    sp.add_argument("--roots", type=int, default=1, help="root count k")
    sp.add_argument("--parts", help="comma-separated part sizes, e.g. 2,3")
    sp.add_argument("--leaves", type=int, help="leaf count p (leafplane)")
    sp.add_argument("--kc", type=int, help="number of edge colors")
    sp.add_argument("--arity", type=int, help="children per internal vertex")
    sp.add_argument(
        "--conditioned",
        action="store_true",
        help="restrict to forests whose pivot vertex lies in tree 1",
    )
    sp.add_argument(
        "--unlabeled", action="store_true", help="enumerate shapes only"
    )
    sp.add_argument("--degrees", help="child counts per vertex, e.g. 1,1,0")


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors a command reports on one ``error: `` line.  Only a loaded
    enumeration module can raise its budget error, so this loads none."""
    enumeration = sys.modules.get(f"{__package__}.enumeration")
    budget = (enumeration.BudgetExceededError,) if enumeration else ()
    return (ValueError, ArithmeticError, *budget)


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # Counts are exact at any size, so the command prints integers of any
    # length.  The interpreter's limit (Python 3.10.7 on) is restored after,
    # for library callers.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that left early fails it here
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit has nothing to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limited:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
