"""Command line driver: counting, enumeration, bijection steps, sampling,
identities, and the verification battery.

Exit codes: 0 success, 1 usage or validation failure, 2 a verification
mismatch (a formula disagreeing with its oracle, or a failed identity).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections as bij
from . import codec, counting
from .enumeration import (
    BudgetExceededError,
    FamilySpec,
    count_by_enumeration,
    enumerate_family,
    verify_recurrence,
)
from .forests import (
    EdgeColoredForest,
    PartAssignment,
    PlaneForest,
    RootedForest,
    parse_colored,
    parse_forest,
    parse_plane,
    plane_preorder,
    render_colored,
    render_forest,
    render_plane,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _to_json(obj) -> dict:
    if isinstance(obj, EdgeColoredForest):
        return {
            "kind": "colored",
            "n": obj.n,
            "roots": list(obj.base.roots),
            "parents": list(obj.base.parents),
            "colors": list(obj.colors),
            "colorCount": obj.color_count,
        }
    if isinstance(obj, RootedForest):
        return {
            "kind": "rooted",
            "n": obj.n,
            "roots": list(obj.roots),
            "parents": list(obj.parents),
        }
    if isinstance(obj, PlaneForest):
        trees: list[dict] = []
        # Iterative, so depth is no limit: each node's dict goes into the
        # children list of its parent's dict, in order.
        stack = [(t, trees) for t in reversed(obj.trees)]
        while stack:
            nd, siblings = stack.pop()
            entry = {"label": nd.label, "children": []}
            siblings.append(entry)
            stack.extend((c, entry["children"]) for c in reversed(nd.children))
        return {
            "kind": "plane",
            "vertices": obj.n_vertices,
            "trees": trees,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _to_dot(obj) -> str:
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
    elif isinstance(obj, PlaneForest):
        ids = {}
        for i, (ti, path, nd) in enumerate(plane_preorder(obj)):
            ids[(ti, path)] = i
            text = "*" if nd.label is None else str(nd.label)
            lines.append(f'  v{i} [label="{text}"];')
        for ti, path, nd in plane_preorder(obj):
            for j in range(len(nd.children)):
                lines.append(
                    f"  v{ids[(ti, path)]} -> v{ids[(ti, path + (j,))]};"
                )
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines)


def _render(obj, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_to_json(obj), sort_keys=True)
    if fmt == "dot":
        return _to_dot(obj)
    if isinstance(obj, EdgeColoredForest):
        return render_colored(obj)
    if isinstance(obj, RootedForest):
        return render_forest(obj)
    return render_plane(obj)


def _parse_any(text: str, kind: str, color_count: int | None):
    if kind == "auto":
        if any(ch in text for ch in "(;*"):
            kind = "plane"
        else:
            tokens = text.split()
            if not tokens or not tokens[0].isdigit():
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


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _parse_grid(text: str) -> dict[str, range]:
    grid = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"grid entries look like var=lo..hi, got {item!r}")
        name, _, spec = item.partition("=")
        grid[name.strip()] = _parse_range(spec.strip())
    return grid


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------


def _need(args, *names):
    values = []
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise ValueError(f"count {args.formula} needs --{name}")
        values.append(value)
    return values


def _cmd_count(args) -> int:
    f = args.formula
    if f == "cayley":
        (n,) = _need(args, "n")
        out = counting.cayley(n)
    elif f == "rooted-forest":
        n, k = _need(args, "n", "k")
        out = counting.rooted_forest_count(n, k, args.conditioned)
    elif f == "forests-k-trees":
        n, k = _need(args, "n", "k")
        out = counting.forests_with_k_trees(n, k)
    elif f == "riordan":
        n, k = _need(args, "n", "k")
        out = counting.riordan_forest_count(n, k)
    elif f == "multipartite":
        (parts,) = _need(args, "parts")
        out = counting.multipartite_spanning_trees(_ints(parts))
    elif f == "tripartite-base":
        r, s, t = _need(args, "r", "s", "t")
        out = counting.tripartite_base_count(r, s, t)
    elif f == "plane-labeled":
        (v,) = _need(args, "v")
        out = counting.plane_labeled_count(v)
    elif f == "catalan":
        (n,) = _need(args, "n")
        out = counting.catalan(n)
    elif f == "narayana":
        n, p = _need(args, "n", "p")
        out = counting.narayana(n, p)
    elif f == "compositions":
        n, m = _need(args, "n", "m")
        count, total = counting.composition_stats(n, m)
        print(count, total)
        return EXIT_OK
    elif f == "kary-forest":
        arity, internal, roots = _need(args, "arity", "internal", "roots")
        out = counting.kary_forest_count(arity, internal, roots)
    elif f == "kary-unlabeled":
        arity, internal = _need(args, "arity", "internal")
        out = counting.kary_unlabeled_count(arity, internal)
    elif f == "degseq-plane":
        (degrees,) = _need(args, "degrees")
        out = counting.degseq_plane_count(_ints(degrees))
    elif f == "degseq-rooted":
        (degrees,) = _need(args, "degrees")
        out = counting.degseq_rooted_count(_ints(degrees))
    elif f == "erdelyi-etherington":
        (mult,) = _need(args, "multiplicities")
        out = counting.erdelyi_etherington(_ints(mult))
    elif f == "special-colored":
        n, kc, r = _need(args, "n", "kc", "r")
        out = counting.special_colored_count(n, kc, r, args.conditioned)
    elif f == "colored-tree":
        n, kc = _need(args, "n", "kc")
        out = counting.colored_tree_count(n, kc)
    elif f == "colored-root-degree":
        n, kc, r = _need(args, "n", "kc", "r")
        out = counting.colored_root_degree_count(n, kc, r)
    else:
        raise ValueError(f"unknown formula {f!r}")
    print(out)
    return EXIT_OK


# --------------------------------------------------------------------------
# enumerate / sample / bijection
# --------------------------------------------------------------------------


def _spec_from_args(args) -> FamilySpec:
    return FamilySpec(
        family=args.family,
        n=args.n or 0,
        roots=args.roots,
        part_sizes=_ints(args.parts) if args.parts else (),
        leaves=args.leaves,
        colors=args.kc or 0,
        arity=args.arity or 0,
        conditioned=args.conditioned,
        labeled=not args.unlabeled,
        degrees=_ints(args.degrees) if args.degrees else None,
    )


def _cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    if args.count_only:
        print(count_by_enumeration(spec, args.budget))
        return EXIT_OK
    emitted = 0
    for forest in enumerate_family(spec, args.budget):
        print(_render(forest, args.format))
        emitted += 1
        if args.limit is not None and emitted >= args.limit:
            break
    return EXIT_OK


def _cmd_sample(args) -> int:
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


def _read_forest_arg(args):
    text = args.forest if args.forest is not None else sys.stdin.read()
    family = args.family
    if family in ("plane", "leafplane"):
        return parse_plane(text)
    if family == "colored":
        if args.kc is None:
            raise ValueError("colored forests need --kc")
        return parse_colored(text, args.kc)
    return parse_forest(text)


def _cmd_bijection(args) -> int:
    forest = _read_forest_arg(args)
    k = args.k
    if k is None:
        raise ValueError("bijection needs --k (the new root label)")
    family = args.family
    if family == "partite":
        if not args.parts:
            raise ValueError("partite bijections need --parts")
        parts = PartAssignment(_ints(args.parts))
    if args.direction == "forward":
        if family == "plain":
            out, c = bij.plain_forward(forest, k)
        elif family == "partite":
            out, c = bij.partite_forward(forest, k, parts)
        elif family == "plane":
            out, c = bij.plane_forward(forest, k)
        elif family == "leafplane":
            out, c = bij.leafplane_forward(forest, k)
        else:
            out, c = bij.colored_forward(forest, k)
        print(_render(out, args.format))
        print(f"choice {c}")
        return EXIT_OK
    if args.choice is None:
        raise ValueError("bijection inverse needs --choice")
    if family == "plain":
        out = bij.plain_inverse(forest, k, args.choice)
    elif family == "partite":
        out = bij.partite_inverse(forest, k, parts, args.choice)
    elif family == "plane":
        out = bij.plane_inverse(forest, k, args.choice)
    elif family == "leafplane":
        out = bij.leafplane_inverse(forest, k, args.choice)
    else:
        out = bij.colored_inverse(forest, k, args.choice)
    print(_render(out, args.format))
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
    grid = _parse_grid(args.grid) if args.grid else None
    failures = 0
    if args.name == "bipartite":
        grid = grid or {"r": range(2, 9), "s": range(1, 9)}
        for r in grid["r"]:
            for s in grid["s"]:
                lhs, rhs = counting.bipartite_identity(r, s)
                ok = lhs == rhs
                failures += not ok
                print(f"r={r} s={s} lhs={lhs} rhs={rhs} {'PASS' if ok else 'FAIL'}")
    elif args.name == "kary":
        grid = grid or {
            "k": range(1, 5),
            "p": range(1, 4),
            "q": range(1, 4),
            "n": range(2, 13),
        }
        for k in grid["k"]:
            for p in grid["p"]:
                for q in grid["q"]:
                    for n in grid["n"]:
                        if n < p + q:
                            continue
                        lhs, rhs = counting.kary_identity(k, p, q, n)
                        ok = lhs == rhs
                        failures += not ok
                        print(
                            f"k={k} p={p} q={q} n={n} lhs={lhs} rhs={rhs} "
                            f"{'PASS' if ok else 'FAIL'}"
                        )
    else:
        raise ValueError(f"unknown identity {args.name!r}")
    print("FAIL" if failures else "PASS")
    return EXIT_MISMATCH if failures else EXIT_OK


def _print_rows(rows) -> int:
    failures = 0
    for row in rows:
        ok = row.ok
        failures += not ok
        print(
            f"{row.label}: {row.lhs} = {row.multiplier} * {row.rhs} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    print("FAIL" if failures else "PASS")
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "recurrence":
        if args.family is None:
            raise ValueError("verify recurrence needs --family")
        rows = verify_recurrence(
            args.family,
            n=args.n or 0,
            k_range=_parse_range(args.k_range) if args.k_range else None,
            part_sizes=_ints(args.parts) if args.parts else (),
            colors=args.kc or 0,
            leaves=args.leaves,
            budget=args.budget,
        )
        return _print_rows(rows)
    return _verify_all(args.max_n, args.budget)


def _verify_all(max_n: int, budget: int | None) -> int:
    failures = 0

    def check(name: str, got, want) -> None:
        nonlocal failures
        ok = got == want
        failures += not ok
        print(f"{name}: got {got}, want {want} {'PASS' if ok else 'FAIL'}")

    def run_rows(name: str, rows) -> None:
        nonlocal failures
        for row in rows:
            ok = row.ok
            failures += not ok
            print(
                f"{name} {row.label}: {row.lhs} = {row.multiplier} * {row.rhs} "
                f"{'PASS' if ok else 'FAIL'}"
            )

    for n in range(3, max_n + 1):
        run_rows("plain", verify_recurrence("plain", n=n, budget=budget))
    for n in range(3, min(max_n, 6) + 1):
        run_rows("plane", verify_recurrence("plane", n=n, budget=budget))
    for n in range(3, min(max_n, 5) + 1):
        for kc in (2, 3):
            run_rows(
                "colored",
                verify_recurrence("colored", n=n, colors=kc, budget=budget),
            )
    run_rows(
        "partite", verify_recurrence("partite", part_sizes=(2, 3), budget=budget)
    )
    run_rows(
        "partite",
        verify_recurrence("partite", part_sizes=(2, 2, 2), budget=budget),
    )
    run_rows(
        "leafplane",
        verify_recurrence("leafplane", n=6, leaves=2, budget=budget),
    )

    for n in range(1, min(max_n, 6) + 1):
        check(
            f"cayley n={n}",
            counting.cayley(n),
            count_by_enumeration(FamilySpec("plain", n=n, roots=1), budget),
        )
    for n in range(2, min(max_n, 6) + 1):
        for k in range(1, n):
            check(
                f"rooted-forest n={n} k={k}",
                counting.rooted_forest_count(n, k),
                count_by_enumeration(FamilySpec("plain", n=n, roots=k), budget),
            )
    for sizes in ((2, 3), (3, 3), (1, 1, 2), (2, 2, 2)):
        check(
            f"multipartite {sizes}",
            counting.multipartite_spanning_trees(sizes),
            count_by_enumeration(
                FamilySpec("partite", part_sizes=sizes, roots=1), budget
            ),
        )
    for v in range(2, 6):
        check(
            f"plane-labeled v={v}",
            counting.plane_labeled_count(v),
            sum(
                count_by_enumeration(
                    FamilySpec("plane", n=v, root_set=(r,)), budget
                )
                for r in range(1, v + 1)
            ),
        )
    for n in range(1, 6):
        check(
            f"catalan n={n}",
            counting.catalan(n),
            count_by_enumeration(
                FamilySpec("plane", n=n + 1, roots=1, labeled=False), budget
            ),
        )
    for kc in (2, 3):
        for n in range(2, 5):
            check(
                f"colored-tree n={n} kc={kc}",
                counting.colored_tree_count(n, kc),
                count_by_enumeration(
                    FamilySpec("colored", n=n, colors=kc, roots=1), budget
                ),
            )
    for n in range(40, 41):
        for k in range(1, n):
            check(
                f"riordan n={n} k={k}",
                counting.riordan_forest_count(n, k),
                k * n ** (n - k - 1),
            )
    for r in range(2, 9):
        for s in range(1, 9):
            lhs, rhs = counting.bipartite_identity(r, s)
            check(f"bipartite-identity r={r} s={s}", lhs, rhs)
    for k in range(1, 5):
        for p in range(1, 4):
            for q in range(1, 4):
                for n in range(p + q, 13):
                    lhs, rhs = counting.kary_identity(k, p, q, n)
                    check(f"kary-identity k={k} p={p} q={q} n={n}", lhs, rhs)

    n = 5
    traces = [
        codec.ChoiceTrace("plain", n, 0, (a, b, c))
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for c in range(1, n + 1)
    ]
    decoded = {codec.decode(t).parents for t in traces}
    check("codec image size n=5", len(decoded), counting.cayley(n))

    print("FAIL" if failures else "PASS")
    return EXIT_MISMATCH if failures else EXIT_OK


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
        epilog="formulas: cayley, rooted-forest, forests-k-trees, riordan, "
        "multipartite, tripartite-base, plane-labeled, catalan, narayana, "
        "compositions, kary-forest, kary-unlabeled, degseq-plane, "
        "degseq-rooted, erdelyi-etherington, special-colored, colored-tree, "
        "colored-root-degree",
    )
    pc.add_argument("formula")
    pc.add_argument("--n", type=int)
    pc.add_argument("--k", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--s", type=int)
    pc.add_argument("--t", type=int)
    pc.add_argument("--p", type=int)
    pc.add_argument("--q", type=int)
    pc.add_argument("--v", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--kc", type=int)
    pc.add_argument("--arity", type=int)
    pc.add_argument("--internal", type=int)
    pc.add_argument("--roots", type=int)
    pc.add_argument("--parts")
    pc.add_argument("--degrees")
    pc.add_argument("--multiplicities")
    pc.add_argument("--conditioned", action="store_true")
    pc.set_defaults(func=_cmd_count)

    pe = sub.add_parser("enumerate", help="stream a family exhaustively")
    _family_flags(pe)
    pe.add_argument("--limit", type=int)
    pe.add_argument("--count-only", action="store_true")
    pe.add_argument("--budget", type=int)
    pe.add_argument("--format", choices=("text", "json", "dot"), default="text")
    pe.set_defaults(func=_cmd_enumerate)

    ps = sub.add_parser("sample", help="draw uniform random forests")
    ps.add_argument("--family", choices=codec.CODEC_FAMILIES, default="plain")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--kc", type=int)
    ps.add_argument("--roots", type=int, default=1)
    ps.add_argument("--unconditioned", action="store_true")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--count", type=int, default=1)
    ps.add_argument("--format", choices=("text", "json", "dot"), default="text")
    ps.set_defaults(func=_cmd_sample)

    pb = sub.add_parser("bijection", help="apply one forward or inverse step")
    pb.add_argument("direction", choices=("forward", "inverse"))
    pb.add_argument(
        "--family",
        choices=("plain", "partite", "plane", "leafplane", "colored"),
        default="plain",
    )
    pb.add_argument("--k", type=int)
    pb.add_argument("--choice", type=int)
    pb.add_argument("--parts")
    pb.add_argument("--kc", type=int)
    pb.add_argument("--forest")
    pb.add_argument("--format", choices=("text", "json", "dot"), default="text")
    pb.set_defaults(func=_cmd_bijection)

    pi = sub.add_parser("identity", help="check a summation identity on a grid")
    pi.add_argument("name", choices=("bipartite", "kary"))
    pi.add_argument("--grid")
    pi.set_defaults(func=_cmd_identity)

    pv = sub.add_parser("verify", help="check formulas against oracles")
    pv.add_argument("what", choices=("recurrence", "all"))
    pv.add_argument(
        "--family",
        choices=("plain", "partite", "plane", "leafplane", "colored"),
    )
    pv.add_argument("--n", type=int)
    pv.add_argument("--k-range")
    pv.add_argument("--parts")
    pv.add_argument("--kc", type=int)
    pv.add_argument("--leaves", type=int)
    pv.add_argument("--max-n", type=int, default=6)
    pv.add_argument("--budget", type=int)
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("convert", help="re-render a forest in another format")
    pt.add_argument("--forest")
    pt.add_argument(
        "--kind", choices=("auto", "rooted", "plane", "colored"), default="auto"
    )
    pt.add_argument("--kc", type=int)
    pt.add_argument("--format", choices=("text", "json", "dot"), default="text")
    pt.set_defaults(func=_cmd_convert)

    return parser


def _family_flags(sp) -> None:
    sp.add_argument(
        "--family",
        choices=(
            "plain",
            "partite",
            "plane",
            "leafplane",
            "kary",
            "colored",
            "special-colored",
        ),
        required=True,
    )
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


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
