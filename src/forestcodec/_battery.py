"""The battery of ``forestcodec verify all`` and the identity grids it
shares with ``forestcodec identity``: only those two commands load it."""

from __future__ import annotations

from itertools import product

from .cli import _print_rows, _row, _verdict


# identity -> (its function in `counting`, its default grid: one range per
# argument, in argument order, and the test of a grid point it is defined
# at).  `identity` and `verify all` share the grids.
_IDENTITIES = {
    "bipartite": (
        "bipartite_identity",
        {"r": range(2, 9), "s": range(1, 9)},
        lambda r, s: True,
    ),
    "kary": (
        "kary_identity",
        {"k": range(1, 5), "p": range(1, 4), "q": range(1, 4), "n": range(2, 13)},
        lambda k, p, q, n: n >= p + q,
    ),
}


def _identity_rows(name: str, given: dict[str, range]):
    """(point, lhs, rhs) at each point of an identity's grid, where the
    ranges given replace the defaults."""
    from . import counting

    func, grid, defined = _IDENTITIES[name]
    for var in given:
        if var not in grid:
            raise ValueError(
                f"identity {name} has no variable {var!r}; it has {', '.join(grid)}"
            )
    grid = {**grid, **given}
    for values in product(*grid.values()):
        if defined(*values):
            point = " ".join(f"{var}={x}" for var, x in zip(grid, values))
            yield (point, *getattr(counting, func)(*values))


def _closed_forms(max_n: int):
    """(label, closed form, the oracle specs whose counts add up to it) for
    each row of the closed-form grids, in the order ``verify all`` prints."""
    from . import counting
    from .enumeration import FamilySpec

    for n in range(1, min(max_n, 6) + 1):
        yield f"cayley n={n}", counting.cayley(n), [FamilySpec("plain", n=n)]
    for n in range(2, min(max_n, 6) + 1):
        for k in range(1, n):
            form = counting.rooted_forest_count(n, k)
            yield f"rooted-forest n={n} k={k}", form, [FamilySpec("plain", n=n, roots=k)]
    for sizes in ((2, 3), (3, 3), (1, 1, 2), (2, 2, 2)):
        form = counting.multipartite_spanning_trees(sizes)
        yield f"multipartite {sizes}", form, [FamilySpec("partite", part_sizes=sizes)]
    for v in range(2, 6):
        specs = [FamilySpec("plane", n=v, root_set=(r,)) for r in range(1, v + 1)]
        yield f"plane-labeled v={v}", counting.plane_labeled_count(v), specs
    for n in range(1, 6):
        specs = [FamilySpec("plane", n=n + 1, labeled=False)]
        yield f"catalan n={n}", counting.catalan(n), specs
    for kc in (2, 3):
        for n in range(2, 5):
            form = counting.colored_tree_count(n, kc)
            specs = [FamilySpec("colored", n=n, colors=kc)]
            yield f"colored-tree n={n} kc={kc}", form, specs


def _verify_all(max_n: int, budget: int | None) -> int:
    from . import codec, counting
    from .enumeration import count_by_enumeration, verify_recurrence

    failures = 0

    def check(name: str, got, want) -> None:
        nonlocal failures
        failures += _row(f"{name}: got {got}, want {want}", got == want)

    recurrences = [("plain", {"n": n}) for n in range(3, max_n + 1)]
    recurrences += [("plane", {"n": n}) for n in range(3, min(max_n, 6) + 1)]
    recurrences += [
        ("colored", {"n": n, "colors": kc})
        for n in range(3, min(max_n, 5) + 1)
        for kc in (2, 3)
    ]
    recurrences += [
        ("partite", {"part_sizes": (2, 3)}),
        ("partite", {"part_sizes": (2, 2, 2)}),
        ("leafplane", {"n": 6, "leaves": 2}),
    ]
    for family, params in recurrences:
        rows = verify_recurrence(family, budget=budget, **params)
        failures += _print_rows(
            row.replace(label=f"{family} {row.label}") for row in rows
        )

    for label, form, specs in _closed_forms(max_n):
        check(label, form, sum(count_by_enumeration(s, budget) for s in specs))
    for n in range(40, 41):
        for k in range(1, n):
            check(
                f"riordan n={n} k={k}",
                counting.riordan_forest_count(n, k),
                counting.riordan_closed_form(n, k),
            )
    for name in _IDENTITIES:
        for point, lhs, rhs in _identity_rows(name, {}):
            check(f"{name}-identity {point}", lhs, rhs)

    n = 5
    traces = [
        codec.ChoiceTrace("plain", n, 0, (a, b, c))
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for c in range(1, n + 1)
    ]
    decoded = {codec.decode(t).parents for t in traces}
    check("codec image size n=5", len(decoded), counting.cayley(n))
    return _verdict(failures)
