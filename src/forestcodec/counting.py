"""Exact big-integer evaluation of the closed-form counts.

Everything here is integer arithmetic: each division goes through
``_exact_div``.  The one rational sum, ``kary_identity``'s, goes through
``fractions.Fraction``, imported there and only there, and is asserted
integral at the end.  A division with a remainder is an implementation bug,
never a rounding opportunity, so it raises instead of truncating.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Sequence


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _ints(**named) -> None:
    """Raises ValueError naming the first argument that is not an int, or is
    a bool, as ``forests._int`` does: ``count`` loads no other module."""
    for name, x in named.items():
        if type(x) is not int and (not isinstance(x, int) or type(x) is bool):
            raise ValueError(f"{name} must be an int, got {x!r}")


def _int_entries(values: list, name: str) -> None:
    """Raises ValueError unless every entry of ``values`` is an int and not
    a bool."""
    for x in values:
        if type(x) is not int and (not isinstance(x, int) or type(x) is bool):
            raise ValueError(f"{name} entries must be ints, got {x!r}")


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


def cayley(n: int) -> int:
    """Labeled trees on n vertices: n^(n-2)."""
    _ints(n=n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 if n <= 2 else n ** (n - 2)


def rooted_forest_count(n: int, k: int, conditioned: bool = False) -> int:
    """Forests of k rooted trees on {1..n} with roots 1..k: k * n^(n-k-1).

    With ``conditioned`` the count is restricted to forests whose vertex n
    lies in tree 1, dropping the factor k.
    """
    _ints(n=n, k=k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    base = n ** (n - k - 1)
    return base if conditioned else k * base


def forests_with_k_trees(n: int, k: int) -> int:
    """Forests on {1..n} made of k trees with distinguished roots."""
    _ints(n=n, k=k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return comb(n - 1, k - 1) * n ** (n - k)


def riordan_forest_count(n: int, k: int) -> int:
    """Forests on {1..n} of k trees separating the vertices 1..k.

    Computed by the classical deletion recurrence
    T(n, k) = sum_i C(n-k, i) * T(n-1, k-1+i), with T(n, n) = 1; removing
    vertex 1 with its i neighbors leaves a forest of k-1+i trees.  The rows
    below n are filled bottom up, so no call nests, and every value is kept
    across calls.
    """
    _ints(n=n, k=k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = _riordan_table()
    while len(rows) <= n:
        rows.append([1])
    if n - k < len(rows[n]):
        return rows[n][n - k]
    # T(n, k) reads row m from T(m, m) down to T(m, k - (n - m)).
    for m in range(2, n + 1):
        row = rows[m]
        for t in range(len(row), min(m, n - k + 1)):
            row.append(_riordan(rows[m - 1], m, t))
    return rows[n][n - k]


def riordan_closed_form(n: int, k: int) -> int:
    """The count of ``riordan_forest_count`` by its closed form,
    k * n^(n-k-1), and 1 for k = n."""
    _ints(n=n, k=k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 1 if k == n else k * n ** (n - k - 1)


def _riordan(below: list[int], m: int, t: int) -> int:
    """T(m, m - t) from ``below``, row m-1 of the table."""
    # below[t - i] is T(m-1, m-1-t+i).  The i = 0 term needs T(m-1, 0),
    # which is 0 for m > 1; skip it at t = m-1.
    return sum(
        comb(t, i) * below[t - i] for i in range(0 if t < m - 1 else 1, t + 1)
    )


@lru_cache(maxsize=None)
def _riordan_table() -> list[list[int]]:
    """The values of T computed so far, made on first use.  The table is an
    ``lru_cache`` so that ``cache_clear()`` resets it: the cli benchmark
    (``perfbench/cli_workload.py``) calls that on every lru-cached function
    of the package between commands.  ``rows[m][t]`` is T(m, m - t), filled
    from t = 0 on."""
    return [[], [1]]


def multipartite_spanning_trees(parts: Sequence[int]) -> int:
    """Spanning trees of a complete multipartite graph.

    The count is n^(m-2) times the product over parts of (n - n_i)^(n_i - 1);
    with two parts this is the bipartite r^(s-1) s^(r-1), with three the
    tripartite product formula.
    """
    sizes = list(parts)
    _int_entries(sizes, "parts")
    if len(sizes) < 2:
        raise ValueError("need at least two parts")
    if any(s < 1 for s in sizes):
        raise ValueError("every part must be nonempty")
    n = sum(sizes)
    value = n ** (len(sizes) - 2)
    for s in sizes:
        value *= (n - s) ** (s - 1)
    return value


def tripartite_base_count(r: int, s: int, t: int) -> int:
    """Forests of r+s-1 tripartite trees pinning vertex 1 under vertex r+1.

    Either 1 hangs directly under r+1 ((r+s)^t placements of the third
    part) or under a third-part vertex that is itself a child of r+1
    (t * (r+s)^(t-1)); together (r+s+t)(r+s)^(t-1).
    """
    _ints(r=r, s=s, t=t)
    if min(r, s, t) < 1:
        raise ValueError("part sizes must be positive")
    return (r + s + t) * (r + s) ** (t - 1)


def bipartite_identity(r: int, s: int) -> tuple[int, int]:
    """Both sides of the two-tree bipartite forest identity.

    The left side splits a forest of two bipartite trees by the sizes (i, j)
    of the first tree's parts; the right side is r^(s-1) s^(r-2).  The j = s
    column leaves the second tree without any part-2 vertex, which forces it
    to be the single vertex of part 1, so those summands vanish except at
    i = r-1 (the 0^0 = 1 reading of the formula).
    """
    _ints(r=r, s=s)
    if r < 2 or s < 1:
        raise ValueError(f"need r >= 2 and s >= 1, got r={r}, s={s}")
    lhs = 0
    for i in range(1, r):
        for j in range(1, s + 1):
            if j == s:
                if i != r - 1:
                    continue
                lhs += comb(r - 2, i - 1) * i ** (s - 1) * s ** (i - 1)
                continue
            lhs += (
                comb(r - 2, i - 1)
                * comb(s - 1, j - 1)
                * i ** (j - 1)
                * j ** (i - 1)
                * (r - i) ** (s - j - 1)
                * (s - j) ** (r - i - 1)
            )
    rhs = r ** (s - 1) * s ** (r - 2)
    return lhs, rhs


def plane_labeled_count(v: int) -> int:
    """Labeled plane trees on v vertices: (2(v-1))! / (v-1)!."""
    _ints(v=v)
    if v < 1:
        raise ValueError(f"need v >= 1, got {v}")
    return _exact_div(factorial(2 * (v - 1)), factorial(v - 1))


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1): unlabeled plane trees on n+1 vertices."""
    _ints(n=n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _exact_div(comb(2 * n, n), n + 1)


def narayana(n: int, p: int) -> int:
    """Unlabeled plane trees on n+1 vertices with exactly p leaves."""
    _ints(n=n, p=p)
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    return _exact_div(comb(n + 1, p) * comb(n - 1, n - p), n + 1)


def composition_stats(n: int, m: int) -> tuple[int, int]:
    """Compositions of n into m positive parts, and the total of their x_1.

    There are C(n-1, m-1) solutions of x_1 + ... + x_m = n in positive
    integers; by symmetry the first coordinates sum to n/m of the total
    mass, i.e. n * C(n-1, m-1) / m.
    """
    _ints(n=n, m=m)
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    count = comb(n - 1, m - 1)
    return count, _exact_div(n * count, m)


def kary_forest_count(arity: int, internal: int, roots: int) -> int:
    """Leaf-unlabeled k-ary plane forests: (r/n) C(kn, n-r) (n-r)!.

    Counts forests of `roots` trees on arity*internal + roots vertices in
    which every internal vertex has exactly `arity` ordered children and
    the internal vertices carry labels with roots labeled 1..r.
    """
    _ints(arity=arity, internal=internal, roots=roots)
    if arity < 1:
        raise ValueError(f"need arity >= 1, got {arity}")
    if not 1 <= roots <= internal:
        raise ValueError(f"need 1 <= roots <= internal, got {roots}, {internal}")
    return _exact_div(
        roots * comb(arity * internal, internal - roots) * factorial(internal - roots),
        internal,
    )


def kary_unlabeled_count(arity: int, internal: int) -> int:
    """Unlabeled k-ary plane trees on arity*internal + 1 vertices."""
    _ints(arity=arity, internal=internal)
    if arity < 1 or internal < 1:
        raise ValueError("need arity >= 1 and internal >= 1")
    kn = arity * internal
    return _exact_div(comb(kn + 1, internal), kn + 1)


def kary_identity(arity: int, p: int, q: int, n: int) -> tuple[int, int]:
    """Both sides of the two-block k-ary forest convolution identity.

    Splitting a forest of p+q trees into its first p and last q trees gives
    sum_i (pq / (i(n-i))) C(ki, i-p) C(k(n-i), n-i-q) for the left side and
    ((p+q)/n) C(kn, n-(p+q)) for the right.
    """
    _ints(arity=arity, p=p, q=q, n=n)
    if arity < 1:
        raise ValueError(f"need arity >= 1, got {arity}")
    if p < 1 or q < 1 or n < p + q:
        raise ValueError(f"need p, q >= 1 and n >= p+q, got {p}, {q}, {n}")
    from fractions import Fraction

    lhs = Fraction(0)
    for i in range(p, n - q + 1):
        lhs += (
            Fraction(p * q, i * (n - i))
            * comb(arity * i, i - p)
            * comb(arity * (n - i), n - i - q)
        )
    rhs = Fraction(p + q, n) * comb(arity * n, n - (p + q))
    return _as_int(lhs), _as_int(rhs)


def _tree_degrees(degrees: Sequence[int]) -> list[int]:
    """The child counts of a tree on {1..n}, checked."""
    d = list(degrees)
    _int_entries(d, "degrees")
    n = len(d)
    if n < 1:
        raise ValueError("need at least one vertex")
    if any(x < 0 for x in d):
        raise ValueError("degrees must be nonnegative")
    if sum(d) != n - 1:
        raise ValueError(f"degrees must sum to n-1 = {n - 1}, got {sum(d)}")
    return d


def degseq_plane_count(degrees: Sequence[int]) -> int:
    """Plane trees on {1..n} with prescribed child counts: (n-1)!."""
    return factorial(len(_tree_degrees(degrees)) - 1)


def degseq_rooted_count(degrees: Sequence[int]) -> int:
    """Rooted trees on {1..n} with prescribed child counts: a multinomial."""
    d = _tree_degrees(degrees)
    value = factorial(len(d) - 1)
    for x in d:
        value = _exact_div(value, factorial(x))
    return value


def erdelyi_etherington(multiplicities: Sequence[int]) -> int:
    """Unlabeled plane trees with n_i vertices of child count i.

    The argument lists (n_1, ..., n_m); the vertex count n = 1 + sum i*n_i
    and the leaf count n_0 = n - sum n_i are implied.  The count is the
    multinomial C(n; n_0, n_1, ..., n_m) divided by n.
    """
    mult = list(multiplicities)
    _int_entries(mult, "multiplicities")
    if any(x < 0 for x in mult):
        raise ValueError("multiplicities must be nonnegative")
    n = 1 + sum(i * x for i, x in enumerate(mult, start=1))
    n0 = n - sum(mult)  # 1 + sum (i-1)*n_i, so at least 1
    value = factorial(n)
    for x in [n0] + mult:
        value = _exact_div(value, factorial(x))
    return _exact_div(value, n)


def special_colored_count(
    n: int, colors: int, r: int, conditioned: bool = False
) -> int:
    """Forests of r special properly colored trees on {1..n} with roots 1..r.

    A special tree keeps the last color off the edges out of its root.  The
    count is r (kc-1) (n-r-1)! C(kc*n - n - 1, n-r-1); conditioning on
    vertex n lying in tree 1 drops the factor r.
    """
    _ints(n=n, colors=colors, r=r)
    if colors < 1:
        raise ValueError(f"need at least one color, got {colors}")
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    base = (
        (colors - 1)
        * factorial(n - r - 1)
        * comb(colors * n - n - 1, n - r - 1)
    )
    return base if conditioned else r * base


def colored_tree_count(n: int, colors: int) -> int:
    """Properly colored trees on {1..n}: kc (n-2)! C(kc*n - n, n-2)."""
    _ints(n=n, colors=colors)
    if colors < 1:
        raise ValueError(f"need at least one color, got {colors}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return colors * factorial(n - 2) * comb(colors * n - n, n - 2)


def colored_root_degree_count(n: int, colors: int, r: int) -> int:
    """Properly colored trees on {1..n}, rooted at 1, with root degree r."""
    _ints(n=n, colors=colors, r=r)
    if colors < 1:
        raise ValueError(f"need at least one color, got {colors}")
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    return (
        colors
        * factorial(n - 2)
        * comb(colors - 1, r - 1)
        * comb((colors - 1) * (n - 1), n - r - 1)
    )
