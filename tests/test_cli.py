"""Command line surface: outputs, formats, and the exit-code contract."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import forestcodec
from forestcodec import cli, parse_colored, parse_forest, parse_plane
from forestcodec.enumeration import canonical_key

DEEP_CHAIN = "(".join(map(str, range(1, 1201))) + ")" * 1199


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_cayley(self, capsys):
        code, out, _ = run(capsys, "count", "cayley", "--n", "5")
        assert (code, out) == (0, "125\n")

    def test_cayley_boundary(self, capsys):
        code, out, _ = run(capsys, "count", "cayley", "--n", "1")
        assert (code, out) == (0, "1\n")

    def test_compositions_pair(self, capsys):
        code, out, _ = run(capsys, "count", "compositions", "--n", "5", "--m", "3")
        assert (code, out) == (0, "6 10\n")

    def test_riordan_all_roots(self, capsys):
        code, out, _ = run(capsys, "count", "riordan", "--n", "7", "--k", "7")
        assert (code, out) == (0, "1\n")

    def test_riordan_too_many_roots(self, capsys):
        code, out, err = run(capsys, "count", "riordan", "--n", "5", "--k", "6")
        assert (code, out) == (1, "")
        assert err == "error: need 1 <= k <= n, got k=6, n=5\n"

    def test_riordan_large_n_prints_the_closed_form(self, capsys):
        # The deletion recurrence would take minutes here.
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "riordan", "--n", "2000", "--k", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(out) == 2000**1998
        finally:
            sys.set_int_max_str_digits(limit)

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "count", "cayley")
        assert code == 1
        assert "--n" in err

    def test_unknown_formula(self, capsys):
        code, _, err = run(capsys, "count", "zeta", "--n", "3")
        assert code == 1
        assert "unknown formula" in err

    def test_count_prints_every_digit(self, capsys):
        code, out, err = run(capsys, "count", "cayley", "--n", "2000")
        assert (code, err) == (0, "")
        digits = out.strip()
        assert len(digits) == 6596 and digits.isdigit()
        # Compare without the interpreter's int/str conversion limit, which
        # the command must leave as it found it.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(digits) == 2000**1998
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unknown_flag_is_error(self, capsys):
        code, _, _ = run(capsys, "count", "cayley", "--n", "5", "--wat", "1")
        assert code == 1


class TestVerify:
    def test_recurrence_plain(self, capsys):
        code, out, _ = run(capsys, "verify", "recurrence", "--family", "plain", "--n", "5")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "125 = 5 * 25" in out

    def test_recurrence_needs_family(self, capsys):
        code, _, err = run(capsys, "verify", "recurrence")
        assert code == 1

    def test_verify_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "4")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_mismatch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            forestcodec.counting, "bipartite_identity", lambda r, s: (1, 2)
        )
        code, out, _ = run(capsys, "identity", "bipartite", "--grid", "r=2..2,s=1..1")
        assert code == 2
        assert out.strip().endswith("FAIL")


class TestIdentity:
    def test_bipartite_grid(self, capsys):
        code, out, _ = run(capsys, "identity", "bipartite", "--grid", "r=2..4,s=1..4")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_kary_grid(self, capsys):
        code, out, _ = run(
            capsys, "identity", "kary", "--grid", "k=1..2,p=1..2,q=1..2,n=2..6"
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_missing_variables_take_the_default_ranges(self, capsys):
        code, out, err = run(capsys, "identity", "bipartite", "--grid", "r=2")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[0] == "r=2 s=1 lhs=1 rhs=1 PASS"
        assert [row.split()[1] for row in rows[:-1]] == [f"s={s}" for s in range(1, 9)]
        code, out, err = run(capsys, "identity", "kary", "--grid", "k=1..2")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        # p, q in 1..3 and p + q <= n <= 12: 81 points per k.
        assert len(rows) == 2 * 81 + 1 and rows[-1] == "PASS"
        assert rows[0] == "k=1 p=1 q=1 n=2 lhs=1 rhs=1 PASS"

    def test_unknown_variable(self, capsys):
        code, out, err = run(capsys, "identity", "kary", "--grid", "k=1,x=1")
        assert (code, out) == (1, "")
        assert err == "error: identity kary has no variable 'x'; it has k, p, q, n\n"


class TestBijection:
    def test_inverse_figure_vector(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection",
            "inverse",
            "--family",
            "plain",
            "--k",
            "3",
            "--choice",
            "2",
            "--forest",
            "5 3 0 0 0 3 1",
        )
        assert (code, out) == (0, "5 2 0 0 2 3 1\n")

    def test_forward_then_inverse_round_trip(self, capsys):
        original = "5 2 0 0 5 3 1"
        code, out, _ = run(
            capsys, "bijection", "forward", "--family", "plain", "--k", "3",
            "--forest", original,
        )
        assert code == 0
        forest_line, choice_line = out.strip().splitlines()
        choice = choice_line.split()[-1]
        code, out, _ = run(
            capsys, "bijection", "inverse", "--family", "plain", "--k", "3",
            "--choice", choice, "--forest", forest_line,
        )
        assert (code, out) == (0, original + "\n")

    def test_choice_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "bijection", "inverse", "--family", "plain", "--k", "3",
            "--choice", "6", "--forest", "5 3 0 0 0 3 1",
        )
        assert code == 1
        assert "choice" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("5 3 0 0 0 3 1"))
        code, out, _ = run(
            capsys, "bijection", "inverse", "--family", "plain", "--k", "3",
            "--choice", "1",
        )
        assert (code, out) == (0, "5 2 0 0 1 3 1\n")

    def test_colored_needs_kc(self, capsys):
        code, _, err = run(
            capsys, "bijection", "inverse", "--family", "colored", "--k", "3",
            "--choice", "1", "--forest", "3 2 0 0 1 0 0 1",
        )
        assert code == 1
        assert "--kc" in err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "plain", "--n", "3", "--roots", "1",
            "--count-only",
        )
        assert (code, out) == (0, "3\n")

    def test_limit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "plain", "--n", "4", "--roots", "1",
            "--limit", "2",
        )
        assert code == 0
        assert out.splitlines() == ["4 1 0 1 1 1", "4 1 0 1 1 2"]

    def test_limit_zero_prints_nothing_and_negative_fails(self, capsys):
        argv = ("enumerate", "--family", "plain", "--n", "4", "--limit")
        assert run(capsys, *argv, "0") == (0, "", "")
        assert run(capsys, *argv, "-2") == (
            1, "", "error: --limit must be nonnegative, got -2\n"
        )
        assert run(capsys, *argv, "0", "--budget", "-5") == (
            1, "", "error: candidate budget must be positive: -5\n"
        )

    def test_limit_draws_no_further_member(self, capsys):
        """Plane words spend the budget one candidate each, so drawing a
        member past the limit would exceed a budget of one."""
        assert run(
            capsys, "enumerate", "--family", "plane", "--n", "3", "--roots", "1",
            "--limit", "1", "--budget", "1",
        ) == (0, "1(2,3)\n", "")

    def test_json_lines(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "plain", "--n", "3", "--roots", "1",
            "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert rows[0]["kind"] == "rooted"
        assert rows[0]["parents"] == [0, 1, 1]

    def test_budget_flag(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "plain", "--n", "6", "--roots", "1",
            "--count-only", "--budget", "10",
        )
        assert code == 1
        assert "budget" in err

    def test_nonpositive_budget_fails(self, capsys):
        for budget in ("-5", "0"):
            code, out, err = run(
                capsys, "enumerate", "--family", "plain", "--n", "3",
                "--budget", budget,
            )
            assert (code, out) == (1, "")
            assert err == f"error: candidate budget must be positive: {budget}\n"


class TestSample:
    def test_reproducible_bytes(self, capsys):
        args = ("sample", "--family", "plain", "--n", "10", "--seed", "42",
                "--count", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    def test_colored_sample(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--family", "colored", "--n", "5", "--kc", "3",
            "--seed", "7",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # parents line + colors line


class TestConvert:
    def test_text_canonicalizes(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "5  3  0 0 0 3 1", "--format", "text"
        )
        assert (code, out) == (0, "5 3 0 0 0 3 1\n")

    def test_plane_json(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "1(5,3(4));2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "plane"
        assert doc["vertices"] == 5
        assert doc["trees"][0]["children"][0]["label"] == 5

    def test_plane_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", "--forest", "1(5,3(4));2")
        assert (code, out) == (0, "1(5,3(4));2\n")

    def test_deep_plane_chain(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_CHAIN))
        code, out, _ = run(capsys, "convert", "--kind", "plane")
        assert (code, out) == (0, DEEP_CHAIN + "\n")

    def test_deep_plane_json(self, capsys, monkeypatch):
        for depth in (1200, 20_000):
            chain = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
            monkeypatch.setattr("sys.stdin", io.StringIO(chain))
            code, out, _ = run(capsys, "convert", "--kind", "plane", "--format", "json")
            # json.loads recurses too, so the expected text is built here.
            tree = (
                '{"children": [' * (depth - 1)
                + f'{{"children": [], "label": {depth}}}'
                + "".join(f'], "label": {v}}}' for v in range(depth - 1, 0, -1))
            )
            want = f'{{"kind": "plane", "trees": [{tree}], "vertices": {depth}}}\n'
            assert (code, out) == (0, want)

    def test_deep_plane_dot(self, capsys, monkeypatch):
        for depth in (1200, 20_000):
            chain = "(".join(map(str, range(1, depth + 1))) + ")" * (depth - 1)
            monkeypatch.setattr("sys.stdin", io.StringIO(chain))
            code, out, _ = run(capsys, "convert", "--kind", "plane", "--format", "dot")
            lines = (
                ["digraph forest {"]
                + [f'  v{i} [label="{i + 1}"];' for i in range(depth)]
                + [f"  v{i} -> v{i + 1};" for i in range(depth - 1)]
                + ["}"]
            )
            assert (code, out) == (0, "\n".join(lines) + "\n")

    def test_json_text_matches_json_dumps(self):
        def nested(node):
            return {"children": [*map(nested, node.children)], "label": node.label}

        for text in ("1(5,3(4));2", "1(*,2(*,*));3(*)"):
            pf = parse_plane(text)
            trees = [*map(nested, pf.trees)]
            doc = {"kind": "plane", "trees": trees, "vertices": pf.n_vertices}
            assert cli._render(pf, "json") == json.dumps(doc, sort_keys=True)
        for forest in (
            parse_forest("5 3 0 0 0 3 1"),
            parse_colored("3 1 0 1 2\n0 1 2", 2),
        ):
            doc = cli._to_json(forest)
            assert cli._render(forest, "json") == json.dumps(doc, sort_keys=True)

    def test_non_ascii_digit_is_an_error(self, capsys):
        code, out, err = run(capsys, "convert", "--forest", "3 1 0 1 \u0661")
        assert (code, out) == (1, "")
        assert err.startswith("error: not an integer")

    def test_dot_edges(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "3 1 0 1 2", "--format", "dot"
        )
        assert code == 0
        assert "digraph" in out
        assert "v1 -> v2" in out
        assert "v2 -> v3" in out

    def test_plane_dot_numbers_in_preorder(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "1(2,3(4),5);6(*,7)", "--format", "dot"
        )
        assert code == 0
        assert out == "\n".join([
            "digraph forest {",
            *(f'  v{i} [label="{t}"];' for i, t in enumerate("123456*7")),
            "  v0 -> v1;", "  v0 -> v2;", "  v0 -> v4;", "  v2 -> v3;",
            "  v5 -> v6;", "  v5 -> v7;",
            "}",
        ]) + "\n"

    def test_colored_dot_has_color_labels(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "3 1 0 1 2 0 1 2", "--kind", "colored",
            "--kc", "2", "--format", "dot",
        )
        assert code == 0
        assert 'v2 -> v3 [label="2"]' in out

    def test_autodetect_colored(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--forest", "3 1 0 1 2 0 1 2", "--kc", "2"
        )
        assert (code, out) == (0, "3 1 0 1 2\n0 1 2\n")

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "convert", "--forest", "1(2")
        assert code == 1
        assert "position" in err


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "forestcodec" in out


ERROR_PATHS = [
    ("count", "cayley"),
    ("count", "zeta", "--n", "3"),
    ("count", "multipartite", "--parts", "2,x"),
    ("enumerate", "--family", "plane", "--n", "4", "--degrees", "1,y", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "0"),
    ("enumerate", "--family", "leafplane", "--n", "5"),
    ("enumerate", "--family", "plane", "--n", "9", "--roots", "1", "--budget", "100"),
    ("enumerate", "--family", "leafplane", "--n", "5", "--leaves", "2",
     "--degrees", "9", "--count-only"),
    ("enumerate", "--family", "plane", "--n", "7", "--unlabeled", "--degrees", "1,1",
     "--count-only"),
    ("enumerate", "--family", "kary", "--n", "2", "--arity", "2", "--roots", "3",
     "--unlabeled", "--conditioned", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--unlabeled", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--leaves", "1", "--count-only"),
    ("enumerate", "--family", "leafplane", "--n", "5", "--leaves", "2", "--unlabeled",
     "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--kc", "3", "--count-only"),
    ("verify", "recurrence", "--family", "partite", "--parts", "2,3", "--n", "9"),
    ("sample", "--family", "colored", "--n", "4", "--seed", "1"),
    ("sample", "--family", "plain", "--n", "4", "--roots", "9", "--seed", "1"),
    ("sample", "--family", "plain", "--n", "0", "--seed", "1"),
    ("sample", "--family", "plain", "--n", "5", "--kc", "3", "--seed", "1"),
    ("sample", "--family", "plane", "--n", "5", "--kc", "3", "--seed", "1"),
    ("sample", "--family", "plain", "--n", "5", "--seed", "-1"),
    ("sample", "--family", "plain", "--n", "5", "--seed", str(1 << 64)),
    ("bijection", "forward", "--family", "plain", "--forest", "5 3 0 0 0 3 1"),
    ("bijection", "inverse", "--family", "plain", "--k", "3", "--choice", "6",
     "--forest", "5 3 0 0 0 3 1"),
    ("bijection", "forward", "--family", "plain", "--k", "2", "--kc", "3",
     "--forest", "3 1 0 1 1"),
    ("bijection", "forward", "--family", "partite", "--k", "2", "--parts", "2,2",
     "--kc", "3", "--forest", "4 1 0 3 1 2"),
    ("bijection", "forward", "--family", "plain", "--k", "2", "--parts", "2,2",
     "--forest", "3 1 0 1 1"),
    ("bijection", "forward", "--family", "colored", "--k", "2", "--kc", "3",
     "--parts", "2,2", "--forest", "3 1 0 1 1\n0 1 2"),
    ("encode", "--forest", "2 2 0 0"),
    ("encode", "--family", "plane", "--forest", "1(2"),
    ("decode", "plain 5 : 3 1 9"),
    ("decode", "plain 100000000000000000000 : 1"),
    ("identity", "bipartite", "--grid", "r=1"),
    ("identity", "kary", "--grid", "x=1"),
    ("verify", "all", "--max-n", "2"),
    ("verify", "all", "--max-n", "-5"),
    ("verify", "recurrence"),
    ("verify", "recurrence", "--family", "plain", "--n", "2"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--leaves", "2"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--kc", "3"),
    ("verify", "recurrence", "--family", "plane", "--n", "4", "--parts", "2,2"),
    ("verify", "recurrence", "--family", "colored", "--n", "4", "--kc", "3",
     "--leaves", "2"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "6", "--leaves", "2",
     "--kc", "3"),
    ("convert", "--kind", "plane", "--forest", "1(2"),
    ("convert", "--kind", "rooted", "--forest", "3 1 0 5 1"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "4"),
    ("verify", "recurrence", "--family", "plane", "--n", "4", "--k-range", "4"),
    ("verify", "recurrence", "--family", "colored", "--n", "4", "--kc", "3",
     "--k-range", "4"),
    ("verify", "recurrence", "--family", "partite", "--parts", "2,2", "--k-range", "3"),
    ("verify", "recurrence", "--family", "partite", "--parts", "1,3"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "6", "--leaves", "2",
     "--k-range", "4"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "6", "--leaves", "2",
     "--k-range", "9"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "1..2"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "1..x"),
    ("identity", "bipartite", "--grid", "r=1..x"),
    ("decode", "plain 0 :"),
    ("decode", " : 1"),
    ("decode", "plain : 1"),
    ("convert", "--forest", "x y"),
    ("convert", "--kind", "colored", "--forest", "3 1 0 1 1\n0 1 2"),
    ("identity", "bipartite", "--grid", "r2..3"),
    # A family parameter given as 0 or left empty is given.
    ("enumerate", "--family", "plain", "--n", "3", "--kc", "0", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--arity", "0", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--parts", ",", "--count-only"),
    ("enumerate", "--family", "plain", "--n", "3", "--parts", "", "--count-only"),
    ("enumerate", "--family", "partite", "--parts", "2,3", "--n", "0", "--count-only"),
    ("enumerate", "--family", "kary", "--n", "2", "--arity", "2", "--degrees", "",
     "--count-only"),
    # Trace integers are ASCII, with no digit separators.
    ("decode", "plain \uff15 : 3 1 1"),
    ("decode", "plain 5 : 1_0 1 1"),
    # So are the integers of list and range flags.
    ("count", "multipartite", "--parts", "2,\u0663"),
    ("count", "multipartite", "--parts", "2,1_0"),
    ("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "\u0662..3"),
    ("identity", "bipartite", "--grid", "r=2..\uff13"),
    # A grid variable given twice.
    ("identity", "bipartite", "--grid", "r=2..2,r=3..3"),
    # An arity below 1.
    ("identity", "kary", "--grid", "k=-1..-1"),
    ("identity", "kary", "--grid", "k=0..0"),
    # A flag the mode never reads.
    ("bijection", "forward", "--family", "plain", "--k", "3", "--choice", "4",
     "--forest", "5 2 0 0 5 3 1"),
    ("enumerate", "--family", "plain", "--n", "4", "--count-only", "--limit", "1"),
    ("enumerate", "--family", "plain", "--n", "3", "--count-only", "--format", "json"),
]


@pytest.mark.parametrize("argv", ERROR_PATHS, ids=" ".join)
def test_error_paths(capsys, argv):
    """Each subcommand reports a bad input on one stderr line and exits 1."""
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sample", "--family", "plane", "--n", "5", "--kc", "3", "--seed", "1"),
         "plane forests take no --kc"),
        (("bijection", "forward", "--family", "plain", "--k", "2", "--kc", "3",
          "--forest", "3 1 0 1 1"), "plain forests take no --kc"),
        (("bijection", "forward", "--family", "plain", "--k", "2", "--parts", "2,2",
          "--forest", "3 1 0 1 1"), "plain forests take no --parts"),
        (("verify", "recurrence", "--family", "plain", "--n", "4", "--leaves", "2"),
         "plain forests take no --leaves"),
        (("verify", "recurrence", "--family", "plane", "--n", "4", "--parts", "2,2"),
         "plane forests take no --parts"),
        (("encode", "--family", "plain", "--kc", "3", "--forest", "3 1 0 1 1"),
         "plain forests take no --kc"),
        # Partite parts fix n, so --n is an error, also when it is 0.
        (("verify", "recurrence", "--family", "partite", "--parts", "2,3", "--n", "5"),
         "partite forests take no --n"),
        (("verify", "recurrence", "--family", "partite", "--parts", "2,3", "--n", "0"),
         "partite forests take no --n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_unread_parameters_are_named(capsys, argv, message):
    """A parameter the family never reads fails and names itself."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "cayley", "--n", "5", "--k", "3"), "count cayley takes no --k"),
        (("count", "catalan", "--n", "5", "--parts", "2,3"),
         "count catalan takes no --parts"),
        (("count", "forests-k-trees", "--n", "5", "--k", "2", "--conditioned"),
         "count forests-k-trees takes no --conditioned"),
        (("verify", "all", "--max-n", "3", "--n", "9", "--family", "plane"),
         "verify all takes no --family"),
        (("verify", "all", "--k-range", "2..3"), "verify all takes no --k-range"),
        (("verify", "recurrence", "--family", "plain", "--n", "4", "--max-n", "4"),
         "verify recurrence takes no --max-n"),
        (("enumerate", "--family", "plain", "--n", "3", "--count-only", "--format",
          "text"), "enumerate --count-only takes no --format"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_unread_flags_are_named(capsys, argv, message):
    """A flag the formula or verify mode never reads fails and names itself."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "multipartite", "--parts", "2,x"),
         "--parts takes comma-separated integers, got '2,x'"),
        (("count", "erdelyi-etherington", "--multiplicities", "1,z"),
         "--multiplicities takes comma-separated integers, got '1,z'"),
        (("enumerate", "--family", "plane", "--n", "4", "--degrees", "1,y"),
         "--degrees takes comma-separated integers, got '1,y'"),
        (("bijection", "forward", "--family", "partite", "--k", "2", "--parts", "2;2",
          "--forest", "4 1 0 3 1 2"),
         "--parts takes comma-separated integers, got '2;2'"),
        (("verify", "recurrence", "--family", "partite", "--n", "4", "--parts", "a"),
         "--parts takes comma-separated integers, got 'a'"),
        (("verify", "all", "--max-n", "2"), "--max-n must be at least 3, got 2"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_malformed_flags_are_named(capsys, argv, message):
    """A list flag that is not integers, or a --max-n below 3, fails and
    names its flag."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("count", "cayley", "--n", "\uff15"), "--n", "\uff15"),
        (("count", "cayley", "--n", "1_0"), "--n", "1_0"),
        (("count", "cayley", "--n", "+5"), "--n", "+5"),
        (("sample", "--family", "plain", "--n", "4", "--seed", "\uff17"), "--seed",
         "\uff17"),
        (("enumerate", "--family", "plain", "--n", "4", "--budget", "\u0662\u0667"),
         "--budget", "\u0662\u0667"),
        (("verify", "all", "--max-n", "\u0664"), "--max-n", "\u0664"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_integer_flags_are_ascii(capsys, argv, flag, value):
    """A single integer flag takes ASCII digits only, like the text
    formats; argparse rejects anything else with its usage error."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n"), err


def test_integer_flags_allow_spaces(capsys):
    assert run(capsys, "count", "cayley", "--n", " 5 ") == (0, "125\n", "")
    assert run(capsys, "count", "multipartite", "--parts", "2, 3") == (0, "12\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "recurrence", "--family", "plain", "--n", "5", "--k-range", "5..3"),
        ("identity", "bipartite", "--grid", "r=5..3"),
    ],
    ids=" ".join,
)
def test_empty_ranges_fail(capsys, argv):
    """A range that checks nothing is an error, not a PASS."""
    assert run(capsys, *argv) == (1, "", "error: empty range '5..3': 5 > 3\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "4"),
         "k=4 is not a plain step: k must lie in 2..3"),
        (("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "1..2"),
         "k=1 is not a plain step: k must lie in 2..3"),
        (("verify", "recurrence", "--family", "partite", "--parts", "2,3",
          "--k-range", "3"), "k=3 is not a partite step: k must lie in 2..2"),
        (("verify", "recurrence", "--family", "leafplane", "--n", "6", "--leaves", "2",
          "--k-range", "2..9"), "k=4 is not a leafplane step: k must lie in 2..3"),
        (("verify", "recurrence", "--family", "partite", "--parts", "1,3"),
         "need at least two vertices in part 1 for a step"),
        (("verify", "recurrence", "--family", "plain", "--n", "4", "--k-range", "1..x"),
         "--k-range takes an integer or lo..hi, got '1..x'"),
        (("identity", "bipartite", "--grid", "r=1..x"),
         "--grid takes an integer or lo..hi, got '1..x'"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_bad_steps_and_ranges_are_named(capsys, argv, message):
    """A recurrence check names the steps its family has rather than report
    a mismatch at a k without one, and a malformed range names its flag."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "plain", "--n", "3", "--degrees", "1,1"),
        ("enumerate", "--family", "plain", "--n", "3", "--degrees", "10000000000,0,0"),
        ("enumerate", "--family", "partite", "--parts", "2,1", "--degrees", "0,10000000000,0"),
        ("enumerate", "--family", "leafplane", "--n", "5", "--leaves", "3", "--roots", "3"),
    ],
    ids=" ".join,
)
def test_empty_streams_print_nothing(capsys, argv):
    """A degrees filter of the wrong length or sum, or more roots than
    internal vertices, matches no forest: no output, and a count of 0. A
    huge degree costs no memory: it fails the sum test at once."""
    assert run(capsys, *argv) == (0, "", "")
    assert run(capsys, *argv, "--count-only") == (0, "0\n", "")


def test_negative_degrees_fail(capsys):
    """A negative degree matches no vertex; it is an error, not a filter."""
    argv = ("enumerate", "--family", "plain", "--n", "3", "--degrees", "2,0,-1")
    assert run(capsys, *argv, "--count-only") == (
        1, "", "error: degrees must be nonnegative\n"
    )


def test_negative_sample_count_fails(capsys):
    argv = ("sample", "--n", "5", "--seed", "1", "--count")
    assert run(capsys, *argv, "0") == (0, "", "")
    assert run(capsys, *argv, "-1") == (
        1, "", "error: --count must be nonnegative, got -1\n"
    )


def test_sample_seed_outside_64_bits_fails(capsys):
    """SplitMix64 takes its seed mod 2^64, so sample takes only 0..2^64-1
    rather than print the forest of another seed."""
    argv = ("sample", "--n", "5", "--seed")
    top = (1 << 64) - 1
    assert run(capsys, *argv, "0")[0] == 0
    assert run(capsys, *argv, str(top))[0] == 0
    for seed in (-1, top + 1, top + 6):
        assert run(capsys, *argv, str(seed)) == (
            1, "", f"error: --seed must lie in 0..{top}, got {seed}\n"
        )


def test_over_budget_enumerate_prints_what_it_found(capsys):
    for family in (
        ("--family", "plane", "--n", "9", "--roots", "1"),
        ("--family", "leafplane", "--n", "12", "--leaves", "5"),
    ):
        code, out, err = run(capsys, "enumerate", *family, "--budget", "100")
        assert (code, err) == (1, "error: candidate budget exceeded: 101 > 100\n")
        keys = [canonical_key(parse_plane(line)) for line in out.splitlines()]
        assert len(keys) == 100
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
def test_reader_closing_the_pipe_exits_one_quietly(unbuffered):
    """``forestcodec enumerate ... | head -1``: the command stops with exit 1
    and writes nothing to stderr when its reader goes away."""
    src = str(Path(forestcodec.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from forestcodec.cli import main; sys.exit(main())",
            "enumerate", "--family", "plane", "--n", "7",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
    )
    # 1.6 MB of output: far more than the pipe holds.
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (1, b"1(2,3,4,5,6,7)\n", b"")
