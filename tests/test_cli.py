"""Command line surface: outputs, formats, and the exit-code contract."""

import io
import json
import sys

from forestcodec import cli, parse_colored, parse_forest, parse_plane

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
            cli.counting, "bipartite_identity", lambda r, s: (1, 2)
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

    def test_deep_plane_json_document(self):
        node = cli._to_json(parse_plane(DEEP_CHAIN))["trees"][0]
        labels = []
        while node["children"]:
            labels.append(node["label"])
            (node,) = node["children"]
        assert labels + [node["label"]] == list(range(1, 1201))

    def test_deep_plane_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_CHAIN))
        code, out, _ = run(capsys, "convert", "--kind", "plane", "--format", "json")
        # json.loads recurses too, so the expected text is built here.
        tree = '{"children": [], "label": 1200}'
        for label in range(1199, 0, -1):
            tree = f'{{"children": [{tree}], "label": {label}}}'
        want = f'{{"kind": "plane", "trees": [{tree}], "vertices": 1200}}\n'
        assert (code, out) == (0, want)

    def test_json_text_matches_json_dumps(self):
        forests = [
            parse_plane("1(5,3(4));2"),
            parse_plane("1(*,2(*,*));3(*)"),
            parse_forest("5 3 0 0 0 3 1"),
            parse_colored("3 1 0 1 2\n0 1 2", 2),
        ]
        for forest in forests:
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
