import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from x3hd.cli import main
from x3hd.errors import ParseError
from x3hd.instances import default_clause_count, generate, parse, render
from x3hd.model import Formula
from x3hd.oracle import hd_oracle
from x3hd.poly import HDPoly

EXAMPLE_TEXT = """c worked example
p x3sat 7 4
1 2 3 0
1 4 5 0
1 6 7 0
2 4 -6 0
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_worked_example():
    f = parse(EXAMPLE_TEXT)
    assert f == Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7)


def test_parse_accepts_tautological_pair():
    f = parse("p x3sat 1 1\n-1 1 0\n")
    assert f.clauses[0] == (3, 2)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("p x3sat 4 1\n1 2 3 4 0\n", "arity", 2),
        ("p x3sat 2 1\n1 3 0\n", "out of range", 2),
        ("p x3sat 2 1\n1 2\n", "end with 0", 2),
        ("p x3sat 2 1\nc fine\n", "announced 1", 2),
        ("1 2 3 0\n", "header", 1),
        ("p x3sat 2 1\np x3sat 2 1\n1 2 0\n", "duplicate", 2),
        ("p xsat 2 1\n1 2 0\n", "x3sat", 1),
        ("p x3sat 2 1\n1 x 0\n", "integers", 2),
        ("p x3sat 2 1\n1 0 2 0\n", "literal 0", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert fragment in str(info.value)
    assert info.value.line == line


def test_render_round_trip_includes_comments():
    inst = generate(6, 4, seed=9, planted=True)
    text = render(inst)
    assert text.startswith("c ")
    assert parse(text) == inst.formula


@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_generator_round_trip_property(n, m, seed, planted):
    inst = generate(n, m, seed=seed, planted=planted)
    assert parse(render(inst)) == inst.formula
    again = generate(n, m, seed=seed, planted=planted)
    assert again.formula == inst.formula


def test_planted_instances_are_satisfiable():
    for seed in range(40):
        inst = generate(8, 6, seed=seed, planted=True)
        assert hd_oracle(inst.formula).coeff(0) >= 1


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate(2, 1)
    with pytest.raises(ValueError):
        generate(5, 0)


def test_default_clause_count_tracks_density_bound():
    assert default_clause_count(9) == 6
    assert default_clause_count(3) == 2
    assert default_clause_count(4) == 2


def test_cli_solve_worked_example(tmp_path):
    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    code, out, _ = run_cli(["solve", str(path)])
    assert code == 0
    assert "12*u^4 + 4" in out
    assert "max_hd = 4" in out
    assert "solutions = 4" in out


def test_cli_solve_json_schema(tmp_path):
    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    code, out, _ = run_cli(["solve", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and payload["m"] == 4
    assert payload["poly"] == [[0, "4"], [4, "12"]]
    assert payload["max_hd"] == 4
    assert payload["solutions"] == "4"
    assert set(payload["stats"]) == {
        "nodes", "leaves", "max_depth", "branched_vars", "mirrored", "rules",
    }


def test_cli_solve_prints_coefficients_past_the_int_str_limit(tmp_path):
    # (2 + 2u)^7997 (3 + 6u^2): the middle coefficients have about 4800
    # digits, past the 4300 Python 3.11 converts by default
    path = tmp_path / "wide.x3s"
    path.write_text("p x3sat 8000 1\n1 2 3 0\n")
    code, out, _ = run_cli(["solve", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == f"solutions = {3 * 2**7997}"


def test_cli_solve_stats_flag(tmp_path):
    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    code, out, _ = run_cli(["solve", str(path), "--stats", "--base-threshold", "3"])
    assert code == 0
    assert "nodes =" in out and "mirrored =" in out and "rules:" in out


def test_cli_oracle_and_refusal(tmp_path):
    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    code, out, _ = run_cli(["oracle", str(path)])
    assert code == 0 and "12*u^4 + 4" in out

    # the oracle's limit bounds its largest variable-disjoint part: 28 here
    big = tmp_path / "big.x3s"
    big.write_text(render(generate(30, 30, seed=1)))
    code, out, err = run_cli(["oracle", str(big)])
    assert code == 1
    assert "--force" in err


def test_cli_diff_matches(tmp_path):
    path = tmp_path / "inst.x3s"
    path.write_text(render(generate(10, 6, seed=42)))
    code, out, _ = run_cli(["diff", str(path), "--base-threshold", "4"])
    assert code == 0
    assert out.startswith("match:")


def test_cli_diff_mismatch_exit_code(tmp_path, monkeypatch):
    import x3hd.cli as cli
    from x3hd.poly import HDPoly
    from x3hd.solver import SolveReport, SolveStats

    path = tmp_path / "inst.x3s"
    path.write_text(render(generate(6, 4, seed=3)))

    def fake_solve(f, opts=None):
        return SolveReport(HDPoly({9: 1}), 9, 0, SolveStats())

    monkeypatch.setattr(cli, "solve", fake_solve)
    code, out, _ = run_cli(["diff", str(path)])
    assert code == 3
    assert "MISMATCH" in out


def test_cli_gen_writes_parseable_file(tmp_path):
    target = tmp_path / "gen.x3s"
    code, _, _ = run_cli(["gen", "--n", "9", "--seed", "4", "--planted", "-o", str(target)])
    assert code == 0
    f = parse(target.read_text())
    assert f.n_vars == 9
    assert len(f.clauses) == default_clause_count(9)


def test_cli_gen_unwritable_output_is_an_error_line(tmp_path):
    target = tmp_path / "missing" / "gen.x3s"
    code, out, err = run_cli(["gen", "--n", "9", "-o", str(target)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_gen_stdout_deterministic():
    code1, out1, _ = run_cli(["gen", "--n", "7", "--m", "4", "--seed", "11"])
    code2, out2, _ = run_cli(["gen", "--n", "7", "--m", "4", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_usage_errors_exit_one():
    code, _, _ = run_cli(["solve"])
    assert code == 1
    code, _, _ = run_cli(["nonsense"])
    assert code == 1
    code, _, err = run_cli(["solve", "/nonexistent/file.x3s"])
    assert code == 1 and "cannot read" in err


def test_cli_base_threshold_defaults_to_the_library_and_is_not_negative(tmp_path, monkeypatch):
    import x3hd.cli as cli
    from x3hd.solver import SolveOptions

    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    seen = []

    def recording_solve(f, opts=None):
        seen.append(opts)
        return solve(f, opts)

    solve = cli.solve
    monkeypatch.setattr(cli, "solve", recording_solve)
    for command in ("solve", "diff"):
        seen.clear()
        assert run_cli([command, str(path)])[0] == 0
        assert seen == [SolveOptions()]
        seen.clear()
        assert run_cli([command, str(path), "--base-threshold", "0"])[0] == 0
        assert seen == [SolveOptions(base_threshold=0)]
        code, out, err = run_cli([command, str(path), "--base-threshold", "-1"])
        assert code == 1 and not out and "--base-threshold: -1 is negative" in err
        code, _, err = run_cli([command, str(path), "--base-threshold", "x"])
        assert code == 1 and "--base-threshold" in err


def test_cli_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.x3s"
    path.write_text("p x3sat 2 1\n1 2 3 4 0\n")
    code, _, err = run_cli(["solve", str(path)])
    assert code == 1
    assert "line 2" in err


def test_cli_non_utf8_file_is_an_input_error(tmp_path):
    path = tmp_path / "utf16.x3s"
    path.write_bytes(b"\xff\xfe" + "p x3sat 1 1\n1 0\n".encode("utf-16-le"))
    code, out, err = run_cli(["solve", str(path)])
    assert code == 1 and not out
    assert err.startswith(f"error: {path}: not UTF-8 text")


def test_cli_reads_a_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.x3s"
    path.write_bytes(b"\xef\xbb\xbfp x3sat 3 1\n1 2 3 0\n")
    for argv in (["solve", "--json"], ["oracle"], ["diff"]):
        code, out, err = run_cli([argv[0], str(path), *argv[1:]])
        assert code == 0 and not err, (argv, err)
    code, out, _ = run_cli(["solve", str(path), "--json"])
    assert json.loads(out)["poly"] == HDPoly({0: 3, 2: 6}).to_pairs()


def test_cli_internal_error_exit_code(tmp_path, monkeypatch):
    import x3hd.cli as cli
    from x3hd.errors import InternalError

    path = tmp_path / "inst.x3s"
    path.write_text(EXAMPLE_TEXT)

    def broken_solve(f, opts=None):
        raise InternalError("synthetic invariant break")

    monkeypatch.setattr(cli, "solve", broken_solve)
    code, _, err = run_cli(["solve", str(path)])
    assert code == 2
    assert "internal error" in err
