"""Diagnostics of the script runner and the interactive loop: where a
statement starts, exit statuses, and no raw tracebacks."""

import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from indicial.cli import Evaluator, main, repl, run_script
from indicial.parse import MAX_DEPTH


def run(tmp_path, text):
    path = tmp_path / "s.ind"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    status = run_script(str(path), out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def boom(self, expr):
    raise RuntimeError("boom")


def test_evaluation_error_names_line_column_and_statement(tmp_path):
    status, _, err = run(tmp_path, "imetric(g)$\n  ishow(x([a],[])*y([a],[]))$")
    assert status == 2
    assert err == ("line 2, column 3: statement 2: VarianceClashError: "
                   "index 'a' repeated in covariant position\n")


def test_assignment_error_points_at_the_assigned_name(tmp_path):
    status, _, err = run(tmp_path, "w; w;\n\n   L: %th(9);")
    assert status == 2
    assert err.startswith("line 3, column 4: statement 3: HistoryError: ")


def test_internal_error_in_run_script(tmp_path, monkeypatch):
    monkeypatch.setattr(Evaluator, "_builtin_canform", boom)
    status, out, err = run(tmp_path, "w;\n canform(w);\nv;")
    assert status == 3
    assert out == "(%o1) w\n"
    assert err == "line 2, column 2: statement 2: internal error: RuntimeError: boom\n"


def test_internal_error_through_main(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(Evaluator, "_builtin_canform", boom)
    path = tmp_path / "s.ind"
    path.write_text("imetric(g)$ ishow(canform(x([a],[])))$")
    assert main(["--script", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "line 1, column 13: statement 2: internal error: RuntimeError: boom\n"
    )
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_the_run_quietly(tmp_path):
    """A reader that stops early, as ``head`` does, closes the pipe while the
    program still writes: it ends as ``cat`` would, with no diagnostic.  Its
    output, about 1.2 MB, cannot fit in the pipe before the reader closes."""
    path = tmp_path / "s.ind"
    path.write_text("a: x^2000$\n" + "a;\n" * 300)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "indicial", "--script", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.readline().startswith("(%o2) x*x*")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "internal error" not in err
    assert (proc.returncode, err) == (-signal.SIGPIPE, "")


def test_too_deep_nesting_is_a_parse_error(tmp_path):
    status, out, err = run(tmp_path, "(" * 400 + "w" + ")" * 400 + ";")
    assert (status, out) == (1, "")
    assert err == ("parse error: expression nested too deeply "
                   f"(line 1, column {MAX_DEPTH + 1})\n")


@pytest.mark.parametrize("text, column", [
    ("x:\u00b2;", 3), ("%th(\u00b2);", 5), ("T([%\u00b2],[]);", 5),
], ids=["number", "history", "generated-label"])
def test_non_ascii_digits_are_a_parse_error(tmp_path, capsys, text, column):
    """str.isdigit() accepts '\u00b2', which used to reach int() and end in a
    ValueError traceback, or in an internal error (exit 3)."""
    path = tmp_path / "s.ind"
    path.write_text(text, encoding="utf-8")
    assert main(["--script", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("parse error: unexpected character '\u00b2' "
                            f"(line 1, column {column})\n")
    assert captured.out == ""


def run_main(tmp_path, capsys, text):
    """Exit status, stdout and stderr of ``main`` on a script file."""
    path = tmp_path / "s.ind"
    path.write_text(text, encoding="utf-8")
    status = main(["--script", str(path)])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_column_after_a_comment_that_spans_lines(tmp_path, capsys):
    """The column after a multi-line comment used to be one too far."""
    assert run_main(tmp_path, capsys, "/* a\ncomment */ x:@;") == (
        1, "", "parse error: unexpected character '@' (line 2, column 14)\n")


@pytest.fixture
def digit_limit():
    """int() refuses strings of more than this many digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("before, after, column", [
    ("x: ", ";", 4), ("%th(", ");", 5), ("T([%", "],[]);", 4),
], ids=["number", "history", "generated-label"])
def test_over_long_digit_run_is_a_parse_error(tmp_path, capsys, digit_limit,
                                              before, after, column):
    """5,000 digits used to end in a ValueError traceback from int(), or in
    an internal error (exit 3) for a generated label."""
    text = before + "1" * 5000 + after
    assert run_main(tmp_path, capsys, text) == (
        1, "", f"parse error: digit run longer than {digit_limit} digits "
        f"(line 1, column {column})\n")


def test_generated_label_with_a_leading_zero_is_a_parse_error(tmp_path, capsys):
    """%01 and %1 used to share a sort key, so canform merged these two
    different terms and printed 0."""
    text = ("imetric(g)$ canform(T([%01,%1],[])*U([],[%1]) "
            "- T([%1,%01],[])*U([],[%1]));")
    assert run_main(tmp_path, capsys, text) == (
        1, "", "parse error: invalid generated label '%01' (line 1, column 24)\n")


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_non_positive_dim_flag_is_a_usage_error(tmp_path, capsys, dim):
    path = tmp_path / "s.ind"
    path.write_text("w;")
    with pytest.raises(SystemExit) as exit_info:
        main(["--script", str(path), "--dim", dim])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: indicial")
    assert captured.err.endswith(
        "error: argument --dim: the dimension must be a positive integer\n")


def labels(prefix, n):
    return " ".join(f"{prefix}{k}" for k in range(n))


# the first index past MAX_DEPTH: a parenthesized body's inert derivatives
# are one level deeper than the parentheses, and the block after it deeper still
@pytest.mark.parametrize("block, rejected", [
    ("x_{;" + labels("i", 1200) + "}", f"i{MAX_DEPTH}"),
    ("(x([a],[]))_{;" + labels("i", 1200) + "}", f"i{MAX_DEPTH - 1}"),
    ("((x_{;" + labels("i", 60) + "}))_{;" + labels("j", 60) + "}",
     f"j{MAX_DEPTH - 62}"),
], ids=["printed", "parenthesized", "stacked"])
def test_deep_inert_block_is_a_parse_error(tmp_path, capsys, block, rejected):
    """Each index of an inert block nests one more derivative, which used to
    end in an internal RecursionError (exit 3)."""
    path = tmp_path / "s.ind"
    path.write_text("w$\n" + block + ";")
    assert main(["--script", str(path)]) == 1
    captured = capsys.readouterr()
    column = block.index(f" {rejected} ") + 2
    assert captured.err == ("parse error: expression nested too deeply "
                            f"(line 2, column {column})\n")
    assert captured.out == ""



@pytest.mark.parametrize("third", [
    "(a1)_{;k}", "'covdiff(a1, k)", "map(lambda([v], 'covdiff(v, k)), a1)",
], ids=["block", "quoted", "map"])
def test_inert_nesting_across_statements_is_refused(tmp_path, capsys, third):
    """Each statement stays within the parser's limit, but the nesting they
    build together used to end in an internal RecursionError (exit 3) past
    about 300 levels."""
    path = tmp_path / "s.ind"
    path.write_text("a0: x_{;" + labels("i", MAX_DEPTH - 10) + "}$\n"
                    "a1: (a0)_{;" + labels("j", 10) + "}$\n"
                    f"  a2: {third}$\n")
    assert main(["--script", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "line 3, column 3: statement 3: SemanticError: inert derivatives "
        f"nested too deeply (over {MAX_DEPTH} levels)\n")
    assert captured.out == ""

def test_repl_reports_every_error_and_keeps_going(monkeypatch, capsys):
    monkeypatch.setattr(Evaluator, "_builtin_canform", boom)
    lines = iter(["canform(w);", "x([a],[])*y([a],[]);", "w;", "quit;"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
    assert repl() == 0
    assert capsys.readouterr().out.splitlines() == [
        "error: line 1, column 1: statement 1: internal error: RuntimeError: boom",
        "error: line 1, column 1: statement 2: VarianceClashError: "
        "index 'a' repeated in covariant position",
        "(%o3) w",
    ]


def test_repl_tokenizes_each_line_once(monkeypatch, capsys):
    """A four-line entry, with a comment over two lines that holds a ';':
    one tokenize call per line and one for the finished entry, and no text
    tokenized more than twice (once in its line, once in the entry)."""
    from indicial import cli, parse

    entry = ["y: x([a],[]) /* a comment;", "   that ends here */ *",
             "  w", "  ;"]
    lines = iter(entry + ["y;", "quit;"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
    texts = []
    original = parse.tokenize

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(parse, "tokenize", counting)
    monkeypatch.setattr(cli, "tokenize", counting)
    assert repl() == 0
    assert capsys.readouterr().out.splitlines() == ["(%o1) x_{a}*w",
                                                    "(%o2) x_{a}*w"]
    entry_text = "".join(line + "\n" for line in entry)
    assert len(texts) == 4 + 1 + 2 * 2  # the entry, then "y;" and "quit;"
    assert sum(map(len, texts[:5])) <= 2 * len(entry_text)
    assert texts[4] == entry_text


@pytest.mark.parametrize("text, column", [
    ("w: 2$\nw*x^100000000;", 1),      # one factor, 10^8 times
    ("w: 2$\n  (x+y)^24;", 3),         # 2^24 terms of 24 factors
    ("w: 2$\n" + "*".join(["(x+y)"] * 24) + ";", 1),  # the same, operand by operand
])
def test_oversized_product_is_refused_before_it_is_built(tmp_path, capsys, text, column):
    """A product over ``PRODUCT_CAP`` exits 2 at its statement, in well under
    the time it would take to build, instead of exhausting memory."""
    start = time.perf_counter()
    status, out, err = run_main(tmp_path, capsys, text)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err.startswith(f"line 2, column {column}: statement 2: ProductSizeError: ")


FIRST = "line 1, column 1: statement 1: SemanticError: "


@pytest.mark.parametrize("text, err", [
    ("map(y,x);",
     FIRST + "map only supports lambda([x], 'covdiff(x, index))"),
    ("idim(x);", FIRST + "idim takes a positive integer or dim"),
    ("decsym(T,a,0,[],[]);", FIRST + "decsym arities must be integers"),
    ("decsym(T,1,0,x,[]);", FIRST + "decsym blocks must be lists"),
    ("decsym(T,2,0,[x],[]);", FIRST + "blocks are sym(...) or anti(...)"),
    ("decsym(T,2,0,[sym(a,b)],[]);", FIRST + "block positions must be integers"),
    ("components(x,y);",
     FIRST + "components takes a tensor signature and a definition"),
    ("apply(f,[a]);", FIRST + "apply only wraps defrule"),
    ("diff(x,1);", FIRST + "diff differentiates by an indexed object"),
    ("apply1(x,1);", FIRST + "apply1 takes an expression and a rule name"),
    ("euler_lagrange(x,y,a);",
     FIRST + "euler_lagrange takes a Lagrangian, a field pattern, a derivative"
     " index, and optionally a rule list"),
    ("euler_lagrange(x,phi([],[]),a,r);",
     FIRST + "the rule list must be a list of rule names"),
    ("imetric(1);", FIRST + "expected a metric name"),
    ("idiff(x,1);", FIRST + "expected an index label"),
    ("[a];", FIRST + "a list is not an expression"),
    ("x^y;", FIRST + "exponents must be nonnegative integers"),
    ("igeowedge_flag: 1;", FIRST + "flags take the values true or false"),
    ("load(itensor)$ %th(1);", "line 1, column 16: statement 2: HistoryError:"
     " history entry %th(1) is not an expression"),
])
def test_argument_errors_name_the_statement(tmp_path, capsys, text, err):
    assert run_main(tmp_path, capsys, text) == (2, "", err + "\n")
