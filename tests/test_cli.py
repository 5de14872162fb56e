import io
import json
import os

import pytest

from indicial import Session, render_json, render_latex, render_plain
from indicial.cli import Evaluator, evaluate_expression, main, run_script
from indicial.errors import HistoryError
from indicial.exprs import ZERO
from indicial.parse import parse_program

from conftest import ev

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "maxwell.ind")


def run_text(text, session=None, fmt="plain"):
    out = io.StringIO()
    evaluator = Evaluator(session or Session(), fmt=fmt, out=out)
    evaluator.execute(parse_program(text))
    return evaluator, out.getvalue()


# -- rendering ----------------------------------------------------------------


def test_ishow_full_factor(session):
    e = ev("T([a,b],[c,i],i2,i1)", session)
    assert render_plain(e) == "T_{a b,i2 i1}^{c i}"


def test_ishow_field_equation(session):
    e = ev("j([],[m]) + 'covdiff(F([],[m,n]),n)", session)
    assert render_plain(e) == "j^{m} + F^{m n}_{;n}"


def test_ishow_zero():
    assert render_plain(ZERO) == "0"


def test_latex_rendering(session):
    e = ev("-1/4*F([k,l],[])*F([],[k,l])", session)
    text = render_latex(e)
    assert "\\frac{1}{4}" in text
    assert "F_{k\\,l}" in text


def test_json_rendering_structure(session):
    e = ev("'covdiff(j([],[m]),m)", session)
    data = json.loads(render_json(e))
    assert data["terms"][0]["factors"][0]["covdiff"]["index"] == "m"


# -- evaluator semantics --------------------------------------------------------


def test_echo_and_silence():
    _, transcript = run_text("x([a],[]);\ny([b],[])$\n")
    assert "(%o1) x_{a}" in transcript
    assert "y" not in transcript


def test_ishow_prints_t_label():
    _, transcript = run_text("ishow(x([a],[]))$")
    assert transcript.strip() == "(%t1) x_{a}"


def test_assignment_binds_and_records():
    evaluator, _ = run_text("L: x([a],[])*y([],[a])$ ishow(L)$")
    assert "L" in evaluator.session.bindings
    assert evaluator.session.history[0] == evaluator.session.bindings["L"]


def test_history_references_resolve():
    evaluator, transcript = run_text("x([a],[]);\n%;\n%th(2);\n")
    lines = transcript.strip().splitlines()
    assert lines[0].endswith("x_{a}")
    assert lines[1].endswith("x_{a}")
    assert lines[2].endswith("x_{a}")


def test_history_out_of_range():
    with pytest.raises(HistoryError):
        run_text("x([a],[])$ %th(5);")


def test_no_simplification_on_echo(session):
    evaluator, transcript = run_text(
        "imetric(g)$ ishow(g([],[a,b])*x([b],[]));", session=Session()
    )
    assert "g^{a b}*x_{b}" in transcript
    _, transcript = run_text(
        "imetric(g)$ ishow(contract(g([],[a,b])*x([b],[])));", session=Session()
    )
    assert "(%t2) x^{a}" in transcript


def test_flag_assignment():
    evaluator, _ = run_text("igeowedge_flag:false$")
    assert evaluator.session.geowedge is False


@pytest.mark.parametrize("text, line", [
    # integer block positions
    ("decsym(R,4,0,[anti(1,2),anti(3,4)],[])$ "
     "canform(R([a,b,c,d],[]) - R([b,a,d,c],[]));", "(%o2) 0"),
    # a rule list applied to the gradient derivative
    ("imetric(g)$ matchdeclare(a,atom,b,atom)$ "
     "defrule(Z,A([],[a],b),B([],[a],b))$ "
     "euler_lagrange(A([k],[],l)*A([],[k],p)*g([],[l,p]), A([m],[]), n, [Z]);",
     "(%o4) - (B^{m}_{,%1}*g^{%1 %2})_{;%2}"),
    ("diff(x*y, x);", "(%o1) y"),  # by a scalar symbol
    ("igeowedge_flag:true;", "(%o1) true"),
    ("diff(A([],[a])*B([a],[]), A([],[m]));",  # a contravariant target
     "(%o1) B_{a}*kdelta_{m}^{a}"),
])
def test_transcript_line(text, line):
    assert run_text(text)[1].splitlines()[-1] == line


def test_idim_command():
    evaluator, transcript = run_text(
        "imetric(g)$ idim(3)$ contract(kdelta([a],[a]));"
    )
    assert "(%o3) 3" in transcript
    evaluator, transcript = run_text(
        "imetric(g)$ contract(kdelta([a],[a]));"
    )
    assert "(%o2) dim" in transcript


def test_unknown_binding_is_scalar_symbol():
    evaluator, transcript = run_text("ishow(phi)$")
    assert "(%t1) phi" in transcript


# -- script runner ---------------------------------------------------------------


def test_reference_script_succeeds(tmp_path):
    out = io.StringIO()
    session = Session()
    status = run_script(SCRIPT, session, out=out)
    assert status == 0
    transcript = out.getvalue()
    assert "(%o5) 0" in transcript
    assert "(%t13) F^{m n}" in transcript
    assert "(%t14) j^{m} + F^{m n}_{;n}" in transcript


def test_reference_script_transcript_deterministic():
    out1, out2 = io.StringIO(), io.StringIO()
    assert run_script(SCRIPT, Session(), out=out1) == 0
    assert run_script(SCRIPT, Session(), out=out2) == 0
    assert out1.getvalue() == out2.getvalue()


def test_transcript_expressions_round_trip():
    out = io.StringIO()
    assert run_script(SCRIPT, Session(), out=out) == 0
    for line in out.getvalue().splitlines():
        _, _, text = line.partition(") ")
        reparsed = evaluate_expression(text, Session())
        assert render_plain(reparsed) == text


def test_empty_script(tmp_path):
    path = tmp_path / "empty.ind"
    path.write_text("")
    out = io.StringIO()
    assert run_script(str(path), out=out) == 0
    assert out.getvalue() == ""


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.ind"
    path.write_text("x([a],[)\n;")
    err = io.StringIO()
    assert run_script(str(path), out=io.StringIO(), err=err) == 1
    assert "parse error" in err.getvalue()


def test_validation_error_exit_code(tmp_path):
    path = tmp_path / "triple.ind"
    path.write_text("T([a,a],[],a);")
    err = io.StringIO()
    assert run_script(str(path), out=io.StringIO(), err=err) == 2
    assert "TripleIndex" in err.getvalue()


def test_missing_file_reported():
    err = io.StringIO()
    assert run_script("no/such/file.ind", out=io.StringIO(), err=err) == 1


def test_main_runs_script(capsys):
    status = main(["--script", SCRIPT])
    captured = capsys.readouterr()
    assert status == 0
    assert "(%t14) j^{m} + F^{m n}_{;n}" in captured.out


def test_main_dim_flag(tmp_path, capsys):
    path = tmp_path / "dim.ind"
    path.write_text("imetric(g)$ contract(kdelta([a],[a]));")
    status = main(["--script", str(path), "--dim", "4"])
    captured = capsys.readouterr()
    assert status == 0
    assert "(%o2) 4" in captured.out


def test_main_latex_format(tmp_path, capsys):
    path = tmp_path / "fmt.ind"
    path.write_text("x([a,b],[]);")
    status = main(["--script", str(path), "--format", "latex"])
    captured = capsys.readouterr()
    assert status == 0
    assert "x_{a\\,b}" in captured.out


def test_euler_lagrange_builtin_with_trace(tmp_path, capsys):
    path = tmp_path / "el.ind"
    path.write_text(
        "imetric(g)$"
        "ishow(euler_lagrange(1/2*g([],[a,b])*phi([],[],a)*phi([],[],b),"
        "phi([],[]),n))$"
    )
    status = main(["--script", str(path), "--trace"])
    captured = capsys.readouterr()
    assert status == 0
    assert "(trace) equation:" in captured.out
    assert "(%t2)" in captured.out


def test_statement_number_in_diagnostics(tmp_path):
    path = tmp_path / "later.ind"
    path.write_text("imetric(g)$ x([a],[])$ %th(9);")
    err = io.StringIO()
    assert run_script(str(path), out=io.StringIO(), err=err) == 2
    assert "statement 3" in err.getvalue()
