from fractions import Fraction

import pytest

from indicial import Session, render_plain
from indicial.errors import ParseError, UnknownCommandError
from indicial.exprs import Factor
from indicial.numeval import random_expression
from indicial.parse import (
    MAX_DEPTH,
    Call,
    HistRef,
    Wrap,
    parse_expression,
    parse_program,
    tokenize,
)

from conftest import ev, make_rng


def test_factor_literal_full_shape():
    node = parse_expression("T([a,b],[c,i],i2,i1)")
    assert node == Factor(
        "T",
        (("a", False), ("b", False), ("c", True), ("i", True)),
        ("i2", "i1"),
    )


def test_factor_literal_single_list():
    node = parse_expression("F([k,l])")
    assert node == Factor("F", (("k", False), ("l", False)), ())


def test_factor_literal_empty_lists():
    node = parse_expression("g([],[k,a])")
    assert node == Factor("g", (("k", True), ("a", True)), ())


def test_lagrangian_line_parses_and_evaluates():
    session = Session()
    session.set_metric("g")
    e = ev(
        "-1/4*F([k,l],[])*F([a,b],[])*g([],[k,a])*g([],[l,b])"
        "+j([k],[])*A([l],[])*g([],[k,l])",
        session,
    )
    assert len(e.terms) == 2
    assert e.terms[0].coeff == Fraction(-1, 4)
    assert e.terms[1].coeff == 1


def test_inert_covdiff_parse():
    node = parse_expression("'covdiff(F([],[m,n]),n)")
    assert isinstance(node, Wrap)
    assert node.indices == ("n",)


def test_quote_rejected_elsewhere():
    with pytest.raises(ParseError):
        parse_expression("'contract(x([a],[]))")


def test_statement_terminators():
    statements = parse_program("imetric(g)$ x([a],[]);")
    assert [s.echo for s in statements] == [False, True]


def test_assignment_statement():
    (stmt,) = parse_program("L: x([a],[]) * y([],[a]) $")
    assert stmt.assign_name == "L"
    assert not stmt.echo


def test_missing_terminator():
    with pytest.raises(ParseError):
        parse_program("imetric(g)")


def test_comments_ignored():
    statements = parse_program("/* set up\n metric */ imetric(g)$")
    assert len(statements) == 1


def test_column_after_a_comment_that_spans_lines():
    assert tuple(tokenize("/*a\nbc*/x")[0]) == ("NAME", "x", 2, 5)
    with pytest.raises(ParseError) as err:
        parse_program("/* a\ncomment */ x:@;")
    assert (err.value.line, err.value.column) == (2, 14)


@pytest.mark.parametrize("label", ["%0", "%01", "%007"])
def test_generated_label_has_no_leading_zero(label):
    with pytest.raises(ParseError) as err:
        parse_expression(f"T([a,{label}],[])")
    assert str(err.value) == (f"invalid generated label {label!r} "
                              "(line 1, column 6)")


def test_unknown_command_rejected():
    with pytest.raises(UnknownCommandError):
        parse_program("frobnicate(x)$")


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("x([a],[]) ) ;")
    assert err.value.line == 1


@pytest.mark.parametrize("text, message", [
    ("w;\nT_{;i}_{a};", "index blocks cannot follow an inert block (line 2, column 7)"),
    ("w;\nT_{a,b}_{c,d};", "derivative indices appear twice (line 2, column 11)"),
])
def test_printed_factor_errors_point_at_the_offending_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


def test_statements_record_where_they_start():
    statements = parse_program("imetric(g)$\n  L: x([a],[]);\n/* c */ w;")
    assert [(s.line, s.col) for s in statements] == [(1, 1), (2, 3), (3, 9)]


NESTINGS = {
    "parentheses": lambda n: "(" * n + "x([a],[])" + ")" * n,
    "unary minus": lambda n: "-" * n + "x([a],[])",
    "unary plus": lambda n: "+" * n + "x([a],[])",
    "exponents": lambda n: "w" + "^1" * n,
    "call arguments": lambda n: "canform(" * n + "x([a],[])" + ")" * n,
    "quoted covdiff": lambda n: (
        "'covdiff(" * n + "x([a],[])" + "".join(f",i{k})" for k in range(n))
    ),
    "parenthesized negations": lambda n: "(-" * (n // 2) + "w" + ")" * (n // 2),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_up_to_the_limit_evaluates(session, shape):
    value = ev(NESTINGS[shape](MAX_DEPTH), session)
    assert len(value.terms) == 1


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_sibling_nestings_do_not_add_up(session, shape):
    text = " + ".join(NESTINGS[shape](MAX_DEPTH - 2) for _ in range(3))
    assert len(ev(f"canform({text})", session).terms) == 1


@pytest.mark.parametrize("shape", sorted(NESTINGS))
@pytest.mark.parametrize("depth", [MAX_DEPTH + 2, 400])
def test_nesting_past_the_limit_is_a_parse_error(session, shape, depth):
    text = NESTINGS[shape](depth)
    for run in (parse_expression, lambda t: ev(t, session)):
        with pytest.raises(ParseError, match="nested too deeply") as err:
            run(text)
        assert err.value.line == 1
        assert 1 <= err.value.column <= len(text)


def test_nesting_error_points_at_the_token_that_went_too_deep():
    with pytest.raises(ParseError) as err:
        parse_program("w;\n" + "(" * 400 + "w" + ")" * 400 + ";")
    assert (err.value.line, err.value.column) == (2, MAX_DEPTH + 1)
    with pytest.raises(ParseError) as err:
        parse_expression("[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1))
    assert (err.value.line, err.value.column) == (1, MAX_DEPTH + 1)
    parse_expression("[" * MAX_DEPTH + "]" * MAX_DEPTH)


def test_history_references():
    assert parse_expression("%") == HistRef(1)
    assert parse_expression("%th(2)") == HistRef(2)
    # equal fields of another kind of node are not equal
    assert parse_expression("%th(1)") != parse_expression("1")


def test_equation_parses_to_difference(session):
    e = ev("x([a],[]) = y([a],[])", session)
    assert len(e.terms) == 2
    assert e.terms[1].coeff == -1


def test_lhs_returns_expression_unchanged(session):
    assert ev("lhs(x([a],[]) = y([a],[]))", session) == ev(
        "x([a],[]) = y([a],[])", session
    )


def test_map_lambda_idiom(session):
    e = ev("map(lambda([x],'covdiff(x,m)),j([],[m]))", session)
    assert e == ev("mapcovdiff(j([],[m]),m)", session)


def test_apply_defrule_spelling():
    program = "matchdeclare(a,b)$ apply(defrule,[R,x([a],[]),y([a],[])])$"
    statements = parse_program(program)
    assert isinstance(statements[1].node, Call)
    assert statements[1].node.fn == "apply"


def test_session_dialect_program_parses():
    # dialect variations the grammar must accept: load, single-list factors,
    # predicate-style matchdeclare, apply-wrapped defrule, quoted covariant
    # derivatives, negated history references, and the map/lambda idiom
    program = """
load(indicial)$
imetric(g)$
igeowedge_flag:true$
components(F([m,n],[]),extdiff(A([m],[]),n))$
extdiff(F([m,n],[]),k);
L:ishow(-1/4*F([k,l])*F([a,b],[])*g([],[k,a])*g([],[l,b])
        +j([k],[])*A([l],[])*g([],[k,l]))$
remcomps(F)$
decsym(F,0,2,[],[anti(all)])$
matchdeclare(a,atom,b,atom)$
apply(defrule,[Maxwell,extdiff(A([a],[]),b),F([a,b],[])])$
defrule(CC,'covdiff('covdiff(F([],[a,b]),b),a),0)$
ishow(diff(L,A([m],[],n)))$
ishow(canform(contract(expand(apply1(%th(1),Maxwell)))))$
ishow(contract(diff(L,A([m],[])))+'covdiff(-%th(2),n))$
ishow(apply1(map(lambda([x],'covdiff(x,m)),lhs(%th(1))),CC))$
"""
    statements = parse_program(program)
    assert len(statements) == 15


def test_printed_factor_round_trip(session):
    e = ev("T([a,b],[c,i],i2,i1)", session)
    assert render_plain(e) == "T_{a b,i2 i1}^{c i}"
    assert ev(render_plain(e), Session()) == e


def test_mixed_variance_round_trip(session):
    e = ev("kdelta([c],[a])", session)
    text = render_plain(e)
    assert text == "kdelta_{c}^{a}"
    assert ev(text, Session()) == e


def test_inert_round_trip(session):
    e = ev("'covdiff('covdiff(F([],[m,n]),n),m)", session)
    text = render_plain(e)
    assert text == "F^{m n}_{;n m}"
    assert ev(text, Session()) == e


def test_multi_factor_inert_round_trip(session):
    e = ev("'covdiff(g([],[a,b])*phi([],[],b),a)", session)
    text = render_plain(e)
    assert text == "(g^{a b}*phi_{,b})_{;a}"
    assert ev(text, Session()) == e


def test_round_trip_on_random_corpus(sym_session):
    rng = make_rng(3)
    for i in range(60):
        free = () if i % 2 else (("u", False),)
        e = random_expression(sym_session, rng, free=free)
        text = render_plain(e)
        assert ev(text, Session()) == e, text


def test_zero_round_trip(session):
    from indicial import ZERO

    assert render_plain(ZERO) == "0"
    assert ev("0", session) == ZERO
