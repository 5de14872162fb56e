import pytest

from indicial import sub
from indicial.algebra import canform, decsym, expand
from indicial.calculus import extdiff
from indicial.errors import (
    IterationCapError,
    MixedFreeIndicesError,
    ProductSizeError,
    SemanticError,
    SignatureMismatchError,
    UnboundMetavariableError,
)
from indicial.exprs import ZERO, ex, fac, scalar, term
from indicial.numeval import numeric_eval, random_assignment
from indicial.rules import apply1, components, defrule, matchdeclare, remcomps

from conftest import ev


@pytest.fixture
def maxwell_session(session):
    decsym(session, "F", 0, 2, [], [("anti", "all")])
    matchdeclare(session, ["a", "b"])
    defrule(
        session,
        "Maxwell",
        extdiff(session, ev("A([a],[])", session), "b"),
        ev("F([a,b],[])", session),
    )
    defrule(
        session,
        "CC",
        ev("'covdiff('covdiff(F([],[a,b]),b),a)", session),
        scalar(0),
    )
    return session


def test_matchdeclare_is_idempotent(session):
    matchdeclare(session, ["a", "b"])
    matchdeclare(session, ["a"])
    assert session.metavars == {"a", "b"}


def test_defrule_rejects_unbound_replacement_metavariable(session):
    matchdeclare(session, ["a", "b", "c"])
    with pytest.raises(UnboundMetavariableError):
        defrule(
            session, "bad", ev("A([a],[],b)", session), ev("F([a,c],[])", session)
        )


def test_defrule_pattern_term_count(session):
    with pytest.raises(SemanticError):
        defrule(
            session,
            "bad",
            ev("x([a],[]) + y([a],[]) + j([a],[])", session),
            ev("x([a],[])", session),
        )


def test_apply1_identity_rule_fixes_everything(session):
    matchdeclare(session, ["a", "b"])
    defrule(session, "idrule", ev("F([a,b],[])", session), ev("F([a,b],[])", session))
    e = ev("F([m,n],[])*g([],[m,k])", session)
    assert apply1(session, e, "idrule") == canform(session, e)


def test_apply1_non_matching_unchanged(maxwell_session):
    e = ev("j([],[m])", maxwell_session)
    assert apply1(maxwell_session, e, "Maxwell") == canform(maxwell_session, e)


def test_apply1_literal_indices_match_only_literally(session):
    # no matchdeclare: the pattern's labels are literal
    defrule(session, "lit", ev("x([p],[])", session), ev("y([p],[])", session))
    hit = apply1(session, ev("x([p],[])", session), "lit")
    assert hit == canform(session, ev("y([p],[])", session))
    miss = apply1(session, ev("x([q],[])", session), "lit")
    assert miss == canform(session, ev("x([q],[])", session))


def test_apply1_rewrites_curl_pair(maxwell_session):
    s = maxwell_session
    e = sub(ev("A([n],[],m)*x([],[m])*y([],[n])", s),
            ev("A([m],[],n)*x([],[m])*y([],[n])", s))
    out = apply1(s, e, "Maxwell")
    expected = canform(s, ev("F([m,n],[])*x([],[m])*y([],[n])", s))
    assert out == expected


def test_apply1_conservation_rule(maxwell_session):
    s = maxwell_session
    e = ev("'covdiff('covdiff(F([],[m,n]),n),m)", s)
    assert apply1(s, e, "CC") == ZERO


def test_apply1_conservation_rule_ignores_wrong_nesting(maxwell_session):
    s = maxwell_session
    # derivative indices that do not contract the tensor's own slots
    e = ev("'covdiff('covdiff(F([],[m,n]),k),l)", s)
    out = apply1(s, e, "CC")
    assert out == canform(s, e)
    assert out != ZERO


def test_apply1_iteration_cap(session):
    # sign toggle: every application changes the expression, forever
    defrule(session, "flip", ev("w", session), ev("-w", session))
    with pytest.raises(IterationCapError):
        apply1(session, ev("w", session), "flip")


def test_apply1_stops_a_growing_rule(session):
    # every rewrite builds a longer product: the budget stops it long before
    # the iteration cap
    defrule(session, "grow", ev("w", session), ev("w*w", session))
    with pytest.raises(ProductSizeError, match="'grow' built over 100000"):
        apply1(session, ev("w", session), "grow")


def test_apply1_skips_a_partner_that_fails_validation(session):
    # the partner of x_m*w_c would be y_m*u_c*v^c*w_c: c three times
    matchdeclare(session, ["a"])
    defrule(session, "R", ev("x([a],[]) + y([a],[])*u([c],[])*v([],[c])", session),
            ev("z([a],[])", session))
    e = ev("x([m],[])*w([c],[])", session)
    assert apply1(session, e, "R") == canform(session, e)
    e = ev("x([m],[])*w([d],[]) + y([m],[])*u([c],[])*v([],[c])*w([d],[])", session)
    assert apply1(session, e, "R") == canform(session,
                                              ev("z([m],[])*w([d],[])", session))


def test_apply1_skips_a_partner_that_canonicalizes_to_zero(session):
    # the partner of S_{cd}*x^c*x^d, T_{cd}*x^c*x^d, is zero: no pair to rewrite
    decsym(session, "T", 2, 0, [("anti", "all")], [])
    matchdeclare(session, ["a", "b"])
    defrule(session, "R", ev("S([a,b],[]) + T([a,b],[])", session),
            ev("U([a,b],[])", session))
    e = ev("S([c,d],[])*x([],[c])*x([],[d])", session)
    assert apply1(session, e, "R") == canform(session, e)
    e = ev("S([c,d],[])*x([],[c])*y([],[d]) + T([c,d],[])*x([],[c])*y([],[d])", session)
    assert apply1(session, e, "R") == canform(
        session, ev("U([c,d],[])*x([],[c])*y([],[d])", session))


def test_apply1_skips_a_replacement_invalid_with_the_rest(session):
    # x_c*w^c would become y^c*w^c: c twice contravariant.  Such a rule has
    # other free indices than its pattern, so defrule refuses it outright
    matchdeclare(session, ["a"])
    with pytest.raises(MixedFreeIndicesError, match=r"\('a', True\).*\('a', False\)"):
        defrule(session, "R", ev("x([a],[])", session), ev("y([],[a])", session))
    assert "R" not in session.rules


def test_apply1_skips_a_replacement_invalid_with_the_rest_by_rank(session):
    # x_m*y^{kl}*z_{kl} would become y_m*y^{kl}*z_{kl}: y with two ranks.  A
    # script cannot write that subject once the rule fixes y's rank, so it is
    # built directly
    matchdeclare(session, ["a"])
    defrule(session, "R", ev("x([a],[])", session), ev("y([a],[])", session))
    e = ex(term(1, fac("x", ["m"]), fac("y", contra=["k", "l"]), fac("z", ["k", "l"])))
    assert apply1(session, e, "R") == canform(session, e)
    assert apply1(session, ev("x([m],[])", session), "R") == ev("y([m],[])", session)


def test_apply1_numerically_sound_for_curl_rule(maxwell_session):
    s = maxwell_session
    rests = [
        "g([],[m,k])*g([],[n,l])*S([k,l],[])",
        "x([],[m])*y([],[n])",
        "g([],[m,n])*w",
    ]
    curl = sub(ev("A([n],[],m)", s), ev("A([m],[],n)", s))
    for i, rest_text in enumerate(rests):
        from indicial.exprs import mul

        e = mul(curl, ev(rest_text, s))
        out = apply1(s, e, "Maxwell")
        assignment = random_assignment(s, [e, out], dim=4, seed=50 + i)
        # F as the curl of A's jet, so that the rule is numerically sound
        jet = assignment.base[("A", 1, 1)]
        assignment.set_array("F", 2, 0, jet.T - jet)
        assert numeric_eval(out, assignment) == pytest.approx(
            numeric_eval(e, assignment), rel=1e-9, abs=1e-12
        )


def test_components_substitution_expands_occurrences(session):
    components(
        session,
        fac("F", cov=("m", "n")),
        extdiff(session, ev("A([m],[])", session), "n"),
    )
    e = ev("F([k,l],[])", session)
    assert e == sub(ev("A([l],[],k)", session), ev("A([k],[],l)", session))


def test_components_respect_variance_signature(session):
    components(
        session,
        fac("F", cov=("m", "n")),
        extdiff(session, ev("A([m],[])", session), "n"),
    )
    # a fully raised occurrence does not match the covariant signature
    e = ev("F([],[k,l])", session)
    assert e == ex(term(1, fac("F", contra=("k", "l"))))


def test_remcomps_restores_opacity(session):
    components(
        session,
        fac("F", cov=("m", "n")),
        extdiff(session, ev("A([m],[])", session), "n"),
    )
    remcomps(session, "F")
    e = ev("F([m,n],[])", session)
    assert e == ex(term(1, fac("F", cov=("m", "n"))))
    assert expand(session, e) == e


def test_remcomps_unknown_name(session):
    with pytest.raises(SemanticError):
        remcomps(session, "nothing")


def test_components_signature_mismatch(session):
    with pytest.raises(SignatureMismatchError):
        components(
            session, fac("F", cov=("m", "n")), ev("A([m],[],k)", session)
        )


def test_components_refuses_a_cyclic_definition(session):
    f_a, g_a = fac("F", cov=("a",)), fac("G", cov=("a",))
    for definition in ("F([a],[])", "2*F([a],[])", "F([a],[],b)*x([],[b])"):
        with pytest.raises(SemanticError, match="cyclic"):
            components(session, f_a, ev(definition, session))
    # the cycle F -> G -> H -> F, closed through the active definitions
    components(session, f_a, ex(term(1, g_a)))
    components(session, g_a, ev("H([a],[])", session))
    with pytest.raises(SemanticError, match="cyclic"):
        components(session, fac("H", cov=("a",)), ex(term(1, f_a)))
    assert "H" not in session.components
    assert ev("F([b],[])", session) == ev("H([b],[])", session)


def test_components_accepts_chains_and_other_variances(session):
    components(session, fac("A", cov=("a",)), ev("B([a],[])", session))
    components(session, fac("B", cov=("a",)), ev("C([a],[])", session))
    assert ev("A([b],[])", session) == ex(term(1, fac("C", cov=("b",))))
    # F^b is not the covariant F_a that the definition substitutes
    components(session, fac("F", cov=("a",)), ev("F([],[b])*g([a,b],[])", session))
    assert ev("F([c],[])", session) == ev("F([],[b])*g([c,b],[])", session)


def test_components_derivative_occurrence(session):
    components(
        session,
        fac("F", cov=("m", "n")),
        extdiff(session, ev("A([m],[])", session), "n"),
    )
    e = ev("F([m,n],[],k)", session)
    expected = sub(ev("A([n],[],m,k)", session), ev("A([m],[],n,k)", session))
    assert canform(session, e) == canform(session, expected)
