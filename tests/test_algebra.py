from fractions import Fraction
from itertools import product

import pytest

from indicial import scale, sub
from indicial.algebra import canform, canonical_term, contract, decsym, expand
from indicial.errors import ArityMismatchError, ConflictingDeclarationError
from indicial.exprs import ZERO, Term, free_indices, structural_key, validate_expression
from indicial.numeval import numeric_eval, random_assignment, random_expression

from conftest import ev, make_rng


# -- contract ---------------------------------------------------------------


def test_metric_raises_index(session):
    e = ev("g([],[a,b])*x([b],[])", session)
    assert contract(session, e) == ev("x([],[a])", session)


def test_metric_lowers_index(session):
    e = ev("g([a,b],[])*x([],[b])", session)
    assert contract(session, e) == ev("x([a],[])", session)


def test_metric_pair_to_kdelta(session):
    e = ev("g([],[a,b])*g([b,c],[])", session)
    assert contract(session, e) == ev("kdelta([c],[a])", session)


def test_metric_full_contraction_is_dimension(session):
    e = ev("g([],[a,b])*g([a,b],[])", session)
    assert contract(session, e) == ev("dim", session)


def test_kdelta_trace_symbolic(session):
    e = ev("kdelta([a],[a])", session)
    assert contract(session, e) == ev("dim", session)


def test_kdelta_trace_with_dimension(session):
    session.set_dimension(4)
    e = ev("kdelta([a],[a])", session)
    assert contract(session, e) == ev("4", session)


def test_kdelta_absorbs_into_slot(session):
    e = ev("kdelta([b],[a])*x([a],[])", session)
    assert contract(session, e) == ev("x([b],[])", session)
    e = ev("kdelta([b],[a])*x([],[b])", session)
    assert contract(session, e) == ev("x([],[a])", session)


def test_kdelta_absorbs_into_derivative_slot(session):
    e = ev("kdelta([b],[a])*x([c],[],a)", session)
    assert contract(session, e) == ev("x([c],[],b)", session)


def test_kdelta_chain(session):
    e = ev("kdelta([b],[a])*kdelta([c],[b])", session)
    assert contract(session, e) == ev("kdelta([c],[a])", session)


def test_free_metric_left_in_place(session):
    e = ev("g([],[a,b])*x([c],[])", session)
    assert contract(session, e) == e


def test_contract_listing_example(sym_session):
    # hand-contracted oracle for a delta-pair pattern against a curl
    e = scale(
        ev(
            "g([],[k,a])*g([],[l,b])"
            "*(kdelta([a],[n])*kdelta([b],[m])-kdelta([a],[m])*kdelta([b],[n]))"
            "*T([k,l],[])",
            sym_session,
        ),
        Fraction(-1, 2),
    )
    result = canform(sym_session, contract(sym_session, e))
    expected = canform(
        sym_session,
        scale(
            sub(ev("T([],[n,m])", sym_session), ev("T([],[m,n])", sym_session)),
            Fraction(-1, 2),
        ),
    )
    assert result == expected
    a = random_assignment(sym_session, [e], dim=4, seed=17)
    for m in range(4):
        for n in range(4):
            bind = {"m": m, "n": n}
            assert numeric_eval(e, a, bind) == pytest.approx(
                numeric_eval(result, a, bind), rel=1e-9, abs=1e-12
            )


def test_contract_terminates_on_metric_heavy_terms(session):
    e = ev(
        "g([],[a,b])*g([b,c],[])*g([],[c,d])*g([d,e],[])*g([],[e,f])*x([f],[])",
        session,
    )
    out = contract(session, e)
    assert out == ev("x([],[a])", session)


# -- decsym -----------------------------------------------------------------


def test_decsym_antisymmetric_sign(session):
    decsym(session, "A", 2, 0, [("anti", "all")], [])
    e = ev("A([b,a],[])", session)
    assert canform(session, e) == scale(ev("A([a,b],[])", session), -1)


def test_metric_symmetry_is_implicit(session):
    assert canform(session, ev("g([b,a],[])", session)) == ev(
        "g([a,b],[])", session
    )


def test_decsym_arity_conflict(session):
    session.register_arity("B", 3)
    with pytest.raises(ArityMismatchError):
        decsym(session, "B", 2, 0, [("anti", "all")], [])


def test_decsym_conflicting_redeclaration(session):
    decsym(session, "C", 2, 0, [("anti", "all")], [])
    with pytest.raises(ConflictingDeclarationError):
        decsym(session, "C", 2, 0, [("sym", "all")], [])
    # identical redeclaration is a no-op
    decsym(session, "C", 2, 0, [("anti", "all")], [])


def test_decsym_contravariant_declaration_covers_lowered_use(session):
    # declared over contravariant slots, applied to a covariant occurrence
    decsym(session, "F", 0, 2, [], [("anti", "all")])
    assert canform(session, ev("F([b,a],[])", session)) == scale(
        ev("F([a,b],[])", session), -1
    )


def test_decsym_brute_force_representative(sym_session):
    # orbit of T_{ba} x^a y^b under the two-element antisymmetry group:
    # candidates are +T_{ba}x^a y^b and -T_{ab}x^a y^b; the canonical pick
    # is the lexicographically least structure with its sign
    e = ev("T([b,a],[])*x([],[a])*y([],[b])", sym_session)
    flipped = scale(ev("T([a,b],[])*x([],[a])*y([],[b])", sym_session), -1)
    assert canform(sym_session, e) == canform(sym_session, flipped)


# -- canform ----------------------------------------------------------------


def test_canform_antisymmetric_pair_cancels(sym_session):
    e = ev("T([a,b],[]) + T([b,a],[])", sym_session)
    assert canform(sym_session, e) == ZERO


def test_canform_alpha_equivalent_cancellation(session):
    e = ev("x([a],[])*y([],[a]) - x([b],[])*y([],[b])", session)
    assert canform(session, e) == ZERO


def test_canform_collects_like_terms(session):
    e = ev("x([a],[])*y([],[a]) + x([b],[])*y([],[b])", session)
    out = canform(session, e)
    assert len(out.terms) == 1
    assert out.terms[0].coeff == 2


def test_canform_sorts_ordinary_derivatives(session):
    e = ev("phi([],[],b,a) - phi([],[],a,b)", session)
    assert canform(session, e) == ZERO


def test_canform_never_reorders_inert_indices(session):
    e = ev("'covdiff('covdiff(phi,a),b) - 'covdiff('covdiff(phi,b),a)", session)
    assert canform(session, e) != ZERO


def test_canform_annihilates_anti_against_sym(sym_session):
    e = ev("T([a,b],[])*S([],[a,b])", sym_session)
    assert canform(sym_session, e) == ZERO


def test_canform_annihilates_anti_on_identical_vectors(sym_session):
    e = ev("T([a,b],[])*x([],[a])*x([],[b])", sym_session)
    assert canform(sym_session, e) == ZERO


def test_canform_idempotent_on_corpus(sym_session):
    rng = make_rng(4)
    for i in range(200):
        free = () if i % 3 else (("u", False),)
        e = random_expression(sym_session, rng, free=free)
        once = canform(sym_session, e)
        assert canform(sym_session, once) == once


def test_canform_sound_under_numeric_eval(sym_session):
    rng = make_rng(5)
    for i in range(60):
        dim = 4 if i % 2 else 3
        e = random_expression(sym_session, rng)
        a = random_assignment(sym_session, [e], dim=dim, seed=300 + i)
        assert numeric_eval(canform(sym_session, e), a) == pytest.approx(
            numeric_eval(e, a), rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("text", [
    "x([],[%1])*y([a],[])*z([],[a])",
    "x([],[%3])*S([a,b],[])*x([],[a])*y([],[b])*y([%1],[])",
    "T([%2],[a])*S([a,b],[])*x([],[b])",
    "T([%1],[a])*T([b],[%4])*S([],[b,c])*S([a,c],[])",
])
def test_canform_numbers_dummies_above_free_generated_labels(sym_session, text):
    """A dummy renamed onto a free generated label would occur three times:
    the canonical form stays valid, keeps its key, and agrees with the input
    at dimension 4 for every value of the free indices."""
    e = ev(text, sym_session)
    free = sorted(lbl for lbl, _ in free_indices(e))
    result = canform(sym_session, e)
    validate_expression(result)
    assert free_indices(result) == free_indices(e)
    key, canon = canonical_term(sym_session, e.terms[0])
    assert key == structural_key(Term(canon.coeff, canon.factors))
    a = random_assignment(sym_session, [e, result], dim=4, seed=1)
    for values in product(range(4), repeat=len(free)):
        bind = dict(zip(free, values))
        assert numeric_eval(result, a, bind) == pytest.approx(
            numeric_eval(e, a, bind), rel=1e-9, abs=1e-12
        ), bind


def test_expand_is_identity_on_flat_expressions(session):
    e = ev("(x([a],[])+y([a],[]))*(x([],[a])+y([],[a]))", session)
    assert len(e.terms) == 4
    assert expand(session, e) == e


def test_expand_distributes_with_fresh_dummies(session):
    e = ev("(x([a],[])+y([a],[]))*(x([],[a])+y([],[a]))", session)
    a = random_assignment(session, [e], dim=4, seed=9)
    unexpanded_value = sum(
        numeric_eval(ev(t, session), a)
        for t in (
            "x([a],[])*x([],[a])",
            "x([a],[])*y([],[a])",
            "y([a],[])*x([],[a])",
            "y([a],[])*y([],[a])",
        )
    )
    assert numeric_eval(e, a) == pytest.approx(unexpanded_value, rel=1e-9)
