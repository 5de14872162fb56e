from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import (
    Expression,
    Factor,
    Term,
    ZERO,
    add,
    ex,
    fac,
    free_indices,
    mul,
    rename_dummies,
    scalar,
    term,
    validate,
)
from indicial.errors import (
    ArityMismatchError,
    MixedFreeIndicesError,
    TripleIndexError,
    VarianceClashError,
)
from indicial.numeval import numeric_eval, random_assignment, random_expression

from conftest import ev, make_rng


def test_inner_product_validates(session):
    t = term(1, fac("x", cov=("a",)), fac("y", contra=("a",)))
    assert validate(t) is t
    assert free_indices(ex(t)) == frozenset()


def test_same_variance_repeat_rejected():
    t = term(1, fac("x", cov=("a",)), fac("y", cov=("a",)))
    with pytest.raises(VarianceClashError):
        validate(t)


def test_triple_index_rejected():
    t = term(1, fac("x", cov=("a",)), fac("y", contra=("a",)), fac("z", contra=("a",)))
    with pytest.raises(TripleIndexError):
        validate(t)


def test_arity_mismatch_within_term():
    t = term(1, fac("T", cov=("a", "b")), fac("T", cov=("c",)), fac("u", contra=("a", "b", "c")))
    with pytest.raises(ArityMismatchError):
        validate(t)


@pytest.mark.parametrize("text, error, match", [
    ("(x + y)*T([a,a],[])", VarianceClashError,
     "index 'a' repeated in covariant position"),
    ("(x + y)*T([a],[a,a])", TripleIndexError, "index 'a' appears 3 times"),
    ("(x([b],[]) + y([b],[]))*T([b],[a,a])", VarianceClashError,
     "index 'a' repeated in contravariant position"),
])
def test_literal_repeating_a_label_times_a_sum(session, text, error, match):
    with pytest.raises(error, match=match):
        ev(text, session)


def test_literal_times_a_sum_is_validated_only_when_it_repeats_a_label(
        session, monkeypatch):
    import indicial.exprs as exprs
    calls = []
    monkeypatch.setattr(exprs, "validate", lambda t: calls.append(t) or t)
    ev("(x + y)*T([a,b],[c],d)*u([e],[e])", session)
    literals = [t for t in calls if t.factors[0].name in ("T", "u")]
    assert literals == [term(1, fac("u", cov=("e",), contra=("e",)))]


def test_product_of_mismatched_ranks():
    with pytest.raises(ArityMismatchError,
                       match="tensor 'x' used with ranks 1 and 2"):
        mul(ex(term(1, fac("x", cov=("a",)))),
            ex(term(1, fac("x", cov=("b", "c")))))


def test_lagrangian_term_is_scalar(session):
    e = ev("F([a,b],[])*g([],[k,a])*g([],[l,b])*F([k,l],[])", session)
    assert free_indices(e) == frozenset()


def test_free_indices_single_factor():
    e = ex(term(1, fac("F", cov=("a", "b"))))
    assert free_indices(e) == frozenset({("a", False), ("b", False)})


def test_free_indices_mixed_terms_rejected():
    e = Expression(
        (term(1, fac("x", cov=("a",))), term(1, fac("y", cov=("b",))))
    )
    with pytest.raises(MixedFreeIndicesError):
        free_indices(e)


def test_free_indices_shared_across_sum(session):
    e = ev("j([],[m]) + x([],[m])", session)
    assert free_indices(e) == frozenset({("m", True)})


def test_rename_dummies_basic():
    e = ex(term(1, fac("x", cov=("a",)), fac("y", contra=("a",))))
    renamed = rename_dummies(e)
    f = renamed.terms[0].factors
    assert f[0].slots == (("%1", False),)
    assert f[1].slots == (("%1", True),)


def test_rename_dummies_numbers_above_free_generated_labels():
    # %1 is free: the dummy pair becomes %2, not a third %1
    e = ex(term(1, fac("x", contra=("%1",)), fac("y", cov=("a",)), fac("z", contra=("a",))))
    (t,) = rename_dummies(e).terms
    assert [f.slots for f in t.factors] == [(("%1", True),), (("%2", False),), (("%2", True),)]
    validate(t)
    # a generated dummy is not a floor; a user free index keeps the numbering at %1
    e = ex(term(1, fac("x", cov=("%7",)), fac("y", contra=("%7",)), fac("z", contra=("u",))))
    assert rename_dummies(e).terms[0].factors[0].slots == (("%1", False),)


def test_rename_dummies_unifies_alpha_equivalent_terms():
    e = Expression(
        (
            term(1, fac("x", cov=("a",)), fac("y", contra=("a",))),
            term(1, fac("x", cov=("b",)), fac("y", contra=("b",))),
        )
    )
    renamed = rename_dummies(e)
    assert renamed.terms[0] == renamed.terms[1]


def test_rename_dummies_idempotent_on_corpus(sym_session):
    rng = make_rng(1)
    for _ in range(40):
        e = random_expression(sym_session, rng)
        once = rename_dummies(e)
        assert rename_dummies(once) == once


def test_rename_dummies_keeps_numeric_value(sym_session):
    rng = make_rng(2)
    for i in range(25):
        e = random_expression(sym_session, rng)
        a = random_assignment(sym_session, [e], dim=4, seed=100 + i)
        assert numeric_eval(e, a) == pytest.approx(
            numeric_eval(rename_dummies(e), a), rel=1e-12, abs=1e-12
        )


def test_mul_freshens_colliding_dummies():
    e1 = ex(term(1, fac("x", cov=("a",)), fac("y", contra=("a",))))
    product = mul(e1, e1)
    t = product.terms[0]
    assert len(t.indices.dummies) == 2
    validate(t)


def test_mul_contracts_shared_free_labels():
    left = ex(term(1, fac("j", cov=("k",))))
    right = ex(term(1, fac("g", contra=("k", "l"))))
    product = mul(left, right)
    assert free_indices(product) == frozenset({("l", True)})


def test_power_expands_to_repeated_factors(session):
    e = ev("(x([a],[])*y([],[a]))^2", session)
    assert len(e.terms) == 1
    assert len(e.terms[0].factors) == 4
    assert len(e.terms[0].indices.dummies) == 2


def test_zero_is_empty_expression():
    assert scalar(0) == ZERO
    assert ZERO.is_zero()
    # addition does not collect; cancellation is canform's job
    assert len(add(scalar(2), scalar(-2)).terms) == 2


def test_scalar_arithmetic():
    e = add(scalar(Fraction(1, 2)), scalar(Fraction(1, 3)))
    assert sum(t.coeff for t in e.terms) == Fraction(5, 6)


names = st.sampled_from(["a", "b", "c", "m", "n"])
slots = st.lists(st.tuples(names, st.booleans()), max_size=4)


@given(slots, slots)
@settings(max_examples=200, deadline=None)
def test_validation_is_total(s1, s2):
    t = Term(
        Fraction(1),
        (Factor("P", tuple(s1)), Factor("Q", tuple(s2))),
    )
    try:
        validate(t)
    except (TripleIndexError, VarianceClashError, ArityMismatchError):
        pass


@given(st.permutations(["a", "b", "c"]))
@settings(max_examples=30, deadline=None)
def test_rename_is_label_independent(order):
    t = term(
        1,
        fac("x", cov=(order[0],)),
        fac("y", contra=(order[0],)),
        fac("z", cov=(order[1],), contra=(order[1],)),
    )
    renamed = rename_dummies(ex(t))
    again = rename_dummies(renamed)
    assert renamed == again
