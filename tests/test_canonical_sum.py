"""``algebra.CanonicalSum``, the one code that collects canonical terms,
against the bucket loop ``canform`` used before it (``canform_reference``)."""

from fractions import Fraction

from indicial.algebra import CanonicalSum, canform, canonical_term
from indicial.exprs import Expression, Term, structural_key, validate_expression
from indicial.numeval import random_expression

from canform_reference import reference_canform
from conftest import ev, make_rng

SCALES = (1, -1, 2, Fraction(-1, 3))


def noisy(rng, expr: Expression) -> Expression:
    """``expr`` with each term followed by up to three copies, each the term
    itself, its negation or a multiple of it, some with their factors
    reversed, all shuffled: copies collect, and some cancel to 0."""
    terms = []
    for t in expr.terms:
        terms.append(t)
        for _ in range(int(rng.integers(0, 4))):
            scale = SCALES[int(rng.integers(0, len(SCALES)))]
            factors = t.factors[::-1] if rng.integers(0, 2) else t.factors
            terms.append(Term(t.coeff * scale, factors))
    order = rng.permutation(len(terms))
    return validate_expression(Expression(tuple(terms[i] for i in order)))


def test_canform_equals_the_bucket_loop(sym_session):
    rng = make_rng(71)
    collected = cancelled = 0
    for i in range(300):
        free = () if i % 3 else (("u", False),)
        e = noisy(rng, random_expression(sym_session, rng, free=free))
        got = canform(sym_session, e)
        assert got == reference_canform(sym_session, e)
        canon = [c for t in e.terms if (c := canonical_term(sym_session, t))]
        keys = {key for key, _ in canon}
        collected += len(keys) < len(canon)
        cancelled += len(got.terms) < len(keys)
    assert collected > 100 and cancelled > 5


def test_merge_reports_change_and_keeps_keys_sorted(sym_session):
    s = sym_session
    e = canform(s, ev("x([a],[])*y([],[a]) + 2*S([a,b],[])*x([],[a])*x([],[b])"
                      " + T([a,b],[])*x([],[a])*y([],[b]) + w", s))
    total = CanonicalSum()
    assert total.merge(e.terms)
    assert total.expression() == e
    first = e.terms[0]
    # a term put back in its own place changes nothing
    assert not total.merge([first], removed=[structural_key(first)])
    assert total.expression() == e
    # its negation cancels it; a new term takes its place in key order
    assert total.merge([Term(-first.coeff, first.factors)])
    new = canform(s, ev("w*w", s))
    assert total.merge(new.terms)
    assert total.keys == sorted(total.keys)
    assert total.expression() == canform(
        s, Expression(e.terms[1:] + new.terms))
