"""The incremental ``apply1`` against the whole-expression loop it replaced,
which is kept here as the reference: every iteration rewrote one site and
re-canonicalized the entire expression, collecting its terms with the bucket
loop of ``canform_reference`` rather than ``algebra.CanonicalSum``."""

import random
from fractions import Fraction

import pytest

from indicial import algebra, rules
from indicial.algebra import canform, canonical_term, decsym
from indicial.calculus import extdiff
from indicial.errors import IterationCapError, MixedFreeIndicesError, ValidationError
from indicial.exprs import (
    Expression,
    Term,
    add,
    fac,
    map_labels,
    mul,
    structural_key,
    validate,
    validate_expression,
)
from indicial.numeval import random_expression
from indicial.rules import apply1, defrule, matchdeclare

from canform_reference import reference_canform
from conftest import ev, make_rng
from orbit_reference import reference_matches as _reference_matches


# --- the reference -----------------------------------------------------------


def _reference_site(terms, ti, ratio, binding, rest, rule, removed):
    produced = mul(Expression((Term(ratio, rest),)),
                   map_labels(rule.replacement, binding))
    keep = [u for i, u in enumerate(terms) if i != ti and i != removed]
    return Expression(tuple(keep) + produced.terms)


def _reference_once(session, current, rule):
    pattern = rule.pattern.terms
    for ti, t in enumerate(current.terms):
        for ratio, binding, rest in _reference_matches(
            session, t, pattern[0], rule.metavars
        ):
            partners = [None]
            if len(pattern) == 2:
                p2 = pattern[1]
                factors = tuple(map_labels(f, binding) for f in p2.factors) + rest
                try:
                    partner = validate(Term(ratio * p2.coeff, factors))
                except ValidationError:
                    continue
                canon = canonical_term(session, partner)
                if canon is None:
                    continue
                key, rep = canon
                partners = [
                    tj for tj, u in enumerate(current.terms)
                    if tj != ti and structural_key(u) == key
                    and u.coeff == rep.coeff
                ]
            for tj in partners:
                try:
                    candidate = _reference_site(
                        current.terms, ti, ratio, binding, rest, rule, tj
                    )
                    candidate = reference_canform(session,
                                                  validate_expression(candidate))
                except ValidationError:
                    continue
                if candidate != current:
                    return candidate
    return None


def reference_apply1(session, expr, name):
    rule = session.rules[name]
    current = reference_canform(session, expr)
    for _ in range(rules.ITERATION_CAP):
        new = _reference_once(session, current, rule)
        if new is None:
            return current
        current = new
    raise IterationCapError(f"rule {rule.name!r} did not reach a fixpoint")


def outcome(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:  # the error class and message are compared
        return ("error", type(exc).__name__, str(exc))


# --- corpora -------------------------------------------------------------------


@pytest.fixture
def maxwell_session(session):
    decsym(session, "F", 0, 2, [], [("anti", "all")])
    matchdeclare(session, ["a", "b"])
    defrule(session, "Maxwell",
            extdiff(session, ev("A([a],[])", session), "b"),
            ev("F([a,b],[])", session))
    # a one-term pattern whose replacement has two terms
    defrule(session, "split", ev("B([a],[],b)", session),
            ev("C([a,b],[]) + 1/2*C([b,a],[])", session))
    defrule(session, "flip", ev("w", session), ev("-w", session))
    # a two-term pattern whose partner can be the matched term itself
    defrule(session, "pair", ev("A([a],[],b) + A([b],[],a)", session),
            ev("P([a,b],[])", session))
    return session


LABELS = "mnpqrskl"


def maxwell_sites(rng: random.Random, k: int) -> Expression:
    """A sum over k curl sites c (A_{r,p} - A_{p,r}) W^{pr}, with some sites
    sharing a W or contracting the metric, some halves missing, some
    partners off by a coefficient, and some B_{p,r} terms for the one-term
    rule."""
    terms = []
    for _ in range(k):
        p, r = rng.sample(LABELS, 2)
        name = rng.choice(["g", "g"] + [f"W{i}" for i in range(max(1, k // 2))])
        w = fac(name, contra=(p, r))  # g is the symmetric metric
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        shape = rng.random()
        if shape < 0.8 or shape >= 0.9:
            terms.append(Term(c, (fac("A", cov=(r,), derivs=(p,)), w)))
        if shape < 0.9:
            c2 = c if shape < 0.7 else c * 2
            terms.append(Term(-c2, (fac("A", cov=(p,), derivs=(r,)), w)))
        if rng.random() < 0.3:
            terms.append(Term(c, (fac("B", cov=(p,), derivs=(r,)), w)))
    return add(*(Expression((t,)) for t in terms))


# --- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_incremental_apply1_matches_whole_expression_loop(maxwell_session, seed):
    s = maxwell_session
    rng = random.Random(seed)
    expr = maxwell_sites(rng, rng.randint(1, 40))
    for name in ("Maxwell", "split", "pair"):
        assert outcome(lambda: apply1(s, expr, name)) == outcome(
            lambda: reference_apply1(s, expr, name)
        )


def test_incremental_apply1_matches_on_the_iteration_cap(maxwell_session):
    s = maxwell_session
    expr = ev("w", s)
    got = outcome(lambda: apply1(s, expr, "flip"))
    assert got[:2] == ("error", "IterationCapError")
    assert got == outcome(lambda: reference_apply1(s, expr, "flip"))


def test_incremental_apply1_keeps_the_free_index_check(maxwell_session):
    s = maxwell_session
    # rewriting B_{m} to C_{mn} would leave it beside terms free in m only:
    # a replacement with other free indices than its pattern is refused
    matchdeclare(s, ["c"])
    defrule(s, "widen", ev("B([c],[])", s), ev("C([c,n],[])*D([],[n])", s))
    with pytest.raises(MixedFreeIndicesError, match="'clash'"):
        defrule(s, "clash", ev("B([c],[])", s), ev("C([c,n],[])", s))
    expr = ev("B([m],[]) + x([m],[])", s)
    assert apply1(s, expr, "widen") == reference_apply1(s, expr, "widen")
    assert "clash" not in s.rules


def count_canonical_terms(monkeypatch):
    calls = []
    original = algebra.canonical_term

    def counting(session, t):
        calls.append(t)
        return original(session, t)

    monkeypatch.setattr(algebra, "canonical_term", counting)
    monkeypatch.setattr(rules, "canonical_term", counting)
    return calls


@pytest.mark.parametrize("k", [10, 20, 40, 80])
def test_canonical_term_calls_grow_linearly_with_sites(
        maxwell_session, monkeypatch, k):
    s = maxwell_session
    terms = []
    for i in range(k):  # k distinct curl sites, as in the benchmark
        w = fac(f"W{i}", contra=("p", "r"))
        terms.append(Term(Fraction(i + 1), (fac("A", cov=("r",), derivs=("p",)), w)))
        terms.append(Term(-Fraction(i + 1), (fac("A", cov=("p",), derivs=("r",)), w)))
    expr = Expression(tuple(terms))
    calls = count_canonical_terms(monkeypatch)
    out = apply1(s, expr, "Maxwell")
    assert len(out.terms) == k
    # 2k for the initial canform, then per site one partner and one product
    assert len(calls) <= 4 * k


def test_canonical_terms_are_fixed_points(sym_session, maxwell_session):
    """The property the incremental apply1 relies on: canonical_term returns
    every term of a canonical form unchanged, so canform is idempotent."""
    rng = make_rng(11)
    corpus = [(sym_session, random_expression(
        sym_session, rng, free=() if i % 3 else (("u", False),)))
        for i in range(150)]
    py_rng = random.Random(11)
    corpus += [(maxwell_session, maxwell_sites(py_rng, py_rng.randint(1, 40)))
               for _ in range(20)]
    for session, expr in corpus:
        once = canform(session, expr)
        assert canform(session, once) == once
        for t in once.terms:
            assert canonical_term(session, t) == (structural_key(t), t)
