"""The index summary cached on each ``Term``: how often terms are walked, that
the cache is invisible to equality, hashing and ``repr``, and that it and
``exprs.positions`` agree with a walk written out here."""

import random
from fractions import Fraction

import pytest

from indicial import cli, exprs
from indicial.exprs import (
    DUMMY_PREFIX,
    Expression,
    InertDeriv,
    Term,
    dummy_label,
    map_labels,
    mul,
    positions,
    structural_key,
)
from indicial.numeval import random_expression

from conftest import ev, make_rng
from test_sums import random_sum


@pytest.fixture
def walks(monkeypatch):
    """The index summaries computed, one entry (the walked factors) per
    walk of a term's positions."""
    walked = []
    original = exprs._summarize

    def counting(factors):
        walked.append(factors)
        return original(factors)

    monkeypatch.setattr(exprs, "_summarize", counting)
    return walked


def unsummarized(e: Expression) -> Expression:
    """Equal terms that have not computed their summary yet."""
    return Expression(tuple(Term(t.coeff, t.factors) for t in e.terms))


LEFT = ["T([a,c],[])*y([],[c])", "x([a],[])", "x([b],[])*y([],[b])*z([a],[])"]
RIGHT = ["S([],[a],d)*y([],[d])", "y([],[a])", "x([c],[])*y([],[c])*u([],[a])",
         "y([],[b])*x([b],[])*y([],[a])"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 4])
def test_mul_walks_each_operand_and_product_term_once(session, walks, n, m):
    # the dummies b and c occur on both sides, so mul renames some of them
    e1 = unsummarized(ev(" + ".join(LEFT[:n]), session))
    e2 = unsummarized(ev(" + ".join(RIGHT[:m]), session))
    walks.clear()
    product = mul(e1, e2)
    assert len(product.terms) == n * m
    # the product terms arrive with the summary their running product kept.
    # Only a pair in which a dummy pair meets the other side walks: its
    # partial term once more, and, at the first such pair, each term of e2
    # for the highest generated label in reach.  c meets in LEFT[0] times
    # RIGHT[2], b in LEFT[2] times RIGHT[3]; with m = 1 nothing meets.
    meeting = (m == 4) + (n == 3 and m == 4)
    assert len(walks) == meeting + (m if meeting else 0)
    assert all(t.indices == exprs._summarize(t.factors) for t in product.terms)


def test_thousand_term_sum_walks_each_term_a_bounded_number_of_times(session, walks):
    n = 1000
    text, _ = random_sum(random.Random(7), n, 3, 0.0)
    value = cli.evaluate_expression(text, session)
    assert len(value.terms) == n
    # product terms arrive summarized and sums reuse their summaries, so only
    # a tensor literal that a product cannot simply append is walked (as it
    # is validated), and where a dummy pair meets, the partial term it meets
    # and the operand terms that set the floor of the fresh labels: fewer
    # factors in all than the sum has terms.  The label-counting helpers that
    # came before walked each term of a product about six times.
    assert 0 < sum(map(len, walks)) < n


def test_summary_is_computed_once(session, walks):
    t = Term(Fraction(1), ev("x([a],[])*y([],[a])", session).terms[0].factors)
    walks.clear()
    assert t.indices is t.indices
    assert len(walks) == 1


def test_summary_is_invisible(session, walks):
    (t,) = ev("2*T([a,c],[])*y([],[c])*'covdiff(x([b],[]), d)", session).terms
    summarized, bare = Term(t.coeff, t.factors), Term(t.coeff, t.factors)
    summary = summarized.indices
    walks.clear()
    # equality, hashing and repr neither read nor compute a summary
    assert summarized == bare
    assert hash(summarized) == hash(bare)
    assert repr(summarized) == repr(bare)
    assert walks == []
    assert bare.indices == summary and len(walks) == 1
    # two public fields, which rebuild an equal term; the summary is not one
    assert Term(summarized.coeff, summarized.factors) == summarized
    assert repr(summarized) == (f"Term(coeff={Fraction(t.coeff)!r}, "
                                f"factors={t.factors!r})")


def test_structural_key_is_kept_and_invisible(session):
    (t,) = ev("2*T([a,c],[])*y([],[c])*'covdiff(x([b],[]), d)", session).terms
    keyed, bare = Term(t.coeff, t.factors), Term(t.coeff, t.factors)
    key = structural_key(keyed)
    assert structural_key(keyed) is key  # kept on first use
    assert key == structural_key(Term(7, t.factors))
    # equality, hashing and repr do not see the kept key
    assert keyed == bare
    assert hash(keyed) == hash(bare)
    assert repr(keyed) == repr(bare)
    assert bare._key is None


def reference_positions(f):
    if isinstance(f, InertDeriv):
        for g in f.factors:
            yield from reference_positions(g)
        yield (f.index, False)
    else:
        yield from f.slots
        yield from ((d, False) for d in f.derivs)


def reference_summary(t: Term):
    variances = {}
    for f in t.factors:
        for lbl, up in reference_positions(f):
            variances.setdefault(lbl, []).append(up)
    dummies = tuple(lbl for lbl, ups in variances.items() if len(ups) == 2)
    free = frozenset((lbl, ups[0]) for lbl, ups in variances.items() if len(ups) == 1)
    tops = [int(lbl[1:]) for lbl in variances if lbl.startswith(DUMMY_PREFIX)]
    return variances, dummies, free, max(tops, default=0)


def variants(rng: random.Random, t: Term):
    """``t``, its dummies renamed to generated labels, both with a prefix of
    their factors nested in one or two inert derivatives, and both with their
    first factor repeated, so that labels occur three or four times."""
    start = rng.randrange(1, 9)
    renamed = map_labels(t, {lbl: dummy_label(n)
                             for n, lbl in enumerate(t.indices.dummies, start)})
    for u in (t, renamed):
        yield u
        yield Term(u.coeff, u.factors + u.factors[:1])
        cut = rng.randrange(1, len(u.factors) + 1)
        inner = InertDeriv(u.factors[:cut], "z")
        yield Term(u.coeff, (inner,) + u.factors[cut:])
        yield Term(u.coeff, (InertDeriv((inner,), "%12"),) + u.factors[cut:])


@pytest.mark.parametrize("free", [(), (("u", False),), (("u", True), ("v", False))],
                         ids=["closed", "one-free", "two-free"])
def test_summary_matches_a_reference_walk(sym_session, free):
    rng, py_rng = make_rng(70), random.Random(70)
    checked = 0
    for _ in range(40):
        for t in random_expression(sym_session, rng, free=free).terms:
            for u in variants(py_rng, t):
                assert tuple(u.indices) == reference_summary(u), u
                # the one position order, walked out by the reference
                for f in u.factors:
                    assert positions(f) == tuple(reference_positions(f)), f
                checked += 1
    assert checked > 500


def test_mul_renames_only_the_dummies_that_still_collide(session):
    # the right operand's dummy a meets the left's a and becomes %1; the
    # left's a then no longer meets anything and keeps its label
    e = ev("x([a],[])*y([],[a])", session)
    assert mul(e, e) == ev("x([a],[])*y([],[a])*x([%1],[])*y([],[%1])", session)
