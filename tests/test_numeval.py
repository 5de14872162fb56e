from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from indicial import numeval
from indicial.algebra import decsym
from indicial.errors import (
    InertOperatorError,
    SemanticError,
    TripleIndexError,
    UnboundNameError,
)
from indicial.exprs import (
    DIM_SYMBOL,
    KDELTA,
    Expression,
    Factor,
    Term,
    positions,
    validate_expression,
)
from indicial.numeval import (
    ComponentAssignment,
    collect_shapes,
    numeric_eval,
    random_assignment,
    random_expression,
)

from canform_reference import reference_draw
from conftest import ev, make_rng


def test_kdelta_trace(session):
    e = ev("kdelta([a],[a])", session)
    a = ComponentAssignment(2)
    assert numeric_eval(e, a) == 2.0
    assert numeric_eval(e, ComponentAssignment(3)) == 3.0


def test_dim_symbol(session):
    a = ComponentAssignment(3)
    assert numeric_eval(ev("dim", session), a) == 3.0


def test_metric_inverse_identity(session):
    e = ev("g([],[a,b])*g([b,c],[])", session)
    a = random_assignment(session, [e], dim=2, seed=3)
    for i in range(2):
        for j in range(2):
            expected = 1.0 if i == j else 0.0
            assert numeric_eval(e, a, {"a": i, "c": j}) == pytest.approx(
                expected, abs=1e-12
            )


def test_raised_occurrence_uses_inverse(session):
    e = ev("x([],[a])", session)
    a = random_assignment(session, [ev("x([b],[])", session), e], dim=2, seed=8)
    base = a.base[("x", 1, 0)]
    inv = a.metric_inverse
    for i in range(2):
        assert numeric_eval(e, a, {"a": i}) == pytest.approx(
            float(inv[i] @ base), rel=1e-12
        )


def test_contraction_soundness_against_matrix_oracle(session):
    e = ev("g([],[a,b])*x([a],[])*y([b],[])", session)
    a = random_assignment(session, [e], dim=3, seed=11)
    inv = a.metric_inverse
    x = a.base[("x", 1, 0)]
    y = a.base[("y", 1, 0)]
    assert numeric_eval(e, a) == pytest.approx(float(x @ inv @ y), rel=1e-12)


def test_symmetries_imposed_on_random_components(sym_session):
    exprs = [ev("T([a,b],[])*S([],[a,b])", sym_session)]
    a = random_assignment(sym_session, exprs, dim=3, seed=21)
    t = a.base[("T", 2, 0)]
    s = a.base[("S", 2, 0)]
    assert np.allclose(t, -t.T)
    assert np.allclose(s, s.T)


def test_jet_axes_symmetrized(session):
    e = ev("phi([],[],a,b)", session)
    a = random_assignment(session, [e], dim=2, seed=31)
    jet = a.base[("phi", 0, 2)]
    assert np.allclose(jet, jet.T)


def test_determinism(session):
    e = ev("x([a],[])*y([],[a])", session)
    a1 = random_assignment(session, [e], dim=2, seed=5)
    a2 = random_assignment(session, [e], dim=2, seed=5)
    assert numeric_eval(e, a1) == numeric_eval(e, a2)


def test_unbound_name_raises(session):
    e = ev("zz([a],[])*zz([],[a])", session)
    a = ComponentAssignment(2)
    with pytest.raises(UnboundNameError):
        numeric_eval(e, a)


def test_unbound_free_index_raises(session):
    e = ev("x([a],[])", session)
    a = random_assignment(session, [e], dim=2, seed=5)
    with pytest.raises(SemanticError):
        numeric_eval(e, a)


def test_inert_operator_rejected(session):
    e = ev("'covdiff(j([],[m]),m)", session)
    a = ComponentAssignment(2)
    with pytest.raises(InertOperatorError):
        numeric_eval(e, a)


def test_fixture_loader(session):
    # components set by hand, against sums worked out by hand
    a = ComponentAssignment(2, metric="g")
    a.set_array("g", 2, 0, [[1.0, 0.0], [0.0, 2.0]])
    a.set_array("x", 1, 0, [3.0, 4.0])
    a.set_array("phi", 0, 1, [0.5, 0.25])
    e = ev("g([],[a,b])*x([a],[])*x([b],[])", session)
    assert numeric_eval(e, a) == pytest.approx(3.0 * 3.0 / 1.0 + 4.0 * 4.0 / 2.0)
    e = ev("phi([],[],a)*x([],[a])", session)
    assert numeric_eval(e, a) == pytest.approx(0.5 * 3.0 + 0.25 * 4.0 / 2.0)


def test_generator_respects_free_signature(sym_session):
    rng = make_rng(6)
    for _ in range(20):
        e = random_expression(sym_session, rng, free=(("u", False),))
        from indicial import free_indices

        assert free_indices(e) == frozenset({("u", False)})


# ---------------------------------------------------------------------------
# differential test against the valuation loop the einsum oracle replaced


def _reference_factor(assignment, f, valuation):
    if f.name == DIM_SYMBOL:
        return float(assignment.dim)
    if f.name == KDELTA:
        return 1.0 if valuation[f.slots[0][0]] == valuation[f.slots[1][0]] else 0.0
    arr = assignment._adjust((f.name, f.rank, len(f.derivs)), f.variance_pattern())
    idx = tuple(valuation[lbl] for lbl, _ in f.slots)
    return float(arr[idx + tuple(valuation[d] for d in f.derivs)])


def reference_eval(expr, assignment, bind=None):
    """Sum every term over all dim**k values of its k dummies, one at a time."""
    total = 0.0
    for t in expr.terms:
        counts = {}
        for f in t.factors:
            for lbl, _ in positions(f):
                counts[lbl] = counts.get(lbl, 0) + 1
        dummies = sorted(lbl for lbl, n in counts.items() if n == 2)
        for combo in product(range(assignment.dim), repeat=len(dummies)):
            valuation = dict(bind or {})
            valuation.update(zip(dummies, combo))
            value = float(t.coeff)
            for f in t.factors:
                value *= _reference_factor(assignment, f, valuation)
            total += value
    return total


def _agrees(expr, assignment, bind=None):
    # einsum sums in another order than the loop: allow float64 rounding
    return numeric_eval(expr, assignment, bind) == pytest.approx(
        reference_eval(expr, assignment, bind), rel=1e-12, abs=1e-11
    )


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize(
    "free", [(), (("u", False),), (("u", True), ("v", False))],
    ids=["closed", "one-free", "two-free"],
)
def test_einsum_matches_valuation_loop(sym_session, dim, free):
    rng = make_rng(40 + dim)
    for i in range(15):
        e = random_expression(sym_session, rng, free=free)
        a = random_assignment(sym_session, [e], dim=dim, seed=700 + i)
        bind = {lbl: int(rng.integers(0, dim)) for lbl, _ in free}
        assert _agrees(e, a, bind), (i, e)


@pytest.mark.parametrize(
    "text",
    [
        "S([a],[a])",  # trace inside one factor
        "x([],[a],a)",  # derivative index contracted with a slot
        "T([a,b],[],c)*S([],[a,c])*x([],[b])",
        "dim*x([a],[])*x([],[a])",
        "kdelta([a],[b])*x([b],[])*y([],[a])",
        "w([],[],a,b)*g([],[a,b])",
    ],
)
def test_einsum_targeted_cases(sym_session, text):
    e = ev(text, sym_session)
    for dim in (2, 3, 4):
        a = random_assignment(sym_session, [e], dim=dim, seed=dim)
        assert _agrees(e, a)


def test_trace_and_derivative_contraction_by_hand(session):
    a = random_assignment(session, [ev("x([],[a],a)", session)], dim=4, seed=2)
    inv = a.metric_inverse
    assert numeric_eval(ev("x([],[a],a)", session), a) == pytest.approx(
        float(np.trace(inv @ a.base[("x", 1, 1)])), rel=1e-12
    )
    assert numeric_eval(ev("kdelta([a],[a])", session), a) == 4.0


def test_scalar_power_folds_into_coefficient(session):
    e = ev("phi([],[])^70", session)
    a = ComponentAssignment(4)
    a.set_array("phi", 0, 0, 1.01)
    assert numeric_eval(e, a) == reference_eval(e, a) == 2.006763368395386
    assert numeric_eval(e, a) == pytest.approx(1.01**70, rel=1e-14)


@pytest.mark.parametrize("value", [4, 7, -1])
def test_bound_value_out_of_range_raises(session, value):
    e = ev("x([a],[])", session)
    a = random_assignment(session, [e], dim=4, seed=5)
    with pytest.raises(SemanticError):
        numeric_eval(e, a, {"a": value})


@pytest.mark.parametrize(
    "text",
    [
        "(S([a,b],[])*S([],[a,b]))^27",  # 54 distinct labels
        "(x([a],[])*x([],[a]))^32",  # 64 operands
    ],
)
def test_einsum_limits_raise_semantic_error(sym_session, text):
    e = ev(text, sym_session)
    a = random_assignment(sym_session, [e], dim=2, seed=1)
    with pytest.raises(SemanticError):
        numeric_eval(e, a)


def test_metric_inverse_cached_until_reassigned(session):
    a = random_assignment(session, [ev("x([a],[])", session)], dim=3, seed=4)
    inv = a.metric_inverse
    assert a.metric_inverse is inv
    a.set_array("g", 2, 0, 2.0 * np.eye(3))
    assert np.allclose(a.metric_inverse, 0.5 * np.eye(3))


def test_assigned_arrays_are_read_only_copies(session):
    a = random_assignment(session, [ev("x([],[a])", session)], dim=4, seed=3)
    with pytest.raises(ValueError):
        a.base[("x", 1, 0)][0] = 1.0
    source = np.ones(4)
    a.set_array("x", 1, 0, source)
    source[0] = 2.0
    assert numeric_eval(ev("x([a],[])", session), a, {"a": 0}) == 1.0


@pytest.mark.parametrize("declare, shapes", [
    (lambda s: decsym(s, "S", 2, 0, [("sym", "all")], []), ["S([a,b],[])"]),
    (lambda s: decsym(s, "T", 3, 0, [("anti", "all")], []), ["T([a,b,c],[])"]),
    (lambda s: decsym(s, "R", 4, 0, [("anti", [1, 2]), ("anti", [3, 4])], []),
     ["R([a,b,c,d],[])"]),
    (lambda s: decsym(s, "U", 0, 3, [], [("sym", [1, 3])]), ["U([],[a,b,c])"]),
    (lambda s: decsym(s, "F", 0, 2, [], [("anti", "all")]),
     ["x([a],[],b,c)", "F([a,b],[],c,d)", "y([a],[],b,c,d)", "F([a,b],[],c,d,e)"]),
])
def test_draws_agree_with_the_block_projection(session, declare, shapes):
    """Averaging over ``algebra._table`` draws what projecting one block at a
    time, then the derivative axes, drew (``canform_reference``)."""
    declare(session)
    exprs = [ev(text, session) for text in shapes]
    for dim, seed in ((3, 4), (4, 5)):
        a = random_assignment(session, exprs, dim=dim, seed=seed)
        rng = np.random.default_rng(seed)
        rng.uniform(-1.0, 1.0, size=(dim, dim))  # the metric
        for name, rank, nderivs in sorted(collect_shapes(exprs)):
            raw = rng.uniform(-1.5, 1.5, size=(dim,) * (rank + nderivs))
            want = reference_draw(session, name, rank, nderivs, raw)
            assert np.max(np.abs(a.base[(name, rank, nderivs)] - want)) <= 1e-12


# ---------------------------------------------------------------------------
# contraction plans: equal structures contracted once, large ones pairwise


@pytest.mark.parametrize("value", [1.5, True, "1", None])
def test_bound_value_of_another_type_raises(session, value):
    e = ev("x([a],[])", session)
    a = random_assignment(session, [e], dim=4, seed=5)
    with pytest.raises(SemanticError):
        numeric_eval(e, a, {"a": value})


@pytest.mark.parametrize("value", [1, np.int64(1), np.uint8(1)])
def test_bound_value_of_any_integer_type_is_accepted(session, value):
    e = ev("x([a],[])", session)
    a = random_assignment(session, [e], dim=4, seed=5)
    assert numeric_eval(e, a, {"a": value}) == a.base[("x", 1, 0)][1]


def test_a_label_three_times_over_raises(session):
    # what canform made of x^{%1}*y_{a}*z^{a} before it numbered dummies
    # above the free generated labels
    t = Term(1, (Factor("x", (("%1", True),)), Factor("y", (("%1", False),)),
                 Factor("z", (("%1", True),))))
    a = random_assignment(session, [Expression((t,))], dim=4, seed=1)
    for bind in ({}, {"%1": 2}):
        with pytest.raises(TripleIndexError):
            numeric_eval(Expression((t,)), a, bind)


@pytest.fixture
def chain_session(session):
    """The metric, an antisymmetric ``F`` and an undeclared ``M``."""
    decsym(session, "F", 2, 0, [("anti", "all")], [])
    return session


def _mixed_chain(name, n, ends=None):
    """name_{a0}^{a1} name_{a1}^{a2} ... closed into a ring, or open from
    the lower label ``ends[0]`` to the upper label ``ends[1]``."""
    labels = [f"a{i}" for i in range(n)] + ["a0"]
    if ends:
        labels[0], labels[-1] = ends
    return "*".join(f"{name}([{labels[i]}],[{labels[i + 1]}])" for i in range(n))


def _explicit_chain(n):
    """F_{u0 v0} g^{v0 u1} F_{u1 v1} g^{v1 u2} ... g^{v(n-1) u0}."""
    return "*".join(f"F([u{i},v{i}],[])*g([],[v{i},u{(i + 1) % n}])" for i in range(n))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("text", [_mixed_chain(name, n) for n in (5, 6, 7, 8)
                                  for name in ("F", "M")]
                         + [_explicit_chain(3), _explicit_chain(4)])
def test_chains_match_valuation_loop(chain_session, dim, text):
    # at dimension 3 the 8-factor rings and explicit F^4 (8 dummies) go pairwise
    e = ev(text, chain_session)
    a = random_assignment(chain_session, [e], dim=dim, seed=dim)
    assert _agrees(e, a)


@pytest.mark.parametrize("n", [6, 8])
def test_explicit_chain_at_dimension_4_is_a_matrix_trace(chain_session, n):
    # one-call einsum would visit 4**(2n) valuations
    e = ev(_explicit_chain(n), chain_session)
    a = random_assignment(chain_session, [e], dim=4, seed=n)
    f, up = a.base[("F", 2, 0)], a._adjust(("g", 2, 0), (True, True))
    want = float(np.trace(np.linalg.matrix_power(f @ up, n)))
    assert numeric_eval(e, a) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "free", [(), (("u", False),), (("u", True), ("v", False))],
    ids=["closed", "one-free", "two-free"],
)
def test_pairwise_contraction_matches_valuation_loop(sym_session, monkeypatch, free):
    monkeypatch.setattr(numeval, "PAIRWISE_ABOVE", 0)
    rng = make_rng(60)
    for i in range(20):
        dim = 2 + i % 3
        e = random_expression(sym_session, rng, free=free, max_factors=5)
        a = random_assignment(sym_session, [e], dim=dim, seed=900 + i)
        bind = {lbl: rng.integers(0, dim) for lbl, _ in free}
        assert _agrees(e, a, bind), (i, e)
    for text in ("S([a],[a])", "x([],[a],a)", "T([a,b],[],c)*S([],[a,c])*x([],[b])",
                 "dim*x([a],[])*x([],[a])", "kdelta([a],[b])*x([b],[])*y([],[a])"):
        e = ev(text, sym_session)
        assert _agrees(e, random_assignment(sym_session, [e], dim=3, seed=1)), text


def _sum_of(session, coeffs, texts):
    """One term per coefficient, each of one structure written with its own
    labels (``texts`` cycles), so no two terms are equal."""
    terms = []
    for i, c in enumerate(coeffs):
        (t,) = ev(texts[i % len(texts)], session).terms
        terms.append(Term(c, t.factors))
    return validate_expression(Expression(tuple(terms)))


@pytest.mark.parametrize("coeffs", [
    (1, -1),
    (Fraction(1, 3), Fraction(-1, 3)),
    (Fraction(3, 2), Fraction(-1, 4), Fraction(-5, 4)),
    (2, -1, 3, -4),
])
@pytest.mark.parametrize("texts", [
    ("x([a],[])*S([],[a,b])*y([b],[])", "x([c],[])*S([],[c,d])*y([d],[])"),
    (_mixed_chain("M", 8), _mixed_chain("M", 8).replace("a", "b")),  # pairwise
], ids=["vectors", "ring8"])
def test_cancelling_terms_of_one_structure_sum_to_zero(chain_session, coeffs, texts):
    decsym(chain_session, "S", 2, 0, [("sym", "all")], [])
    e = _sum_of(chain_session, coeffs, texts)
    a = random_assignment(chain_session, [e], dim=4, seed=7)
    assert numeric_eval(e, a) == 0.0
    assert numeric_eval(Expression(e.terms[:1]), a) != 0.0


@pytest.mark.parametrize("coeffs", [
    (1, -1),
    (Fraction(1, 3), Fraction(-1, 3)),
    (Fraction(3, 2), Fraction(-3, 2), Fraction(5, 4), Fraction(-5, 4)),
])
def test_cancelling_terms_with_0d_factors_sum_to_zero(chain_session, coeffs):
    # each term's coefficient times its 0-d factors: opposite terms cancel exactly
    decsym(chain_session, "S", 2, 0, [("sym", "all")], [])
    e = _sum_of(chain_session, coeffs, ["w([],[])*dim*S([a,b],[])*S([],[a,b])",
                                        "w([],[])*dim*S([p,q],[])*S([],[p,q])"])
    a = random_assignment(chain_session, [e], dim=4, seed=7)
    assert numeric_eval(e, a) == 0.0
    assert numeric_eval(Expression(e.terms[:1]), a) != 0.0


def test_each_plan_is_contracted_once(chain_session, monkeypatch):
    calls = []
    original = numeval._contract
    monkeypatch.setattr(numeval, "_contract",
                        lambda key, a: calls.append(key) or original(key, a))
    coeffs = [Fraction(k, 1 + k % 4) for k in range(1, 31)]
    e = _sum_of(chain_session, coeffs, ["x([a],[])*F([],[a,b])*y([b],[])",
                                        "x([c],[])*F([],[c,d])*y([d],[])",
                                        "x([e],[])*y([],[e])",
                                        "x([f],[])*y([],[f])"])
    a = random_assignment(chain_session, [e], dim=3, seed=2)
    assert _agrees(e, a)
    assert len(calls) == 2
    calls.clear()
    numeric_eval(_sum_of(chain_session, coeffs, ["x([u],[])*y([b],[])*y([],[b])"]),
                 a, {"u": 1})
    assert len(calls) == 1


@pytest.mark.parametrize("pairwise", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("text", [
    _mixed_chain("M", 5, ends=("u", "v")),  # a chain between two free indices
    _mixed_chain("F", 4, ends=("u", "v")),
    "x([u],[])*T([a,b],[])*S([],[a,b])*y([],[v])",  # x and y bound at every index
    "S([u],[v])*S([a],[a])",
    "T([u,a],[],v)*x([],[a])",  # a bound derivative index
    "kdelta([u],[v])*x([a],[])*y([],[a])",
])
def test_bound_slices_match_valuation_loop(chain_session, monkeypatch, pairwise, dim, text):
    decsym(chain_session, "T", 2, 0, [("anti", "all")], [])
    decsym(chain_session, "S", 2, 0, [("sym", "all")], [])
    if pairwise:
        monkeypatch.setattr(numeval, "PAIRWISE_ABOVE", 0)
    e = ev(text, chain_session)
    a = random_assignment(chain_session, [e], dim=dim, seed=dim + 10)
    for u, v in product(range(dim), repeat=2):
        assert _agrees(e, a, {"u": u, "v": v}), (u, v)
