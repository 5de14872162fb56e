from itertools import product

import numpy as np
import pytest

from indicial.algebra import decsym
from indicial.errors import InertOperatorError, SemanticError, UnboundNameError
from indicial.exprs import DIM_SYMBOL, KDELTA, positions
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
