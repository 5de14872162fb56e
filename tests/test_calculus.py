from fractions import Fraction

import numpy as np
import pytest

from indicial import Session, add, scale, sub
from indicial.algebra import canform, contract
from indicial.calculus import (
    christoffel,
    covdiff,
    expand_christoffels,
    extdiff,
    fdiff,
    idiff,
    mapcovdiff,
)
from indicial.errors import (
    InertOperatorError,
    NoMetricError,
    NotAntisymmetricError,
    PatternIndexCollisionError,
)
from indicial.exprs import ZERO, InertDeriv, ex, fac, term
from indicial.numeval import (
    ComponentAssignment,
    numeric_eval,
    random_assignment,
)
from indicial.rules import components

from conftest import ev


# -- idiff ------------------------------------------------------------------


def test_idiff_single_factor(session):
    assert idiff(ev("A([m],[])", session), "n") == ev("A([m],[],n)", session)


def test_idiff_product_rule(session):
    e = ev("x([a],[])*y([],[a])", session)
    out = idiff(e, "k")
    assert out == add(
        ev("x([a],[],k)*y([],[a])", session),
        ev("x([a],[])*y([],[a],k)", session),
    )


def test_idiff_constants_vanish(session):
    assert idiff(ev("3", session), "k") == ZERO
    assert idiff(ev("kdelta([a],[b])*x([],[a])", session), "k") == ev(
        "kdelta([a],[b])*x([],[a],k)", session
    )


def test_partials_commute_under_canform(session):
    e = sub(
        idiff(idiff(ev("theta", session), "m"), "n"),
        idiff(idiff(ev("theta", session), "n"), "m"),
    )
    assert canform(session, e) == ZERO


def test_idiff_renames_colliding_dummies(session):
    e = ev("x([a],[])*y([],[a])", session)
    out = idiff(e, "a")
    for t in out.terms:
        labels = [lbl for f in t.factors for lbl, _ in f.slots]
        assert labels.count("a") == 0 or "a" not in labels


CLASHING = "T([%1],[])*U([n],[])*V([],[n])"


@pytest.mark.parametrize("template", [
    "idiff({},n)", "covdiff({},n)", "extdiff({},n)", "mapcovdiff({},n)",
    "map(lambda([x],'covdiff(x,n)),{})", "'covdiff({},n)", "({})_{{;n}}",
    "diff({},U([n],[]))",
])
def test_derivative_renames_a_clashing_dummy_above_generated_labels(
        session, template):
    """The dummy n clashes with the new index n; renaming it to %1 used to
    meet the free %1 and raise TripleIndexError."""
    out = ev(template.format(CLASHING), session)
    spelled_q = ev(template.format(CLASHING.replace("n", "q")), session)
    assert not out.is_zero()
    assert canform(session, out) == canform(session, spelled_q)


def test_idiff_refuses_inert(session):
    e = ev("'covdiff(j([],[m]),m)", session)
    with pytest.raises(InertOperatorError):
        idiff(e, "k")


# -- christoffel --------------------------------------------------------------


def test_christoffel_shape(session):
    gamma = christoffel(session, "i", "j", "k")
    assert len(gamma.terms) == 3
    assert {t.coeff for t in gamma.terms} == {Fraction(1, 2), Fraction(-1, 2)}


def test_christoffel_symmetric(session):
    diff = sub(
        christoffel(session, "i", "j", "k"), christoffel(session, "j", "i", "k")
    )
    assert canform(session, diff) == ZERO


def test_christoffel_requires_metric():
    with pytest.raises(NoMetricError):
        christoffel(Session(), "i", "j", "k")


def test_christoffel_vanishes_for_constant_metric(session):
    gamma = christoffel(session, "i", "j", "k")
    assignment = ComponentAssignment(2, metric="g")
    assignment.set_array("g", 2, 0, [[2.0, 0.3], [0.3, 1.0]])
    assignment.set_array("g", 2, 1, [[[0.0] * 2] * 2] * 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                value = numeric_eval(gamma, assignment, {"i": i, "j": j, "k": k})
                assert value == pytest.approx(0.0, abs=1e-14)


# -- covdiff ------------------------------------------------------------------


def test_covdiff_inert_wraps_termwise(session):
    e = ev("j([],[m]) + x([],[m])", session)
    out = mapcovdiff(session, e, "k")
    assert len(out.terms) == 2
    assert all(isinstance(t.factors[0], InertDeriv) for t in out.terms)


def test_covdiff_inert_nested(session):
    e = ev("'covdiff('covdiff(F([],[m,n]),n),m)", session)
    inner = e.terms[0].factors[0]
    assert inner.index == "m"
    assert inner.factors[0].index == "n"


def test_covdiff_scalar_expanded(session):
    e = ev("phi", session)
    assert covdiff(session, e, "i") == ev(
        "phi([],[],i)", session
    )


def test_covdiff_vector_expansion(session):
    out = covdiff(session, ev("v([],[i])", session), "j")
    expected = add(
        ev("v([],[i],j)", session),
        ex(
            term(
                1,
                fac("v", contra=("d",)),
                fac("ichr2", cov=("j", "d"), contra=("i",)),
            )
        ),
    )
    assert canform(session, out) == canform(session, expected)


def test_covdiff_covector_expansion_sign(session):
    out = covdiff(session, ev("x([i],[])", session), "j")
    expected = add(
        ev("x([i],[],j)", session),
        scale(
            ex(
                term(
                    1,
                    fac("x", cov=("d",)),
                    fac("ichr2", cov=("j", "i"), contra=("d",)),
                )
            ),
            -1,
        ),
    )
    assert canform(session, out) == canform(session, expected)


def test_covdiff_expansion_corrects_derivative_indices(session):
    # a derivative index is a covariant position and takes its own correction
    out = ev("covdiff(A([m],[],n),k)", session)
    expected = ev(
        "A([m],[],n,k) - A([q],[],n)*ichr2([k,m],[q])"
        " - A([m],[],q)*ichr2([k,n],[q])",
        session,
    )
    assert canform(session, out) == canform(session, expected)


def test_covdiff_is_only_the_expanded_derivative(session):
    with pytest.raises(TypeError):
        covdiff(session, ev("v([],[i])", session), "j", mode="inert")


def test_covdiff_expanded_requires_metric():
    with pytest.raises(NoMetricError):
        covdiff(Session(), ex(term(1, fac("v", contra=("i",)))), "j")


def test_metric_compatibility(session):
    out = covdiff(session, ev("g([a,b],[])", session), "k")
    out = expand_christoffels(session, out)
    assert canform(session, contract(session, out)) == ZERO


# -- extdiff ------------------------------------------------------------------


def test_extdiff_scalar(session):
    assert extdiff(session, ev("phi", session), "k") == ev(
        "phi([],[],k)", session
    )


def test_extdiff_rank_one_convention(session):
    out = extdiff(session, ev("A([m],[])", session), "n")
    assert out == sub(ev("A([n],[],m)", session), ev("A([m],[],n)", session))


def test_extdiff_rank_two_cyclic(sym_session):
    out = extdiff(sym_session, ev("T([m,n],[])", sym_session), "k")
    expected = add(
        ev("T([m,n],[],k)", sym_session),
        ev("T([n,k],[],m)", sym_session),
        ev("T([k,m],[],n)", sym_session),
    )
    assert out == expected


def test_extdiff_nilpotent_rank_zero(session):
    dd = extdiff(session, extdiff(session, ev("theta", session), "a"), "b")
    assert canform(session, dd) == ZERO


def test_extdiff_nilpotent_rank_one(session):
    dd = extdiff(session, extdiff(session, ev("A([m],[])", session), "n"), "k")
    assert canform(session, dd) == ZERO


def test_extdiff_zero_with_components_active(session):
    a = ev("A([m],[])", session)
    components(session, fac("F", cov=("m", "n")), extdiff(session, a, "n"))
    out = extdiff(session, ev("F([m,n],[])", session), "k")
    assert canform(session, out) == ZERO


def test_extdiff_rejects_undeclared_rank_two(session):
    with pytest.raises(NotAntisymmetricError):
        extdiff(session, ev("U([m,n],[])", session), "k")


def test_extdiff_rejects_contravariant_free(session):
    with pytest.raises(NotAntisymmetricError):
        extdiff(session, ev("v([],[m])", session), "k")


def test_extdiff_halved_convention():
    s = Session()
    s.set_metric("g")
    s.set_geowedge(False)
    out = extdiff(s, ev("A([m],[])", s), "n")
    assert out == scale(
        sub(ev("A([n],[],m)", s), ev("A([m],[],n)", s)), Fraction(1, 2)
    )


def test_geowedge_frozen_after_use(session):
    extdiff(session, ev("phi", session), "k")
    with pytest.raises(Exception):
        session.set_geowedge(False)


def test_gauge_invariance(session):
    straight = extdiff(session, ev("A([m],[])", session), "n")
    shifted = extdiff(
        session,
        add(ev("A([m],[])", session), extdiff(session, ev("theta", session), "m")),
        "n",
    )
    assert canform(session, shifted) == canform(session, straight)


# -- fdiff --------------------------------------------------------------------


def test_fdiff_single_occurrence(session):
    out = fdiff(session, ev("A([l],[],k)", session), fac("A", cov=("m",), derivs=("n",)))
    assert canform(session, out) == canform(
        session, ev("kdelta([l],[m])*kdelta([k],[n])", session)
    )


def test_fdiff_current_term(session):
    out = fdiff(session, ev("j([k],[])*A([l],[])*g([],[k,l])", session), fac("A", cov=("m",)))
    assert contract(session, out) == ev("j([],[m])", session)


def test_fdiff_treats_field_and_gradient_independently(session):
    e = ev("A([l],[],k)*g([],[l,k])", session)
    assert fdiff(session, e, fac("A", cov=("m",))) == ZERO
    e = ev("A([l],[])*j([],[l])", session)
    assert fdiff(session, e, fac("A", cov=("m",), derivs=("n",))) == ZERO


def test_fdiff_rejects_free_index_collision(session):
    e = ev("A([m],[],k)*g([],[m,k])*x([n],[])", session)
    with pytest.raises(PatternIndexCollisionError):
        fdiff(session, e, fac("A", cov=("n",)))


def test_fdiff_scalar_field(session):
    e = ev("phi*phi", session)
    out = fdiff(session, e, fac("phi"))
    assert canform(session, out) == canform(session, ev("2*phi", session))


def test_fdiff_matches_finite_difference(session):
    a = ev("A([m],[])", session)
    components(session, fac("F", cov=("m", "n")), extdiff(session, a, "n"))
    lagrangian = ev(
        "-1/4*F([k,l],[])*F([a,b],[])*g([],[k,a])*g([],[l,b])"
        "+j([k],[])*A([l],[])*g([],[k,l])",
        session,
    )
    gradient = fdiff(session, lagrangian, fac("A", cov=("m",), derivs=("n",)))
    assignment = random_assignment(session, [lagrangian, gradient], dim=4, seed=42)
    jet = assignment.base[("A", 1, 1)]
    h = 1e-5
    for m in range(4):
        for n in range(4):
            symbolic = numeric_eval(gradient, assignment, {"m": m, "n": n})
            step = np.zeros_like(jet)
            step[m, n] = h
            assignment.set_array("A", 1, 1, jet + step)
            upper = numeric_eval(lagrangian, assignment)
            assignment.set_array("A", 1, 1, jet - step)
            lower = numeric_eval(lagrangian, assignment)
            assignment.set_array("A", 1, 1, jet)
            fd = (upper - lower) / (2 * h)
            assert symbolic == pytest.approx(fd, rel=1e-6, abs=1e-8)


# -- linearity and Leibniz properties ----------------------------------------


def test_derivatives_distribute_over_sums(session):
    e1 = ev("x([a],[])*y([],[a])", session)
    e2 = ev("3*w", session)
    combined = add(e1, e2)
    assert canform(session, idiff(combined, "k")) == canform(
        session, add(idiff(e1, "k"), idiff(e2, "k"))
    )
    assert canform(session, mapcovdiff(session, combined, "k")) == canform(
        session,
        add(mapcovdiff(session, e1, "k"), mapcovdiff(session, e2, "k")),
    )


def test_leibniz_structurally(session):
    from indicial.exprs import mul

    e1 = ev("x([a],[])", session)
    e2 = ev("y([],[a])", session)
    lhs = idiff(mul(e1, e2), "k")
    rhs = add(mul(idiff(e1, "k"), e2), mul(e1, idiff(e2, "k")))
    assert canform(session, lhs) == canform(session, rhs)
