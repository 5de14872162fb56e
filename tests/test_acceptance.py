"""Acceptance checks.

Each test covers one acceptance criterion end to end and prints a single
PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Structural checks compare canonical forms exactly (zero tolerance); numeric
checks run at their stated relative tolerances.
"""

import io
import os

import numpy as np
import pytest

from indicial import Session, add, scalar, scale, sub
from indicial.algebra import canform, contract, decsym, expand
from indicial.calculus import (
    covdiff,
    expand_christoffels,
    extdiff,
    fdiff,
)
from indicial.cli import evaluate_expression, run_script
from indicial.exprs import ZERO, ex, fac, term
from indicial.lagrangian import euler_lagrange
from indicial.numeval import (
    numeric_eval,
    random_assignment,
    random_expression,
)
from indicial.rules import apply1, components, defrule, matchdeclare, remcomps

from conftest import SEED, make_rng

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "maxwell.ind")

REL_TOL = 1e-9
FD_TOL = 1e-6


def ev(text, session):
    return evaluate_expression(text, session)


def report(line):
    print(f"PASS {line}")


@pytest.fixture
def golden():
    """Session state after a full run of the derivation script."""
    session = Session()
    out = io.StringIO()
    status = run_script(SCRIPT, session, out=out)
    return status, session, out.getvalue()


def test_criterion_1_script_replay(golden):
    status, s, transcript = golden
    assert status == 0

    # (a) exterior derivative of the defined field strength vanishes
    assert canform(s, s.history[4]) == ZERO

    # (b) the functional-derivative pipeline lands on the raised field
    # strength exactly
    expected_f = canform(s, ev("F([],[m,n])", s))
    assert canform(s, s.history[12]) == expected_f

    # (c) the field equation has exactly the two expected terms
    equation = canform(s, s.history[13])
    target = canform(s, ev("j([],[m]) + 'covdiff(F([],[m,n]),n)", s))
    assert equation == target
    assert len(equation.terms) == 2

    # (d) after the divergence rule only the current term survives
    residue = canform(s, s.history[14])
    assert residue == canform(s, ev("'covdiff(j([],[m]),m)", s))

    report(
        "criterion 1: script replay exits 0; nilpotence, pipeline output, "
        "field equation, and conservation residue all match"
    )


def test_criterion_2_gradient_derivative_of_the_invariant():
    s = Session()
    s.set_metric("g")
    components(s, fac("F", cov=("m", "n")), extdiff(s, ev("A([m],[])", s), "n"))
    invariant = ev(
        "F([k,l],[])*F([a,b],[])*g([],[k,a])*g([],[l,b])", s
    )
    remcomps(s, "F")
    decsym(s, "F", 0, 2, [], [("anti", "all")])
    matchdeclare(s, ["a", "b"])
    defrule(
        s, "Maxwell", extdiff(s, ev("A([a],[])", s), "b"), ev("F([a,b],[])", s)
    )
    raw = fdiff(s, invariant, fac("A", cov=("m",), derivs=("n",)))
    out = canform(s, contract(s, expand(s, apply1(s, raw, "Maxwell"))))
    expected = canform(s, scale(ev("F([],[m,n])", s), -4))
    assert out == expected
    report("criterion 2: gradient derivative of F.F reduces to -4 F^{m n}")


def test_criterion_3_engine_identities():
    s = Session()
    s.set_metric("g")
    assert contract(s, ev("g([],[a,b])*g([b,c],[])", s)) == ev(
        "kdelta([c],[a])", s
    )
    assert contract(s, ev("kdelta([a],[a])", s)) == ev("dim", s)
    s_dim = Session()
    s_dim.set_metric("g")
    s_dim.set_dimension(5)
    assert contract(s_dim, ev("kdelta([a],[a])", s_dim)) == scalar(5)

    decsym(s, "F", 0, 2, [], [("anti", "all")])
    assert canform(s, ev("F([b,a],[])", s)) == scale(ev("F([a,b],[])", s), -1)

    decsym(s, "T", 2, 0, [("anti", "all")], [])
    decsym(s, "S", 2, 0, [("sym", "all")], [])
    rng = make_rng(100)
    for i in range(200):
        free = () if i % 3 else (("u", False),)
        e = random_expression(s, rng, free=free)
        once = canform(s, e)
        assert canform(s, once) == once
    report(
        "criterion 3: metric/delta identities, antisymmetry sign, and "
        "canform idempotence over a 200-case corpus"
    )


def _close(a, b):
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), 1e-12)


def test_criterion_4_numeric_soundness_oracle():
    s = Session()
    s.set_metric("g")
    decsym(s, "F", 0, 2, [], [("anti", "all")])
    decsym(s, "T", 2, 0, [("anti", "all")], [])
    decsym(s, "S", 2, 0, [("sym", "all")], [])
    matchdeclare(s, ["a", "b"])
    defrule(
        s, "Maxwell", extdiff(s, ev("A([a],[])", s), "b"), ev("F([a,b],[])", s)
    )
    rng = make_rng(200)
    passes = {f.__name__: 0 for f in (expand, contract, canform)}
    passes["apply1"] = 0
    for i in range(100):
        e = random_expression(s, rng)
        assignment = random_assignment(s, [e], dim=4, seed=SEED + 500 + i)
        reference = numeric_eval(e, assignment)
        for op in (expand, contract, canform):
            value = numeric_eval(op(s, e), assignment)
            assert _close(reference, value), (i, op.__name__)
            passes[op.__name__] += 1
        rewritten = apply1(s, e, "Maxwell")
        assert _close(reference, numeric_eval(rewritten, assignment))
        passes["apply1"] += 1

    # directed cases where the curl rule actually fires
    from indicial.exprs import mul

    curl = sub(ev("A([n],[],m)", s), ev("A([m],[],n)", s))
    for i, rest in enumerate(
        (
            "g([],[m,k])*g([],[n,l])*U([k,l],[])",
            "x([],[m])*y([],[n])",
            "U([],[m,n])*w",
        )
    ):
        e = mul(curl, ev(rest, s))
        rewritten = apply1(s, e, "Maxwell")
        assert rewritten != canform(s, e)
        assignment = random_assignment(s, [e, rewritten], dim=4,
                                       seed=SEED + 900 + i)
        # F as the curl of A's jet, so that the rule is numerically sound
        jet = assignment.base[("A", 1, 1)]
        assignment.set_array("F", 2, 0, jet.T - jet)
        assert _close(
            numeric_eval(e, assignment), numeric_eval(rewritten, assignment)
        )

    # finite-difference oracle for the functional derivative
    s2 = Session()
    s2.set_metric("g")
    components(s2, fac("F", cov=("m", "n")), extdiff(s2, ev("A([m],[])", s2), "n"))
    lagrangian = ev(
        "-1/4*F([k,l],[])*F([a,b],[])*g([],[k,a])*g([],[l,b])"
        "+j([k],[])*A([l],[])*g([],[k,l])",
        s2,
    )
    gradient = fdiff(s2, lagrangian, fac("A", cov=("m",), derivs=("n",)))
    assignment = random_assignment(s2, [lagrangian, gradient], dim=4, seed=SEED)
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
            assert symbolic == pytest.approx(fd, rel=FD_TOL, abs=1e-8)
    report(
        "criterion 4: numeric agreement before/after expand, contract, "
        f"canform, apply1 over 100 random expressions at rel {REL_TOL}; "
        f"finite-difference check at rel {FD_TOL}"
    )


def test_criterion_5_covariant_derivative_expansion():
    s = Session()
    s.set_metric("g")
    out = covdiff(s, ev("v([],[i])", s), "j")
    expected = add(
        ev("v([],[i],j)", s),
        ex(
            term(
                1,
                fac("v", contra=("d",)),
                fac("ichr2", cov=("j", "d"), contra=("i",)),
            )
        ),
    )
    assert canform(s, out) == canform(s, expected)

    compat = covdiff(s, ev("g([a,b],[])", s), "k")
    compat = expand_christoffels(s, compat)
    assert canform(s, contract(s, compat)) == ZERO
    report(
        "criterion 5: covdiff(v^i, j) expands through the connection and "
        "the expanded metric derivative cancels"
    )


def test_criterion_6_gauge_invariance():
    s = Session()
    s.set_metric("g")
    straight = extdiff(s, ev("A([m],[])", s), "n")
    shifted = extdiff(
        s, add(ev("A([m],[])", s), extdiff(s, ev("theta", s), "m")), "n"
    )
    assert canform(s, shifted) == canform(s, straight)

    # same statement via a component definition for the shifted potential
    s2 = Session()
    s2.set_metric("g")
    components(
        s2,
        fac("B", cov=("m",)),
        add(ev("A([m],[])", s2), extdiff(s2, ev("theta", s2), "m")),
    )
    via_components = extdiff(s2, ev("B([m],[])", s2), "n")
    assert canform(s2, via_components) == canform(
        s2, extdiff(s2, ev("A([m],[])", s2), "n")
    )
    report("criterion 6: the field strength is gauge invariant")


def test_criterion_7_scalar_field_regression():
    s = Session()
    s.set_metric("g")
    lagrangian = ev("1/2*g([],[a,b])*phi([],[],a)*phi([],[],b)", s)
    equation = euler_lagrange(s, lagrangian, fac("phi"), "n")
    oracle = scale(ev("'covdiff(g([],[a,b])*phi([],[],b),a)", s), -1)
    assert equation.lhs == canform(s, oracle)
    report(
        "criterion 7: scalar-field equation matches the hand-derived "
        "wave operator"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
