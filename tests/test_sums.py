"""N-ary sums and products: the evaluator's left-to-right fold against a
pairwise fold of binary ``add``, ``neg`` and the reference ``mul`` that the
running product replaced, which is what a left-deep chain of binary
operators computes."""

import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import Session, evaluate_expression
from indicial import cli, exprs, rules
from indicial.exprs import add, fac, neg, scalar
from indicial.parse import Product, Sum, parse_expression
from mul_reference import reference_mul, reference_products

# Every product holds exactly one core, so a sum of them is valid unless an
# error atom slips in.  Cores carry the free index a (down) and some dummies.
CORES = [
    "x([a],[])",
    "T([a,c],[])*y([],[c])",
    "x([b],[])*y([],[b])*z([a],[])",
    "S([a],[],d)*y([],[d])",
]
PREFACTORS = ["w", "v", "2", "3", "(1/2)", "-w", "x([b],[])*y([],[b])"]
# At the edges of a product built in one step: u([c],[c]) holds a dummy pair
# of its own, which meets the dummy c of a core or of a second copy; u([a],[a])
# puts the free index a three times in a product: mul renames either pair.
# 0 makes a product zero, which mul no longer validates; -3 and (-2) are
# negated numbers.
EDGE_PREFACTORS = ["u([c],[c])", "u([a],[a])", "0", "(-2)", "-3"]
# Each raises at a different stage: evaluating the atom, multiplying, or
# adding to the running sum.
ERROR_ATOMS = [
    "%th(7)",            # HistoryError while evaluating the atom
    "z([a],[])",         # VarianceClashError in mul: a twice down
    "y([],[a])*u([a],[])",  # TripleIndexError in mul
    "x([e],[])",         # MixedFreeIndicesError in the sum
    "x([a],[],a)",       # VarianceClashError while evaluating the atom
    "x([a,b],[])*y([],[b])",  # ArityMismatchError: x has rank 1 elsewhere
]


def random_sum(rng: random.Random, n: int, max_factors: int, error_rate: float,
               prefactors=PREFACTORS):
    """Text of an n-operand sum, and its operands as
    [(sum op, [(product op, atom text), ...]), ...]."""
    operands = []
    for i in range(n):
        atoms = [rng.choice(prefactors)
                 for _ in range(rng.randrange(max_factors))]
        atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(CORES))
        if rng.random() < error_rate:
            atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(ERROR_ATOMS))
        atoms = [piece for atom in atoms for piece in atom.split("*")]
        factors = [("*", atoms[0])]
        for atom in atoms[1:]:
            if rng.random() < 0.1:
                factors.append(("/", rng.choice(["2", "3"])))
            factors.append(("*", atom))
        if rng.random() < error_rate:  # SemanticError: not a rational divisor
            factors.append(("/", rng.choice(["0", "w"])))
        operands.append(("+" if i == 0 else rng.choice("+-"), factors))
    text = ""
    for i, (op, factors) in enumerate(operands):
        product = factors[0][1] + "".join(f"{o}{a}" for o, a in factors[1:])
        text += product if i == 0 else f" {op} {product}"
    return text, operands


@contextmanager
def checked_summaries():
    """Check every term a ``RunningProduct`` hands over, as it is handed
    over: its summary must equal a fresh walk of its factors, labels in the
    same order.  A stale or reordered summary would corrupt canform and
    rules silently.  Yields the list of checked terms."""
    checked, expression = [], exprs.RunningProduct.expression

    def checking(product):
        value = expression(product)
        for t in value.terms:
            fresh = exprs._summarize(t.factors)
            assert t.indices == fresh, t
            assert list(t.indices.variances.items()) == list(fresh.variances.items())
            checked.append(t)
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exprs.RunningProduct, "expression", checking)
        yield checked


def test_handed_over_summaries_are_checked():
    # u's pair meets the running c and is renamed; the sum distributes
    text = "2*x([a],[])*y([],[c])*u([c],[c])*(y([],[a]) + z([],[a]))"
    with checked_summaries() as checked:
        value = evaluate_expression(text, fresh_session())
    assert len(value.terms) == 2 and checked[-2:] == list(value.terms)


def pairwise_fold(operands, session):
    """The old evaluation order: each binary node evaluates its left side,
    then its right side, then combines them, every product (inside the
    atoms too) by the reference ``mul``."""
    def product(factors):
        value = evaluate_expression(factors[0][1], session)
        for op, atom in factors[1:]:
            right = evaluate_expression(atom, session)
            if op == "*":
                value = reference_mul(value, right)
            else:
                q = cli._as_rational(right)
                if q is None:
                    raise cli.SemanticError(
                        "division is only defined by rational scalars")
                if q == 0:
                    raise cli.SemanticError("division by zero")
                value = reference_mul(value, scalar(Fraction(1) / q))
        return value

    with reference_products():
        total = product(operands[0][1])
        for op, factors in operands[1:]:
            right = product(factors)
            total = add(total, right if op == "+" else neg(right))
    return total


def outcome(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:  # the error class and message are compared
        return ("error", type(exc).__name__, str(exc))


def fresh_session(with_components=False):
    session = Session()
    session.set_metric("g")
    if with_components:  # y^m is x^m u_n^n: the cores' y factors expand
        definition = evaluate_expression("x([],[m])*u([n],[n])", session)
        rules.components(session, fac("y", contra=("m",)), definition)
    return session


@given(
    n=st.integers(1, 1000),
    max_factors=st.integers(1, 50),
    error_rate=st.sampled_from([0.0, 0.001, 0.02, 0.2]),
    seed=st.integers(0, 2**32 - 1),
    with_components=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_fold_matches_pairwise_binary_fold(n, max_factors, error_rate, seed,
                                           with_components):
    rng = random.Random(seed)
    # The reference re-validates its running sum at every operand, which is
    # quadratic: long products only in short sums keep an example quick.
    max_factors = max(1, min(max_factors, 1000 // n))
    text, operands = random_sum(rng, n, max_factors, error_rate,
                                PREFACTORS + EDGE_PREFACTORS)
    assert_fold_matches_pairwise(text, operands, with_components)


def assert_fold_matches_pairwise(text, operands, with_components):
    got_session = fresh_session(with_components)
    want_session = fresh_session(with_components)
    with checked_summaries():
        got = outcome(lambda: evaluate_expression(text, got_session))
        want = outcome(lambda: pairwise_fold(operands, want_session))
    assert got == want
    # the ranks registered, in registration order, whether it raised or not
    assert list(got_session.arities.items()) == list(want_session.arities.items())


@pytest.mark.parametrize("with_components", [False, True])
@pytest.mark.parametrize("text", [
    "0*x([a],[])",                  # zero: no term, and x's rank registered
    "x([a],[])*0*y([a],[])",        # zero: mul no longer validates
    "-3*u([c],[c])*x([c],[])",      # u's dummy pair renamed
    "(-2)*u([a],[a])*x([a],[])/3",  # a three times, u's pair renamed
    "T([a,c],[])*y([],[c])",        # y expands where it has components
    "g([a],[])*x([],[a])",          # g has rank 2: ArityMismatchError
    "x([a],[])*x([a,b],[])*y([],[b])",  # ArityMismatchError within
    "2*x([a],[])/0",                # division by zero
    "2*x([a],[])/y([],[b])",        # division by a tensor
    "3/(-2)/4*(-2)",
])
def test_edge_products_match_pairwise_binary_fold(text, with_components):
    parts = re.split(r"([*/])", text)
    operands = [("+", [("*", parts[0]), *zip(parts[1::2], parts[2::2])])]
    assert_fold_matches_pairwise(text, operands, with_components)


@pytest.mark.parametrize("text, error", [
    ("x([a],[]) + y([b],[]) + %th(9)", "MixedFreeIndicesError"),
    ("x([a],[]) + %th(9) + y([b],[])", "HistoryError"),
    ("x([a],[]) - w*y([b],[]) - z([a],[])*z([a],[])", "MixedFreeIndicesError"),
    ("x([a],[]) + y([a],[])*z([a],[]) + y([b],[])", "VarianceClashError"),
    ("x([a],[])*y([a],[])/0 + w", "VarianceClashError"),
    ("w + w/0*x([a],[])*y([a],[])", "SemanticError"),
])
def test_the_first_error_in_source_order_wins(text, error):
    assert outcome(lambda: evaluate_expression(text, fresh_session()))[1] == error


def test_sum_and_product_nodes_are_flat():
    node = parse_expression("a + b - c*d/2*e - f = g")
    assert node.op == "="
    assert node.left == parse_expression("a + b - c*d/2*e - f")
    assert isinstance(node.left, Sum) and node.left.ops == ("+", "-", "-")
    product = node.left.operands[2]
    assert isinstance(product, Product) and product.ops == ("*", "/", "*")
    assert len(product.operands) == 4


def test_thousand_term_sum_validates_each_term_a_bounded_number_of_times(
        monkeypatch):
    n = 1000
    text, _ = random_sum(random.Random(7), n, 3, 0.0)
    calls = []
    original = exprs.validate

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(exprs, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    value = evaluate_expression(text, fresh_session())
    assert len(value.terms) == n
    # the sum validates each term once, as it joins.  A product checks only
    # its operands' labels and ranks and validates a tensor literal only
    # where it cannot simply append it (a dummy pair meets, or the product
    # has several terms); re-validating the running sum at every + would be
    # ~n*n/2, and the products and the sum each validating a term ~2*n
    assert n <= len(calls) < 1.25 * n


def count_walked(monkeypatch):
    """The factors each walk of a term's positions covers, one entry a walk."""
    walked = []
    original = exprs._summarize

    def counting(factors):
        walked.append(len(factors))
        return original(factors)

    monkeypatch.setattr(exprs, "_summarize", counting)
    return walked


def test_long_product_is_built_in_linear_time(monkeypatch):
    n = 2000
    atoms = [f"x([k{i}],[])" for i in range(n)]
    text = "-3*" + "*".join(atoms) + "/2"
    operands = [("+", [("*", "-3"), *[("*", a) for a in atoms], ("/", "2")])]
    want = pairwise_fold(operands, fresh_session())
    walked = count_walked(monkeypatch)
    assert evaluate_expression(text, fresh_session()) == want
    # a fold re-walks its growing term at every factor: about n*n/2
    assert sum(walked) < 10 * n


@pytest.mark.parametrize("atom", [
    "w{i}",                       # bare names, each its own scalar factor
    "canform(x([k{i}],[]))",      # calls
    "(2*x([k{i}],[]))",           # parenthesized one-term products
])
def test_long_product_of_values_is_built_in_linear_time(monkeypatch, atom):
    n = 2000
    atoms = [atom.format(i=i) for i in range(n)]
    operands = [("+", [("*", a) for a in atoms])]
    want = pairwise_fold(operands, fresh_session())
    walked = count_walked(monkeypatch)
    assert evaluate_expression("*".join(atoms), fresh_session()) == want
    # multiplying by an operand costs the operand's size; a fold that
    # re-checks its growing term at every operand walks about n*n/2
    assert sum(walked) < 10 * n


def test_power_is_built_in_linear_time():
    n = 20000
    start = time.perf_counter()
    value = evaluate_expression(f"x^{n}", fresh_session())
    elapsed = time.perf_counter() - start
    assert value == evaluate_expression("*".join(["x"] * n), fresh_session())
    assert elapsed < 1.0


# Z is a closed term whose dummy pairs c and d meet its own factors, so it
# holds the generated labels %1 and %2: an operand with generated labels above
# the running term's, and a running term with them.
Z = "(u([c],[c])*v([d],[d])*x([c],[])*y([],[c])*x([d],[])*y([],[d]))"


@pytest.mark.parametrize("with_components", [False, True])
@pytest.mark.parametrize("text", [
    "x^0",
    "x^300",
    "(2*x - w/3)^5",
    "(x([a],[])*y([],[a]))^3",            # each copy's pair renamed
    "(u([c],[c]) + x([b],[])*y([],[b]))^4",  # sums of terms with dummy pairs
    "(T([a,c],[])*y([],[c]) + w*S([a],[]))^2",  # a free index: a four times
    "(x([a],[]) + y([],[a]))^2",          # MixedFreeIndicesError in the sum
    "y([],[m])^3",                        # y expands where it has components
    f"x([c],[])*y([],[c])*{Z}",
    f"{Z}*x([c],[])*y([],[c])*u([d],[d])",
    f"{Z}^2*(w + {Z})",
    f"(u([c],[c])*x([c],[]))^2",          # c free twice: VarianceClashError
])
def test_products_and_powers_match_reference(text, with_components):
    got_session = fresh_session(with_components)
    want_session = fresh_session(with_components)
    with checked_summaries():
        got = outcome(lambda: evaluate_expression(text, got_session))
    with reference_products():
        want = outcome(lambda: evaluate_expression(text, want_session))
    assert got == want
    assert list(got_session.arities.items()) == list(want_session.arities.items())
