"""N-ary sums and products: the evaluator's left-to-right fold against a
pairwise fold of binary ``add``, ``neg`` and ``mul``, which is what a
left-deep chain of binary operators computes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import Session, evaluate_expression
from indicial import cli, exprs
from indicial.exprs import add, mul, neg, scalar
from indicial.parse import Product, Sum, parse_expression

# Every product holds exactly one core, so a sum of them is valid unless an
# error atom slips in.  Cores carry the free index a (down) and some dummies.
CORES = [
    "x([a],[])",
    "T([a,c],[])*y([],[c])",
    "x([b],[])*y([],[b])*z([a],[])",
    "S([a],[],d)*y([],[d])",
]
PREFACTORS = ["w", "v", "2", "3", "(1/2)", "-w", "x([b],[])*y([],[b])"]
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


def random_sum(rng: random.Random, n: int, max_factors: int, error_rate: float):
    """Text of an n-operand sum, and its operands as
    [(sum op, [(product op, atom text), ...]), ...]."""
    operands = []
    for i in range(n):
        atoms = [rng.choice(PREFACTORS)
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


def pairwise_fold(operands, session):
    """The old evaluation order: each binary node evaluates its left side,
    then its right side, then combines them."""
    def product(factors):
        value = evaluate_expression(factors[0][1], session)
        for op, atom in factors[1:]:
            right = evaluate_expression(atom, session)
            if op == "*":
                value = mul(value, right)
            else:
                q = cli._as_rational(right)
                if q is None:
                    raise cli.SemanticError(
                        "division is only defined by rational scalars")
                if q == 0:
                    raise cli.SemanticError("division by zero")
                value = mul(value, scalar(Fraction(1) / q))
        return value

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


def fresh_session():
    session = Session()
    session.set_metric("g")
    return session


@given(
    n=st.integers(1, 1000),
    max_factors=st.integers(1, 50),
    error_rate=st.sampled_from([0.0, 0.001, 0.02, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_fold_matches_pairwise_binary_fold(n, max_factors, error_rate, seed):
    rng = random.Random(seed)
    # The reference re-validates its running sum at every operand, which is
    # quadratic: long products only in short sums keep an example quick.
    max_factors = max(1, min(max_factors, 1000 // n))
    text, operands = random_sum(rng, n, max_factors, error_rate)
    got = outcome(lambda: evaluate_expression(text, fresh_session()))
    want = outcome(lambda: pairwise_fold(operands, fresh_session()))
    assert got == want


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
    # factor literals, products and the sum each validate a term about
    # once; re-validating the running sum at every + would be ~n*n/2
    assert len(calls) < 12 * n
