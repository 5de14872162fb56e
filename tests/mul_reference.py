"""The products that ``exprs.RunningProduct`` replaced, kept as the
differential oracle for it: the binary ``mul`` with per-copy dummy
freshening, ``power`` as a loop of ``mul``, and the evaluator's left fold of
one ``mul`` per operand.  ``reference_products()`` puts them in place of the
running product everywhere the program multiplies.
"""

from contextlib import contextmanager

import pytest

from indicial import calculus, cli, rules
from indicial.errors import SemanticError
from indicial.exprs import (
    Expression,
    Term,
    dummy_label,
    free_indices,
    label_sort_key,
    map_labels,
    quotient,
    rational,
    scalar,
    validate,
)


def _rename_colliding_dummies(t: Term, avoid, floor: int) -> dict[str, str]:
    """Fresh generated labels above ``floor`` for those dummy pairs of ``t``
    whose labels occur in ``avoid``, in label order, as a label mapping.
    ``floor`` must be at least every generated label of ``t`` and of
    ``avoid``."""
    colliding = [lbl for lbl in t.indices.dummies if lbl in avoid]
    colliding.sort(key=label_sort_key)
    return {lbl: dummy_label(n) for n, lbl in enumerate(colliding, floor + 1)}


def reference_mul(e1: Expression, e2: Expression) -> Expression:
    """Distributed product with per-copy dummy freshening.

    A dummy pair internal to one operand is renamed only when its label also
    occurs in the other operand, so repeated labels across the operands can
    only be deliberate free-index contractions and products of already
    collision-free terms keep their labels.
    """
    floor = None  # the highest generated label in reach, once a dummy needs it
    out: list[Term] = []
    for t1 in e1.terms:
        s1 = t1.indices
        for t2 in e2.terms:
            if not (coeff := rational(t1.coeff * t2.coeff)):
                continue
            a, b = t1, t2
            s2 = t2.indices
            if s1.dummies or s2.dummies:
                if floor is None:
                    floor = max(t.indices.top for e in (e1, e2) for t in e.terms)
                renamed2 = _rename_colliding_dummies(t2, s1.variances, floor)
                # t1's dummies may meet the labels of t2 that were not renamed;
                # the fresh labels lie above all of t1's
                labels2 = s2.variances
                renamed1 = _rename_colliding_dummies(
                    t1, labels2.keys() - renamed2 if renamed2 else labels2,
                    floor + len(renamed2),
                )
                a = map_labels(t1, renamed1) if renamed1 else t1
                b = map_labels(t2, renamed2) if renamed2 else t2
            out.append(validate(Term(coeff, a.factors + b.factors)))
    result = Expression(tuple(out))
    free_indices(result)
    return result


def reference_power(expr: Expression, n: int) -> Expression:
    result = scalar(1)
    for _ in range(n):
        result = reference_mul(result, expr)
    return result


def reference_eval_product(evaluator, node) -> Expression:
    """The evaluator's product as a left fold of one ``mul`` per operand."""
    value = evaluator._expr_arg(node.operands[0])
    for op, operand in zip(node.ops, node.operands[1:]):
        right = evaluator._expr_arg(operand)
        if op == "*":
            value = reference_mul(value, right)
            continue
        q = cli._as_rational(right)
        if q is None:
            raise SemanticError("division is only defined by rational scalars")
        if q == 0:
            raise SemanticError("division by zero")
        value = reference_mul(value, scalar(quotient(1, q)))
    return value


@contextmanager
def reference_products():
    """Evaluate, expand components and apply rules with the reference
    products in place of the running product."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.Evaluator, "_eval_product", reference_eval_product)
        patch.setattr(cli, "power", reference_power)
        patch.setattr(calculus, "mul", reference_mul)
        patch.setattr(rules, "mul", reference_mul)
        yield
