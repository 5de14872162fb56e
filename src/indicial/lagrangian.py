"""Euler-Lagrange driver."""

from __future__ import annotations

from typing import NamedTuple

from .algebra import canform, contract, expand
from .calculus import fdiff, mapcovdiff
from .errors import NonScalarLagrangianError, SemanticError
from .exprs import (
    Expression,
    Factor,
    add,
    free_indices,
    neg,
    validate_expression,
)
from .rules import apply1
from .session import Session


class FieldEquation(NamedTuple):
    """Left-hand side of a field equation (implicitly = 0) plus the ordered
    pipeline stages that produced it."""

    lhs: Expression
    trace: tuple[tuple[str, Expression], ...]


def euler_lagrange(session: Session, lagrangian: Expression, field: Factor,
                   deriv_index: str, post_rules=()) -> FieldEquation:
    """Vary a scalar Lagrangian density with respect to one field.

    Computes the derivative with respect to the field and, separately, with
    respect to its gradient; the gradient branch runs through the rewrite
    rules named in ``post_rules`` and the expand/contract/canform pipeline
    before being wrapped in an inert covariant derivative.  The result is
    the variational form: field branch minus the divergence of the gradient
    branch.
    """
    validate_expression(lagrangian)
    if free_indices(lagrangian):
        raise NonScalarLagrangianError(
            "the Lagrangian density must have no free indices"
        )
    labels = [lbl for lbl, _ in field.slots] + [deriv_index]
    if len(set(labels)) != len(labels):
        raise SemanticError("field pattern indices must be distinct")

    trace: list[tuple[str, Expression]] = []
    raw_field = fdiff(session, lagrangian, field)
    trace.append(("field_derivative", raw_field))
    t1 = canform(session, contract(session, raw_field))
    trace.append(("field_derivative_simplified", t1))

    gradient_target = Factor(field.name, field.slots, field.derivs + (deriv_index,))
    stage = fdiff(session, lagrangian, gradient_target)
    trace.append(("gradient_derivative", stage))
    for name in post_rules:
        stage = apply1(session, stage, name)
        trace.append((f"rule_{name}", stage))
    stage = contract(session, expand(session, stage))
    t2 = canform(session, stage)
    trace.append(("gradient_derivative_simplified", t2))

    divergence = mapcovdiff(session, t2, deriv_index)
    trace.append(("divergence", divergence))
    lhs = canform(session, add(t1, neg(divergence)))
    trace.append(("equation", lhs))
    return FieldEquation(lhs, tuple(trace))

