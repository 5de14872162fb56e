"""indicial: symbolic tensor algebra on opaque indexed objects.

Tensors are manipulated purely through their index structure under the
Einstein summation convention: metric and Kronecker contraction,
symmetry-aware canonicalization, ordinary, covariant, and exterior
differentiation, functional differentiation, rewrite rules, and an
Euler-Lagrange driver for deriving field equations from Lagrangian
densities.
"""

from .algebra import canform, contract, decsym, expand
from .calculus import (
    christoffel,
    covdiff,
    expand_christoffels,
    expand_components,
    extdiff,
    fdiff,
    idiff,
    mapcovdiff,
)
from .cli import Evaluator, evaluate_expression, main, repl, run_script
from .errors import IndicialError, ParseError, SemanticError, ValidationError
from .exprs import (
    Expression,
    Factor,
    InertDeriv,
    Term,
    ZERO,
    add,
    ex,
    fac,
    free_indices,
    mul,
    neg,
    rename_dummies,
    scalar,
    scale,
    sub,
    term,
    validate,
    validate_expression,
)
from .lagrangian import FieldEquation, euler_lagrange
from .numeval import ComponentAssignment, numeric_eval, random_assignment
from .printing import render, render_json, render_latex, render_plain
from .rules import apply1, components, defrule, matchdeclare, remcomps
from .session import Session

__version__ = "0.1.0"
