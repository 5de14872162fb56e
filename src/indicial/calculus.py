"""Derivative operators: ordinary, covariant (inert and expanded), exterior,
and functional differentiation."""

from __future__ import annotations

from fractions import Fraction

from .algebra import canform
from .errors import (
    InertOperatorError,
    NoMetricError,
    NotAntisymmetricError,
    PatternIndexCollisionError,
    SemanticError,
    ValidationError,
)
from .exprs import (
    CHRISTOFFEL,
    DIM_SYMBOL,
    Expression,
    Factor,
    InertDeriv,
    KDELTA,
    MAX_DEPTH,
    Term,
    ZERO,
    add,
    dummy_label,
    ex,
    free_indices,
    inert_depth,
    is_dummy_label,
    label_sort_key,
    map_labels,
    max_dummy_number,
    mul,
    rename_term_dummies,
    scale,
    validate,
    validate_expression,
)
from .session import Session

CONSTANT_NAMES = {KDELTA, DIM_SYMBOL}


def _substitute(expr: Expression, instance) -> Expression:
    """Splice ``instance(term, factor)`` in place of every factor it returns
    an expression for.

    Terms and factors are scanned in order; a term whose factor is replaced
    becomes the terms of ``rest * instance``, which are scanned next, depth
    first.  Returns ``expr`` itself when nothing is replaced.
    """
    out: list[Term] | None = None
    stack: list[Term] = []
    for ti, term in enumerate(expr.terms):
        stack.append(term)
        while stack:
            t = stack.pop()
            for fi, f in enumerate(t.factors):
                replacement = instance(t, f)
                if replacement is not None:
                    break
            else:
                if out is not None:
                    out.append(t)
                continue
            if out is None:
                out = list(expr.terms[:ti])
            rest = Term(t.coeff, t.factors[:fi] + t.factors[fi + 1:])
            stack.extend(reversed(mul(Expression((rest,)), replacement).terms))
    return expr if out is None else Expression(tuple(out))


def expand_components(session: Session, expr: Expression) -> Expression:
    """Substitute active component definitions into every matching factor.

    A factor matches when its name and slot variance pattern agree with the
    stored signature; its indices replace the signature's, definition dummies
    are freshened per occurrence, and any derivative slots on the occurrence
    are applied to the substituted definition afterwards.
    """
    if not session.components:
        return expr

    def instance(t: Term, f) -> Expression | None:
        if not isinstance(f, Factor):
            return None
        cdef = session.components.get(f.name)
        if cdef is None:
            return None
        if f.variance_pattern() != cdef.signature.variance_pattern():
            return None
        floor = max(max_dummy_number(t), max_dummy_number(cdef.definition))
        fresh = Expression(
            tuple(
                rename_term_dummies(d, floor + 1)
                for d in cdef.definition.terms
            )
        )
        mapping = {
            sig_lbl: occ_lbl
            for (sig_lbl, _), (occ_lbl, _) in zip(cdef.signature.slots, f.slots)
        }
        result = map_labels(fresh, mapping)
        for d in f.derivs:
            result = idiff(result, d)
        return result

    return _substitute(expr, instance)


def _avoid_dummy(expr: Expression, label: str) -> Expression:
    """Rename dummies in terms where ``label`` is already a dummy pair."""
    if not any(label in t.indices.dummies for t in expr.terms):
        return expr
    start = int(label[1:]) + 1 if is_dummy_label(label) else 1
    return Expression(tuple(rename_term_dummies(t, start) for t in expr.terms))


def idiff(expr: Expression, index: str) -> Expression:
    """Ordinary index derivative, Leibniz over every factor of every term.

    Each factor contributes a copy of the term with ``index`` appended to its
    derivative slots; rational coefficients and constant tensors (the
    Kronecker delta, the dimension symbol) differentiate to zero.
    """
    expr = _avoid_dummy(expr, index)
    out: list[Term] = []
    for t in expr.terms:
        for pos, f in enumerate(t.factors):
            if isinstance(f, InertDeriv):
                raise InertOperatorError(
                    "cannot apply an ordinary derivative to an inert "
                    "covariant derivative"
                )
            if f.name in CONSTANT_NAMES:
                continue
            bumped = Factor(f.name, f.slots, f.derivs + (index,))
            factors = t.factors[:pos] + (bumped,) + t.factors[pos + 1:]
            out.append(validate(Term(t.coeff, factors)))
    result = Expression(tuple(out))
    validate_expression(result)
    return result


def christoffel(session: Session, i: str, j: str, k: str) -> Expression:
    """Connection coefficients from the metric:
    half g^{k s} (g_{i s,j} + g_{j s,i} - g_{i j,s}) with a fresh dummy s."""
    if session.metric is None:
        raise NoMetricError("christoffel symbols need a configured metric")
    g = session.metric
    floor = max([int(l[1:]) for l in (i, j, k) if is_dummy_label(l)] + [0])
    s = dummy_label(floor + 1)
    up = Factor(g, ((k, True), (s, True)))
    half = Fraction(1, 2)
    terms = (
        Term(half, (up, Factor(g, ((i, False), (s, False)), (j,)))),
        Term(half, (up, Factor(g, ((j, False), (s, False)), (i,)))),
        Term(-half, (up, Factor(g, ((i, False), (j, False)), (s,)))),
    )
    return validate_expression(Expression(terms))


def _gamma_factor(i: str, low: str, high: str) -> Factor:
    """The opaque connection factor with upper index ``high``."""
    return Factor(CHRISTOFFEL, ((i, False), (low, False), (high, True)))


def covdiff(session: Session, expr: Expression, index: str,
            mode: str = "inert") -> Expression:
    """Covariant derivative.

    Inert mode wraps each term's monomial without resolving the connection,
    at most ``MAX_DEPTH`` wrappers deep; expanded mode produces the ordinary
    derivative plus one connection correction per index position, with a
    fresh dummy for each correction.
    """
    if mode == "inert":
        if any(inert_depth(t.factors) >= MAX_DEPTH for t in expr.terms):
            raise SemanticError(f"inert derivatives nested too deeply "
                                f"(over {MAX_DEPTH} levels)")
        expr = _avoid_dummy(expr, index)
        out = [
            Term(t.coeff, (InertDeriv(t.factors, index),))
            for t in expr.terms
            if t.factors
        ]
        result = Expression(tuple(out))
        validate_expression(result)
        return result
    if mode != "expanded":
        raise SemanticError(f"unknown covdiff mode {mode!r}")
    if session.metric is None:
        raise NoMetricError("expanded covariant derivatives need a metric")

    expr = _avoid_dummy(expr, index)
    floor = int(index[1:]) if is_dummy_label(index) else 0
    pieces = [idiff(expr, index)]
    for t in expr.terms:
        d = dummy_label(max(t.indices.top, floor) + 1)  # each correction's dummy
        for pos, f in enumerate(t.factors):
            if isinstance(f, InertDeriv):
                raise InertOperatorError(
                    "cannot expand a covariant derivative through an inert one"
                )
            if f.name in CONSTANT_NAMES:
                continue
            for sp, (lbl, up) in enumerate(f.slots):
                slots = f.slots[:sp] + ((d, up),) + f.slots[sp + 1:]
                shifted = Factor(f.name, slots, f.derivs)
                if up:
                    gamma = _gamma_factor(index, d, lbl)
                    sign = 1
                else:
                    gamma = _gamma_factor(index, lbl, d)
                    sign = -1
                factors = t.factors[:pos] + (shifted,) + t.factors[pos + 1:]
                pieces.append(ex(Term(t.coeff * sign, factors + (gamma,))))
            for dp, dlbl in enumerate(f.derivs):
                derivs = f.derivs[:dp] + (d,) + f.derivs[dp + 1:]
                shifted = Factor(f.name, f.slots, derivs)
                gamma = _gamma_factor(index, dlbl, d)
                factors = t.factors[:pos] + (shifted,) + t.factors[pos + 1:]
                pieces.append(ex(Term(-t.coeff, factors + (gamma,))))
    return add(*pieces)


def mapcovdiff(session: Session, expr: Expression, index: str) -> Expression:
    """Term-wise inert covariant derivative."""
    return covdiff(session, expr, index, mode="inert")


def expand_christoffels(session: Session, expr: Expression) -> Expression:
    """Substitute every connection factor by its metric expansion."""

    def instance(t: Term, f) -> Expression | None:
        if not (isinstance(f, Factor) and f.name == CHRISTOFFEL):
            return None
        if f.derivs or f.variance_pattern() != (False, False, True):
            raise SemanticError("only plain connection factors can be expanded")
        return christoffel(session, f.slots[0][0], f.slots[1][0], f.slots[2][0])

    return _substitute(expr, instance)


def extdiff(session: Session, expr: Expression, index: str) -> Expression:
    """Exterior derivative with respect to a new index.

    The argument must be totally antisymmetric in its free indices, which
    all have to sit in covariant positions; active component definitions are
    substituted first so objects defined as exterior derivatives qualify
    before any symmetry is declared.  The unnormalized convention produces
    the plain alternating sum; the halved convention divides by the new
    form degree.
    """
    session.extdiff_used = True
    e = expand_components(session, expr)
    e = _avoid_dummy(e, index)
    if e.is_zero():
        return ZERO
    frees = free_indices(e)
    if index in {lbl for lbl, _ in frees}:
        raise ValidationError(
            f"exterior derivative index {index!r} already occurs free"
        )
    if any(up for _, up in frees):
        raise NotAntisymmetricError(
            "exterior derivatives need purely covariant free indices"
        )
    labels = sorted((lbl for lbl, _ in frees), key=label_sort_key)
    p = len(labels)
    if p == 0:
        result = idiff(e, index)
    elif p == 1:
        m = labels[0]
        result = add(
            idiff(map_labels(e, {m: index}), m),
            scale(idiff(e, index), -1),
        )
    elif p == 2:
        m, n = labels
        swapped = map_labels(e, {m: n, n: m})
        if not canform(session, add(e, swapped)).is_zero():
            raise NotAntisymmetricError(
                "argument is not antisymmetric in its free indices"
            )
        result = add(
            idiff(e, index),
            idiff(map_labels(e, {m: n, n: index}), m),
            idiff(map_labels(e, {m: index, n: m}), n),
        )
    else:
        raise SemanticError("exterior derivatives beyond rank 2 are not supported")
    if not session.geowedge:
        result = scale(result, Fraction(1, p + 1))
    return result


def fdiff(session: Session, expr: Expression, target: Factor) -> Expression:
    """Functional derivative with respect to a field or field gradient.

    The target is treated as an independent variable: an occurrence matches
    only when name, slot variance pattern, and derivative order agree, and a
    match is replaced by Kronecker deltas pairing each occurrence index with
    the corresponding raised or lowered target index.  Derivative indices
    pair in sorted order since partials commute.  Everything else is a
    constant.
    """
    t_labels = [lbl for lbl, _ in target.slots] + list(target.derivs)
    if len(set(t_labels)) != len(t_labels):
        raise PatternIndexCollisionError("target indices must be distinct")
    frees = {lbl for lbl, _ in free_indices(expr)}
    clash = frees.intersection(t_labels)
    if clash:
        raise PatternIndexCollisionError(
            f"target indices {sorted(clash)} occur free in the expression"
        )
    if any(lbl in t.indices.dummies for lbl in t_labels for t in expr.terms):
        expr = Expression(tuple(rename_term_dummies(t) for t in expr.terms))

    out: list[Term] = []
    for t in expr.terms:
        for pos, f in enumerate(t.factors):
            if not isinstance(f, Factor):
                continue
            if f.name != target.name:
                continue
            if f.variance_pattern() != target.variance_pattern():
                continue
            if len(f.derivs) != len(target.derivs):
                continue
            deltas = []
            for (t_lbl, up), (o_lbl, _) in zip(target.slots, f.slots):
                if up:
                    deltas.append(Factor(KDELTA, ((t_lbl, False), (o_lbl, True))))
                else:
                    deltas.append(Factor(KDELTA, ((o_lbl, False), (t_lbl, True))))
            for t_d, o_d in zip(
                sorted(target.derivs, key=label_sort_key),
                sorted(f.derivs, key=label_sort_key),
            ):
                deltas.append(Factor(KDELTA, ((o_d, False), (t_d, True))))
            factors = t.factors[:pos] + t.factors[pos + 1:] + tuple(deltas)
            out.append(validate(Term(t.coeff, factors)))
    result = Expression(tuple(out))
    validate_expression(result)
    return result
