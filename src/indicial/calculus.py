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
    free_indices,
    fresh_dummy,
    freshen,
    inert_depth,
    label_sort_key,
    map_labels,
    mul,
    positions,
    scale,
    validate,
    validate_expression,
)
from .session import Session, matching_definition

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
    stored signature; its indices replace the signature's.  A dummy pair of
    the definition that clashes with one of those indices is freshened
    first; the product with the rest of the term freshens the pairs that
    clash there.  Any derivative slots on the occurrence are applied to the
    substituted definition afterwards.
    """
    if not session.components:
        return expr

    def instance(t: Term, f) -> Expression | None:
        cdef = matching_definition(session.components, f)
        if cdef is None:
            return None
        labels = [lbl for lbl, _ in f.slots]
        fresh = Expression(tuple(freshen(d, labels) for d in cdef.definition.terms))
        mapping = {sig_lbl: occ_lbl for (sig_lbl, _), occ_lbl
                   in zip(cdef.signature.slots, labels)}
        result = map_labels(fresh, mapping)
        for d in f.derivs:
            result = idiff(result, d)
        return result

    return _substitute(expr, instance)


def _product_rule(expr: Expression, labels, rule) -> Expression:
    """Differentiate ``expr`` by the derivation ``rule``, one factor at a time.

    ``rule(t, f)`` lists, for the factor ``f`` of the term ``t``, the terms
    it contributes as ``(sign, replacement, appended)``: ``t`` with ``f``
    replaced by the factors ``replacement``, the factors ``appended`` after
    its last factor, and its coefficient times ``sign`` (1 or -1).  Terms come
    out in term, factor and rule order.  ``labels`` are the labels the rule
    brings in; each term's dummy pairs that clash with them are freshened
    first.
    """
    out: list[Term] = []
    for t in expr.terms:
        t = freshen(t, labels)
        factors = t.factors
        for pos, f in enumerate(factors):
            for sign, replacement, appended in rule(t, f):
                coeff = t.coeff if sign == 1 else -t.coeff
                new = factors[:pos] + replacement + factors[pos + 1:] + appended
                out.append(validate(Term(coeff, new)))
    result = Expression(tuple(out))
    free_indices(result)
    return result


def idiff(expr: Expression, index: str) -> Expression:
    """Ordinary index derivative, Leibniz over every factor of every term.

    Each factor contributes a copy of the term with ``index`` appended to its
    derivative slots; rational coefficients and constant tensors (the
    Kronecker delta, the dimension symbol) differentiate to zero.
    """
    def rule(t: Term, f) -> tuple:
        if isinstance(f, InertDeriv):
            raise InertOperatorError(
                "cannot apply an ordinary derivative to an inert "
                "covariant derivative"
            )
        if f.name in CONSTANT_NAMES:
            return ()
        return ((1, (Factor(f.name, f.slots, f.derivs + (index,)),), ()),)

    return _product_rule(expr, (index,), rule)


def christoffel(session: Session, i: str, j: str, k: str) -> Expression:
    """Connection coefficients from the metric:
    half g^{k s} (g_{i s,j} + g_{j s,i} - g_{i j,s}) with a fresh dummy s."""
    if session.metric is None:
        raise NoMetricError("christoffel symbols need a configured metric")
    g = session.metric
    s = fresh_dummy(i, j, k)
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


def covdiff(session: Session, expr: Expression, index: str) -> Expression:
    """Expanded covariant derivative: the ordinary derivative plus one
    connection correction per index position, with a fresh dummy for each
    correction.  ``mapcovdiff`` is the inert one."""
    if session.metric is None:
        raise NoMetricError("expanded covariant derivatives need a metric")

    ordinary = idiff(expr, index)  # refuses inert factors

    def corrections(t: Term, f) -> list:
        if f.name in CONSTANT_NAMES:
            return []
        d = fresh_dummy(index, floor=t.indices.top)  # the correction's dummy
        out = []
        for sp, (lbl, up) in enumerate(f.slots):
            slots = f.slots[:sp] + ((d, up),) + f.slots[sp + 1:]
            low, high = (d, lbl) if up else (lbl, d)
            out.append((1 if up else -1, (Factor(f.name, slots, f.derivs),),
                        (_gamma_factor(index, low, high),)))
        for dp, dlbl in enumerate(f.derivs):
            derivs = f.derivs[:dp] + (d,) + f.derivs[dp + 1:]
            out.append((-1, (Factor(f.name, f.slots, derivs),),
                        (_gamma_factor(index, dlbl, d),)))
        return out

    corrected = _product_rule(expr, (index,), corrections)
    result = Expression(ordinary.terms + corrected.terms)
    free_indices(result)
    return result


def mapcovdiff(session: Session, expr: Expression, index: str) -> Expression:
    """Term-wise inert covariant derivative: wraps each term's monomial
    without resolving the connection, at most ``MAX_DEPTH`` wrappers deep."""
    if any(inert_depth(t.factors) >= MAX_DEPTH for t in expr.terms):
        raise SemanticError(f"inert derivatives nested too deeply "
                            f"(over {MAX_DEPTH} levels)")
    result = Expression(tuple(
        Term(t.coeff, (InertDeriv(freshen(t, (index,)).factors, index),))
        for t in expr.terms
        if t.factors
    ))
    validate_expression(result)
    return result


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
    e = Expression(tuple(freshen(t, (index,)) for t in e.terms))
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
    constant.  A dummy pair that clashes with a target index is renamed first.
    """
    t_labels = [lbl for lbl, _ in positions(target)]
    if len(set(t_labels)) != len(t_labels):
        raise PatternIndexCollisionError("target indices must be distinct")
    frees = {lbl for lbl, _ in free_indices(expr)}
    clash = frees.intersection(t_labels)
    if clash:
        raise PatternIndexCollisionError(
            f"target indices {sorted(clash)} occur free in the expression"
        )
    pattern = target.variance_pattern()
    target_derivs = sorted(target.derivs, key=label_sort_key)

    def rule(t: Term, f) -> tuple:
        if not isinstance(f, Factor) or f.name != target.name:
            return ()
        if f.variance_pattern() != pattern or len(f.derivs) != len(target_derivs):
            return ()
        deltas = []
        for (t_lbl, up), (o_lbl, _) in zip(target.slots, f.slots):
            if up:
                deltas.append(Factor(KDELTA, ((t_lbl, False), (o_lbl, True))))
            else:
                deltas.append(Factor(KDELTA, ((o_lbl, False), (t_lbl, True))))
        for t_d, o_d in zip(target_derivs, sorted(f.derivs, key=label_sort_key)):
            deltas.append(Factor(KDELTA, ((o_d, False), (t_d, True))))
        return ((1, (), tuple(deltas)),)

    return _product_rule(expr, t_labels, rule)
