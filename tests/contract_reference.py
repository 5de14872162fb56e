"""The contraction loop that ``algebra.contract`` replaced, kept verbatim as
the differential oracle for the step finder.

Three scans run in turn until none changes the term: Kronecker deltas (a
trace, else absorption of slot 0 and then slot 1 into the first other factor
that holds the opposite position), metric-metric pairs, and metric raising
or lowering against plain factor slots; each restarts from the first factor
after a step.  Contractions inside inert bodies run last.
"""

from fractions import Fraction

from indicial.algebra import _is_kdelta, _is_metric
from indicial.exprs import (
    DIM_SYMBOL,
    KDELTA,
    Expression,
    Factor,
    FactorLike,
    InertDeriv,
    Term,
)
from indicial.session import Session


def _replace_first_position(f: FactorLike, label: str, up: bool,
                            new_label: str, new_up: bool):
    """Replace the first position matching (label, up); None if absent."""
    if isinstance(f, Factor):
        for i, (lbl, u) in enumerate(f.slots):
            if lbl == label and u == up:
                slots = f.slots[:i] + ((new_label, new_up),) + f.slots[i + 1:]
                return Factor(f.name, slots, f.derivs)
        if not up:
            for i, d in enumerate(f.derivs):
                if d == label:
                    if new_up:
                        return None  # derivative slots stay covariant
                    derivs = f.derivs[:i] + (new_label,) + f.derivs[i + 1:]
                    return Factor(f.name, f.slots, derivs)
        return None
    for i, g in enumerate(f.factors):
        replaced = _replace_first_position(g, label, up, new_label, new_up)
        if replaced is not None:
            return InertDeriv(
                f.factors[:i] + (replaced,) + f.factors[i + 1:], f.index
            )
    if not up and f.index == label:
        if new_up:
            return None
        return InertDeriv(f.factors, new_label)
    return None


def _apply_dim(session: Session, coeff: Fraction, factors: list) -> Fraction:
    if session.dimension is not None:
        return coeff * session.dimension
    factors.append(Factor(DIM_SYMBOL))
    return coeff


def _contract_level(session: Session, factors: list[FactorLike],
                    coeff: Fraction) -> tuple[list[FactorLike], Fraction]:
    changed = True
    while changed:
        changed = False

        # Kronecker delta: trace, then absorption into any slot.
        for i, f in enumerate(factors):
            if not _is_kdelta(f):
                continue
            (l0, u0), (l1, u1) = f.slots
            if l0 == l1 and u0 != u1:
                del factors[i]
                coeff = _apply_dim(session, coeff, factors)
                changed = True
                break
            for (lbl, up), other in (((l0, u0), l1), ((l1, u1), l0)):
                hit = None
                for j, g in enumerate(factors):
                    if j == i:
                        continue
                    replaced = _replace_first_position(g, lbl, not up, other, not up)
                    if replaced is not None:
                        hit = (j, replaced)
                        break
                if hit is not None:
                    j, replaced = hit
                    factors[j] = replaced
                    del factors[i]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue

        # Metric-metric: full contraction to the dimension, else to a delta.
        metric_ids = [i for i, f in enumerate(factors) if _is_metric(session, f)]
        for ai in range(len(metric_ids)):
            for bi in range(ai + 1, len(metric_ids)):
                i, j = metric_ids[ai], metric_ids[bi]
                f, g = factors[i], factors[j]
                if f.slots[0][1] == g.slots[0][1]:
                    continue  # need one raised and one lowered copy
                fl = {lbl for lbl, _ in f.slots}
                gl = {lbl for lbl, _ in g.slots}
                shared = fl & gl
                if len(shared) == 2:
                    for k in sorted((i, j), reverse=True):
                        del factors[k]
                    coeff = _apply_dim(session, coeff, factors)
                    changed = True
                elif len(shared) == 1:
                    rest_f = next(s for s in f.slots if s[0] not in shared)
                    rest_g = next(s for s in g.slots if s[0] not in shared)
                    down = rest_f if not rest_f[1] else rest_g
                    up = rest_f if rest_f[1] else rest_g
                    for k in sorted((i, j), reverse=True):
                        del factors[k]
                    factors.append(Factor(KDELTA, (down, up)))
                    changed = True
                if changed:
                    break
            if changed:
                break
        if changed:
            continue

        # Metric raising/lowering against a plain factor slot.
        for i in metric_ids:
            f = factors[i]
            for (lbl, up), (other, _) in (
                (f.slots[0], f.slots[1]),
                (f.slots[1], f.slots[0]),
            ):
                for j, g in enumerate(factors):
                    if j == i or not isinstance(g, Factor):
                        continue
                    if _is_metric(session, g):
                        continue
                    for k, (slbl, sup) in enumerate(g.slots):
                        if slbl == lbl and sup != up:
                            slots = g.slots[:k] + ((other, up),) + g.slots[k + 1:]
                            factors[j] = Factor(g.name, slots, g.derivs)
                            del factors[i]
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
            if changed:
                break
        if changed:
            continue

    # Contractions wholly inside inert bodies.
    for i, f in enumerate(factors):
        if isinstance(f, InertDeriv):
            body, coeff = _contract_level(session, list(f.factors), coeff)
            factors[i] = InertDeriv(tuple(body), f.index)
    return factors, coeff


def contract(session: Session, expr: Expression) -> Expression:
    """Apply metric and Kronecker-delta contractions to a fixpoint."""
    out = []
    for t in expr.terms:
        factors, coeff = _contract_level(session, list(t.factors), t.coeff)
        if coeff != 0:
            out.append(Term(coeff, tuple(factors)))
    return Expression(tuple(out))
