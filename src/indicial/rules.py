"""Pattern-matching rewrite rules and component definitions."""

from __future__ import annotations

from itertools import permutations

from .algebra import _level_variants, canform, canonical_term
from .errors import (
    IterationCapError,
    SemanticError,
    SignatureMismatchError,
    UnboundMetavariableError,
    ValidationError,
)
from .exprs import (
    Expression,
    Factor,
    FactorLike,
    InertDeriv,
    Term,
    free_indices,
    iter_positions,
    map_labels,
    mul,
    structural_key,
    validate,
    validate_expression,
)
from .session import ComponentDef, RewriteRule, Session

ITERATION_CAP = 10_000


def matchdeclare(session: Session, labels) -> None:
    """Register index labels as metavariables for later rule definitions."""
    session.metavars.update(labels)


def defrule(session: Session, name: str, pattern: Expression,
            replacement: Expression) -> RewriteRule:
    """Store a rewrite rule.  Pattern arguments are plain expressions, so
    anything operator-valued (an exterior derivative, say) has already been
    evaluated by the time the rule is recorded."""
    if len(pattern.terms) not in (1, 2):
        raise SemanticError("rule patterns must have one or two terms")
    validate_expression(pattern)
    validate_expression(replacement)
    pattern_labels = {lbl for lbl, _ in iter_positions(pattern)}
    metavars = frozenset(session.metavars & pattern_labels)
    replacement_labels = {lbl for lbl, _ in iter_positions(replacement)}
    unbound = (session.metavars & replacement_labels) - metavars
    if unbound:
        raise UnboundMetavariableError(
            f"replacement metavariables {sorted(unbound)} missing from pattern"
        )
    rule = RewriteRule(name, pattern, replacement, metavars)
    session.rules[name] = rule
    return rule


def components(session: Session, signature: Factor, definition: Expression) -> None:
    """Attach a defining expression to a tensor name and slot signature."""
    if signature.derivs:
        raise SignatureMismatchError("component signatures take no derivative slots")
    sig_slots = frozenset(signature.slots)
    if len(sig_slots) != signature.rank:
        raise SignatureMismatchError("signature indices must be distinct")
    validate_expression(definition)
    if free_indices(definition) != sig_slots:
        raise SignatureMismatchError(
            "free indices of the definition must match the signature slots"
        )
    session.register_arity(signature.name, signature.rank)
    session.components[signature.name] = ComponentDef(signature, definition)


def remcomps(session: Session, name: str) -> None:
    """Discard a component definition; the tensor is opaque afterwards."""
    if name not in session.components:
        raise SemanticError(f"{name!r} has no component definition")
    del session.components[name]


# ---------------------------------------------------------------------------
# matching


def _bind(pattern_label: str, subject_label: str, metavars: frozenset[str],
          binding: dict[str, str]) -> bool:
    if pattern_label in metavars:
        bound = binding.setdefault(pattern_label, subject_label)
        return bound == subject_label
    return pattern_label == subject_label


def _match_factor(p: FactorLike, s: FactorLike, metavars, binding) -> bool:
    if isinstance(p, Factor):
        if not isinstance(s, Factor):
            return False
        if p.name != s.name or p.variance_pattern() != s.variance_pattern():
            return False
        if len(p.derivs) != len(s.derivs):
            return False
        for (pl, _), (sl, _) in zip(p.slots, s.slots):
            if not _bind(pl, sl, metavars, binding):
                return False
        for pd, sd in zip(p.derivs, s.derivs):
            if not _bind(pd, sd, metavars, binding):
                return False
        return True
    if not isinstance(s, InertDeriv):
        return False
    if len(p.factors) != len(s.factors):
        return False
    for pf, sf in zip(p.factors, s.factors):
        if not _match_factor(pf, sf, metavars, binding):
            return False
    return _bind(p.index, s.index, metavars, binding)


def _match_subsets(factors: tuple[FactorLike, ...],
                   pattern_factors: tuple[FactorLike, ...], metavars):
    """Yield (binding, remaining factors) for each way the pattern's factor
    multiset embeds into the term's factors."""
    n, k = len(factors), len(pattern_factors)
    if k > n:
        return
    for chosen in permutations(range(n), k):
        binding: dict[str, str] = {}
        if all(
            _match_factor(pf, factors[ci], metavars, binding)
            for pf, ci in zip(pattern_factors, chosen)
        ):
            rest = tuple(f for i, f in enumerate(factors) if i not in chosen)
            yield binding, rest


def _rewrite_site(terms: tuple[Term, ...], ti: int, ratio, binding, rest,
                  rule: RewriteRule, removed: int | None):
    rest_expr = Expression((Term(ratio, rest),))
    produced = mul(rest_expr, map_labels(rule.replacement, binding))
    keep = [
        u for i, u in enumerate(terms) if i != ti and i != removed
    ]
    return Expression(tuple(keep) + produced.terms)


def _pattern_matches(session: Session, t: Term, pattern_term: Term, metavars):
    """Yield (ratio, binding, rest) for every embedding of the pattern term
    into ``t``, trying each signed symmetry arrangement of the pattern so a
    canonicalized subject still matches."""
    seen = set()
    for p_factors, p_sign in _level_variants(session, pattern_term.factors):
        if (p_factors, p_sign) in seen:
            continue
        seen.add((p_factors, p_sign))
        for binding, rest in _match_subsets(t.factors, p_factors, metavars):
            yield t.coeff / (pattern_term.coeff * p_sign), binding, rest


def _apply_once(session: Session, current: Expression, rule: RewriteRule):
    """Return the first rewrite that changes the expression, canonicalized,
    or None when the rule is at a fixpoint."""
    pattern = rule.pattern.terms
    if len(pattern) == 1:
        p1 = pattern[0]
        for ti, t in enumerate(current.terms):
            for ratio, binding, rest in _pattern_matches(
                session, t, p1, rule.metavars
            ):
                try:
                    candidate = _rewrite_site(
                        current.terms, ti, ratio, binding, rest, rule, None
                    )
                    candidate = canform(session, validate_expression(candidate))
                except ValidationError:
                    continue
                if candidate != current:
                    return candidate
        return None

    p1, p2 = pattern
    for ti, t in enumerate(current.terms):
        for ratio, binding, rest in _pattern_matches(
            session, t, p1, rule.metavars
        ):
            partner_factors = tuple(
                map_labels(f, binding) for f in p2.factors
            ) + rest
            try:
                partner = validate(Term(ratio * p2.coeff, partner_factors))
            except ValidationError:
                continue
            canon = canonical_term(session, partner)
            if canon is None:
                continue
            key, rep = canon
            for tj, u in enumerate(current.terms):
                if tj == ti:
                    continue
                if structural_key(u) == key and u.coeff == rep.coeff:
                    try:
                        candidate = _rewrite_site(
                            current.terms, ti, ratio, binding, rest, rule, tj
                        )
                        candidate = canform(session, validate_expression(candidate))
                    except ValidationError:
                        continue
                    if candidate != current:
                        return candidate
    return None


def apply1(session: Session, expr: Expression, rule) -> Expression:
    """Rewrite with one rule to a fixpoint (iteration cap 10000).

    Matching operates on the canonical form: metavariables bind free or
    dummy indices position by position, respecting variance; two-term
    patterns match pairs of terms whose coefficients stand in the pattern's
    ratio and whose spectator factors agree up to relabeling.
    """
    if isinstance(rule, str):
        if rule not in session.rules:
            raise SemanticError(f"no rule named {rule!r}")
        rule = session.rules[rule]
    current = canform(session, expr)
    for _ in range(ITERATION_CAP):
        new = _apply_once(session, current, rule)
        if new is None:
            return current
        current = new
    raise IterationCapError(f"rule {rule.name!r} did not reach a fixpoint")
