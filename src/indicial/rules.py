"""Pattern-matching rewrite rules and component definitions."""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import permutations, product
from math import prod

from .algebra import arrangements, canform, canonical_term
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
    coarse_key,
    free_indices,
    iter_positions,
    map_labels,
    mul,
    quotient,
    rational,
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


def _pattern_arrangements(session: Session, pattern_term: Term):
    """Each combination of the pattern factors' signed ``arrangements``, the
    factors in canonical order.  ``_match_subsets`` tries every factor order
    of the subject, so other orders of the pattern would repeat matches."""
    factors = sorted(pattern_term.factors,
                     key=lambda f: (coarse_key(f), structural_key(f)))
    return [(tuple(a for a, _ in combo), prod(s for _, s in combo))
            for combo in product(*(arrangements(session, f) for f in factors))]


def _pattern_matches(t: Term, pattern_term: Term, variants, metavars):
    """Yield (ratio, binding, rest) for every embedding into ``t`` of one of
    the pattern term's signed arrangements ``variants``, so that a
    canonicalized subject still matches."""
    for p_factors, p_sign in variants:
        for binding, rest in _match_subsets(t.factors, p_factors, metavars):
            yield quotient(t.coeff, pattern_term.coeff * p_sign), binding, rest


class _CanonicalSum:
    """A canonical expression kept as structural key -> term, with the keys
    in sorted order: the buckets ``canform`` collects.

    A rewrite replaces the terms under one or two keys by the terms the rule
    produces; only those go through ``canform`` and are merged.  This equals
    canonicalizing the whole rewritten expression because ``canonical_term``
    returns every canonical term unchanged.
    """

    def __init__(self, expr: Expression):
        self.terms = {structural_key(t): t for t in expr.terms}
        self.keys = list(self.terms)  # canform's output is sorted by key

    def expression(self) -> Expression:
        return Expression(tuple(self.terms[k] for k in self.keys))

    def replace(self, session: Session, removed, produced: Expression) -> bool:
        """Replace the terms under the ``removed`` keys by ``produced``, a
        product from ``mul`` (valid terms that share their free indices).

        Returns False and changes nothing when the canonical form stays the
        same, or when the remaining terms have other free indices than the
        produced ones, which would make the sum invalid.
        """
        kept = next((k for k in self.keys if k not in removed), None)
        if (produced.terms and kept is not None
                and produced.terms[0].indices.free != self.terms[kept].indices.free):
            return False
        updates = dict.fromkeys(removed)  # key -> its new term; None: no term
        for t in canform(session, produced).terms:  # one term per key
            key = structural_key(t)
            old = None if key in updates else self.terms.get(key)
            updates[key] = t if old is None else Term(rational(old.coeff + t.coeff),
                                                      t.factors)
        changed = False
        for key, t in updates.items():
            old = self.terms.get(key)
            coeff = t.coeff if t is not None else 0
            if coeff == (old.coeff if old is not None else 0):
                continue
            changed = True
            if coeff == 0:
                del self.terms[key]
                del self.keys[bisect_left(self.keys, key)]
            else:
                if old is None:
                    insort(self.keys, key)
                self.terms[key] = t
        return changed


def _rewrite_once(session: Session, current: _CanonicalSum,
                  rule: RewriteRule, variants) -> bool:
    """Apply the first rewrite that changes the canonical form, scanning the
    terms in canonical order; False when the rule is at a fixpoint."""
    pattern = rule.pattern.terms
    p1 = pattern[0]
    for key in current.keys:
        t = current.terms[key]
        for ratio, binding, rest in _pattern_matches(
            t, p1, variants, rule.metavars
        ):
            removed = (key,)
            if len(pattern) == 2:
                p2 = pattern[1]
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
                partner_key, rep = canon
                u = current.terms.get(partner_key)
                if partner_key == key or u is None or u.coeff != rep.coeff:
                    continue
                removed = (key, partner_key)
            try:
                produced = mul(
                    Expression((Term(ratio, rest),)),
                    map_labels(rule.replacement, binding) if binding
                    else rule.replacement,
                )
            except ValidationError:
                continue
            if current.replace(session, removed, produced):
                return True
    return False


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
    current = _CanonicalSum(canform(session, expr))
    variants = _pattern_arrangements(session, rule.pattern.terms[0])
    for _ in range(ITERATION_CAP):
        if not _rewrite_once(session, current, rule, variants):
            return current.expression()
    raise IterationCapError(f"rule {rule.name!r} did not reach a fixpoint")
