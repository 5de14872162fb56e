"""Pattern-matching rewrite rules and component definitions."""

from __future__ import annotations

from itertools import permutations, product
from math import prod

from .algebra import CanonicalSum, arrangements, canform, canonical_term
from .errors import (
    IterationCapError,
    MixedFreeIndicesError,
    ProductSizeError,
    SemanticError,
    SignatureMismatchError,
    UnboundMetavariableError,
    ValidationError,
)
from .exprs import (
    PRODUCT_CAP,
    Expression,
    Factor,
    FactorLike,
    InertDeriv,
    Term,
    coarse_key,
    free_indices,
    map_labels,
    mul,
    positions,
    quotient,
    structural_key,
    validate,
    validate_expression,
)
from .session import ComponentDef, RewriteRule, Session, matching_definition

ITERATION_CAP = 10_000


def matchdeclare(session: Session, labels) -> None:
    """Register index labels as metavariables for later rule definitions."""
    session.metavars.update(labels)


def defrule(session: Session, name: str, pattern: Expression,
            replacement: Expression) -> RewriteRule:
    """Store a rewrite rule.  Pattern arguments are plain expressions, so
    anything operator-valued (an exterior derivative, say) has already been
    evaluated by the time the rule is recorded.  A replacement other than 0
    has its pattern's free indices, variances included, so that a rewrite
    keeps every sum it rewrites valid."""
    if len(pattern.terms) not in (1, 2):
        raise SemanticError("rule patterns must have one or two terms")
    validate_expression(pattern)
    validate_expression(replacement)
    pattern_labels = {lbl for t in pattern.terms for lbl in t.indices.variances}
    metavars = frozenset(session.metavars & pattern_labels)
    replacement_labels = {lbl for t in replacement.terms for lbl in t.indices.variances}
    unbound = (session.metavars & replacement_labels) - metavars
    if unbound:
        raise UnboundMetavariableError(
            f"replacement metavariables {sorted(unbound)} missing from pattern"
        )
    free, replaced = free_indices(pattern), free_indices(replacement)
    if replacement.terms and replaced != free:
        raise MixedFreeIndicesError(
            f"the replacement of rule {name!r} has free indices {sorted(replaced)},"
            f" its pattern {sorted(free)}")
    rule = RewriteRule(name, pattern, replacement, metavars)
    session.rules[name] = rule
    return rule


def _reaches(session: Session, signature: Factor, definition: Expression) -> bool:
    """Whether substituting ``definition`` for ``signature``, and in turn the
    active component definitions, reaches a factor ``signature`` matches, as
    ``calculus.expand_components`` matches it."""
    defs = {**session.components, signature.name: ComponentDef(signature, definition)}
    stack, seen = [definition], set()
    while stack:
        for f in [f for t in stack.pop().terms for f in t.factors]:
            cdef = matching_definition(defs, f)
            if cdef is not None and f.name not in seen:
                if f.name == signature.name:
                    return True
                seen.add(f.name)
                stack.append(cdef.definition)
    return False


def components(session: Session, signature: Factor, definition: Expression) -> None:
    """Attach a defining expression to a tensor name and slot signature.  A
    definition whose substitution would reach a factor it substitutes again
    is refused, so that expanding components always ends."""
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
    if _reaches(session, signature, definition):
        raise SemanticError(f"the definition of {signature.name!r} reaches"
                            f" {signature.name!r} again: a cyclic definition")
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
    """Whether ``s`` has the shape of ``p``, an inert body factor by factor in
    order, and its labels extend ``binding`` position by position."""
    if p.__class__ is InertDeriv:
        return (s.__class__ is InertDeriv and len(p.factors) == len(s.factors)
                and all(_match_factor(pf, sf, metavars, binding)
                        for pf, sf in zip(p.factors, s.factors))
                and _bind(p.index, s.index, metavars, binding))
    if coarse_key(p) != coarse_key(s):
        return False
    for (pl, _), (sl, _) in zip(positions(p), positions(s)):
        if not _bind(pl, sl, metavars, binding):
            return False
    return True


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


def _rewrite_once(session: Session, current: CanonicalSum,
                  rule: RewriteRule, variants) -> int | None:
    """Apply the first rewrite that changes the canonical form, scanning the
    terms in canonical order: the terms and factors of the products built,
    or None when the rule is at a fixpoint.  A rewrite merges the canonical
    form of its product in place of the terms under one or two keys, which
    equals canonicalizing the whole rewritten expression because
    ``canonical_term`` returns canonical terms unchanged."""
    pattern = rule.pattern.terms
    p1 = pattern[0]
    built = 0
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
            built += sum([1 + len(u.factors) for u in produced.terms])
            if current.merge(canform(session, produced).terms, removed):
                return built
    return None


def apply1(session: Session, expr: Expression, name: str) -> Expression:
    """Rewrite with the rule named ``name`` to a fixpoint (iteration cap
    10000), building at most ``PRODUCT_CAP`` terms and factors in the
    products of its rewrites.

    Matching operates on the canonical form: metavariables bind free or
    dummy indices position by position, respecting variance; two-term
    patterns match pairs of terms whose coefficients stand in the pattern's
    ratio and whose spectator factors agree up to relabeling.
    """
    rule = session.rules.get(name)
    if rule is None:
        raise SemanticError(f"no rule named {name!r}")
    current = CanonicalSum(canform(session, expr))
    variants = _pattern_arrangements(session, rule.pattern.terms[0])
    built = 0
    for _ in range(ITERATION_CAP):
        size = _rewrite_once(session, current, rule, variants)
        if size is None:
            return current.expression()
        built += size
        if built > PRODUCT_CAP:
            raise ProductSizeError(f"rule {rule.name!r} built over {PRODUCT_CAP}"
                                   " terms and factors without reaching a fixpoint")
    raise IterationCapError(f"rule {rule.name!r} did not reach a fixpoint")
