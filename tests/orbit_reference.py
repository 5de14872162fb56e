"""The brute-force canonicalizer that ``algebra.canonical_term`` replaced,
kept as the differential oracle for the search and for rule matching.

It enumerates the whole rearrangement orbit of a term: reorderings of
factors that share a label-free shape, permutations of each factor's
ordinary derivative indices, and the label permutations of every declared
symmetry block (signed for antisymmetric blocks).  Each candidate has its
dummies renamed in first-occurrence order and the lexicographically least
structure wins; if the minimum is reached with both signs the term vanishes.
"""

from collections import Counter
from itertools import permutations, product
from math import factorial

from indicial.algebra import _perm_sign
from indicial.errors import CanformSizeError
from indicial.exprs import (
    Factor,
    InertDeriv,
    Term,
    coarse_key,
    rename_term_dummies,
    structural_key,
)
from indicial.rules import _match_subsets

CANDIDATE_CAP = factorial(10)


def _applicable_blocks(session, f):
    blocks = []
    for b in session.blocks_for(f.name):
        if any(p >= f.rank for p in b.positions):
            continue
        variances = {f.slots[p][1] for p in b.positions}
        if len(variances) == 1:
            blocks.append(b)
    return blocks


def _factor_variants(session, f):
    """All signed rearrangements of one factor-like object."""
    if isinstance(f, InertDeriv):
        return [
            (InertDeriv(body, f.index), sign)
            for body, sign in list(_level_variants(session, f.factors))
        ]
    options = [(f.slots, 1)]
    for block in _applicable_blocks(session, f):
        extended = []
        for slots, sign in options:
            labels = [slots[p][0] for p in block.positions]
            for perm in permutations(range(len(labels))):
                new_slots = list(slots)
                for pos, src in zip(block.positions, perm):
                    new_slots[pos] = (labels[src], slots[pos][1])
                psign = _perm_sign(perm) if block.kind == "anti" else 1
                extended.append((tuple(new_slots), sign * psign))
        options = extended
    variants = []
    for slots, sign in options:
        for dperm in permutations(f.derivs):
            variants.append((Factor(f.name, slots, dperm), sign))
    return variants


def _distinct_permutations(items, key):
    """Orderings of ``items`` that differ under ``key``; duplicates of
    structurally identical items are emitted once."""
    pool = sorted(items, key=key)

    def rec(remaining):
        if not remaining:
            yield ()
            return
        previous = None
        for i, item in enumerate(remaining):
            k = key(item)
            if previous is not None and k == previous:
                continue
            previous = k
            for rest in rec(remaining[:i] + remaining[i + 1:]):
                yield (item,) + rest

    yield from rec(pool)


def _level_variants(session, factors):
    """Signed arrangements of a factor tuple: orderings within equal-shape
    groups crossed with every per-factor variant."""
    order = sorted(range(len(factors)), key=lambda i: (coarse_key(factors[i]), i))
    groups = []
    for i in order:
        if groups and coarse_key(factors[groups[-1][0]]) == coarse_key(factors[i]):
            groups[-1].append(i)
        else:
            groups.append([i])

    def group_orders(g):
        return _distinct_permutations(g, key=lambda i: structural_key(factors[i]))

    for group_perm in product(*(group_orders(g) for g in groups)):
        arrangement = [i for g in group_perm for i in g]
        per_factor = [_factor_variants(session, factors[i]) for i in arrangement]
        for combo in product(*per_factor):
            fs = tuple(v for v, _ in combo)
            sign = 1
            for _, s in combo:
                sign *= s
            yield fs, sign


def _variant_count(session, f):
    if isinstance(f, InertDeriv):
        return _level_count(session, f.factors)
    n = factorial(len(f.derivs))
    for block in _applicable_blocks(session, f):
        n *= factorial(len(block.positions))
    return n


def _level_count(session, factors):
    n = 1
    groups = {}
    for f in factors:
        groups.setdefault(coarse_key(f), []).append(f)
    for members in groups.values():
        n *= factorial(len(members))
        for k in Counter(structural_key(f) for f in members).values():
            n //= factorial(k)
    for f in factors:
        n *= _variant_count(session, f)
    return n


def reference_canonical_term(session, t):
    """Minimize one term over its rearrangement orbit.

    Returns (key, canonical Term) or None when the orbit reaches the same
    structure with both signs, which forces the term to vanish.
    """
    count = _level_count(session, t.factors)
    if count > CANDIDATE_CAP:
        raise CanformSizeError(
            f"term needs {count} canonicalization candidates (cap {CANDIDATE_CAP})"
        )
    best_key = None
    best_term = None
    best_signs = set()
    for fs, sign in _level_variants(session, t.factors):
        candidate = rename_term_dummies(Term(t.coeff * sign, fs))
        key = structural_key(candidate)
        if best_key is None or key < best_key:
            best_key = key
            best_term = candidate
            best_signs = {sign}
        elif key == best_key:
            best_signs.add(sign)
    if len(best_signs) == 2:
        return None
    return best_key, best_term


def reference_matches(session, t, pattern_term, metavars):
    """Every embedding into ``t`` of every distinct point of the pattern's
    orbit, in enumeration order: the matches ``apply1`` tried before."""
    seen = set()
    for p_factors, p_sign in _level_variants(session, pattern_term.factors):
        if (p_factors, p_sign) in seen:
            continue
        seen.add((p_factors, p_sign))
        for binding, rest in _match_subsets(t.factors, p_factors, metavars):
            yield t.coeff / (pattern_term.coeff * p_sign), binding, rest
