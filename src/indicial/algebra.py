"""Algebraic passes: expansion, metric/Kronecker contraction, canonical form.

A term's rearrangements reorder its factors within groups of equal
label-free shape (``coarse_key``), crossed with each factor's signed
``arrangements``: declared symmetry blocks whose slots share a variance,
commuting derivative indices, and for an inert derivative its body.  With
dummies renamed in first-occurrence order the least ``structural_key`` is
canonical; ``canonical_term`` finds it by a depth-first search that keeps
only the least key prefix, as Butler-Portugal canonicalization does.

Open limitation: the metric is not in the group.  No dummy pair swaps its
upper and lower slots and a block of mixed variance is not applied, so the
vanishing ``F_a^b F_b^c F_c^a`` (``F`` antisymmetric) stays non-zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, groupby, islice, permutations, product
from math import prod

from .errors import CanformSizeError, ConflictingDeclarationError, SemanticError
from .exprs import (
    DIM_SYMBOL,
    Expression,
    Factor,
    FactorLike,
    InertDeriv,
    KDELTA,
    Term,
    coarse_key,
    iter_positions,
    label_sort_key,
    rational,
    rename_term_dummies,
    structural_key,
    validate_expression,
)
from .session import Session, SymmetryBlock

SEARCH_CAP = 100_000


def expand(session: Session, expr: Expression) -> Expression:
    """Distribute products over sums.

    Construction already keeps expressions as flat term lists with per-copy
    dummy freshening, so this validates and returns the input; it exists so
    simplification pipelines can be written in the conventional order.
    """
    return validate_expression(expr)


def decsym(session: Session, name: str, cov_arity: int, contra_arity: int,
           cov_blocks, contra_blocks) -> None:
    """Record permutation symmetries of ``name`` over its index positions.

    Block positions are 1-based within their variance class, ``all`` meaning
    the whole class.  Positions are stored as absolute slot offsets and apply
    to any occurrence whose slots at those offsets share a variance, so a
    declaration over contravariant slots also covers the fully lowered form.
    """
    rank = cov_arity + contra_arity
    session.register_arity(name, rank)

    def build(specs, offset, size):
        blocks = []
        for kind, items in specs:
            if kind not in ("sym", "anti"):
                raise SemanticError(f"unknown symmetry kind {kind!r}")
            if items == "all":
                positions = tuple(range(offset, offset + size))
            else:
                for i in items:
                    if not 1 <= i <= size:
                        raise SemanticError(
                            f"symmetry position {i} outside arity {size}"
                        )
                positions = tuple(offset + i - 1 for i in items)
            if len(set(positions)) != len(positions):
                raise ConflictingDeclarationError(
                    f"repeated position in symmetry block for {name!r}"
                )
            if len(positions) >= 2:
                blocks.append(SymmetryBlock(kind, positions))
        return blocks

    blocks = tuple(
        build(cov_blocks, 0, cov_arity) + build(contra_blocks, cov_arity, contra_arity)
    )
    used = [p for b in blocks for p in b.positions]
    if len(set(used)) != len(used):
        raise ConflictingDeclarationError(
            f"overlapping symmetry blocks declared for {name!r}"
        )
    existing = session.symmetries.get(name)
    if existing is not None and existing != blocks:
        raise ConflictingDeclarationError(
            f"{name!r} already carries a different symmetry declaration"
        )
    session.symmetries[name] = blocks


# ---------------------------------------------------------------------------
# contraction


def _is_metric(session: Session, f: FactorLike) -> bool:
    return (
        isinstance(f, Factor)
        and f.name == session.metric
        and f.rank == 2
        and not f.derivs
        and f.slots[0][1] == f.slots[1][1]
    )


def _is_kdelta(f: FactorLike) -> bool:
    return isinstance(f, Factor) and f.name == KDELTA and f.rank == 2


def _replace_first_position(f: FactorLike, label: str, up: bool, new_label: str):
    """Relabel the first position matching (label, up); None if absent."""
    if isinstance(f, Factor):
        for i, (lbl, u) in enumerate(f.slots):
            if lbl == label and u == up:
                slots = f.slots[:i] + ((new_label, up),) + f.slots[i + 1:]
                return Factor(f.name, slots, f.derivs)
        if not up and label in f.derivs:
            i = f.derivs.index(label)
            derivs = f.derivs[:i] + (new_label,) + f.derivs[i + 1:]
            return Factor(f.name, f.slots, derivs)
        return None
    for i, g in enumerate(f.factors):
        replaced = _replace_first_position(g, label, up, new_label)
        if replaced is not None:
            return InertDeriv(f.factors[:i] + (replaced,) + f.factors[i + 1:], f.index)
    if not up and f.index == label:
        return InertDeriv(f.factors, new_label)
    return None


def _edited(factors: list, drop, j: int | None = None, new=None) -> list:
    """``factors`` with ``factors[j]`` replaced by ``new`` and the positions
    in ``drop`` removed."""
    return [new if k == j else f for k, f in enumerate(factors) if k not in drop]


def _contraction_step(session: Session, factors: list):
    """The first applicable contraction step: (``factors`` after it, whether
    it traced out the dimension), or None when no step applies."""
    for i, f in enumerate(factors):
        if not _is_kdelta(f):
            continue
        (l0, u0), (l1, u1) = f.slots
        if l0 == l1 and u0 != u1:
            return _edited(factors, (i,)), True
        for lbl, up, other in ((l0, u0, l1), (l1, u1, l0)):
            for j, g in enumerate(factors):
                if j != i:
                    replaced = _replace_first_position(g, lbl, not up, other)
                    if replaced is not None:
                        return _edited(factors, (i,), j, replaced), False
    metrics = [i for i, f in enumerate(factors) if _is_metric(session, f)]
    for i, j in combinations(metrics, 2):
        f, g = factors[i], factors[j]
        if f.slots[0][1] == g.slots[0][1]:
            continue  # need one raised and one lowered copy
        shared = {lbl for lbl, _ in f.slots} & {lbl for lbl, _ in g.slots}
        if len(shared) == 2:
            return _edited(factors, (i, j)), True
        if len(shared) == 1:
            rest_f = next(s for s in f.slots if s[0] not in shared)
            rest_g = next(s for s in g.slots if s[0] not in shared)
            down, up = (rest_g, rest_f) if rest_f[1] else (rest_f, rest_g)
            return _edited(factors, (i, j)) + [Factor(KDELTA, (down, up))], False
    for i in metrics:
        slots = factors[i].slots
        for (lbl, up), (other, _) in ((slots[0], slots[1]), (slots[1], slots[0])):
            for j, g in enumerate(factors):
                if j == i or not isinstance(g, Factor) or _is_metric(session, g):
                    continue
                for k, (slbl, sup) in enumerate(g.slots):
                    if slbl == lbl and sup != up:
                        moved = g.slots[:k] + ((other, up),) + g.slots[k + 1:]
                        new = Factor(g.name, moved, g.derivs)
                        return _edited(factors, (i,), j, new), False
    return None


def _apply_dim(session: Session, coeff: Fraction, factors: list) -> Fraction:
    if session.dimension is not None:
        return coeff * session.dimension
    factors.append(Factor(DIM_SYMBOL))
    return coeff


def _contract_level(session: Session, factors: list[FactorLike],
                    coeff: Fraction) -> tuple[list[FactorLike], Fraction]:
    while (step := _contraction_step(session, factors)) is not None:
        factors, traced = step
        if traced:
            coeff = _apply_dim(session, coeff, factors)
    for i, f in enumerate(factors):
        if isinstance(f, InertDeriv):
            body, coeff = _contract_level(session, list(f.factors), coeff)
            if not coeff or all(g == Factor(DIM_SYMBOL) for g in body):
                return [], 0  # the derivative of a constant
            factors[i] = InertDeriv(tuple(body), f.index)
    return factors, coeff


def contract(session: Session, expr: Expression) -> Expression:
    """Apply metric and Kronecker-delta contractions to a fixpoint.

    Each step is the first that applies, in this order: a Kronecker delta,
    in factor order, is traced, or else its slot 0 and then its slot 1 is
    absorbed into the first other factor holding the opposite position;
    then a raised and a lowered metric sharing labels contract, pairs in
    index order; then a metric raises or lowers a slot of a plain,
    non-metric factor.  Contractions inside inert bodies run last; a body
    left with no factor but the dimension makes the term zero, as the
    covariant derivative of a constant.
    """
    out = []
    for t in expr.terms:
        factors, coeff = _contract_level(session, list(t.factors), t.coeff)
        if coeff != 0:
            out.append(Term(coeff, tuple(factors)))
    return Expression(tuple(out))


# ---------------------------------------------------------------------------
# canonical form


def _perm_sign(perm) -> int:
    """+1 for an even permutation of 0..n-1, -1 for an odd one."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _distinct_orders(items):
    """The distinct orders of ``items``, lexicographic in structural keys."""
    if not items:
        yield ()
    for first in sorted(set(items), key=structural_key):
        rest = list(items)
        rest.remove(first)
        for order in _distinct_orders(rest):
            yield (first,) + order


def _listed(items) -> list:
    """``items`` as a list, or ``CanformSizeError`` past ``SEARCH_CAP`` of
    them: the search weighs each arrangement of a factor it places."""
    items = list(islice(items, SEARCH_CAP + 1))
    if len(items) > SEARCH_CAP:
        raise CanformSizeError(f"a factor has over {SEARCH_CAP} arrangements")
    return items


def _coarse_groups(factors) -> list[tuple[FactorLike, ...]]:
    """Runs of equal label-free shape, in shape order; stable within a run."""
    return [tuple(g) for _, g in groupby(sorted(factors, key=coarse_key),
                                         key=coarse_key)]


def arrangements(session: Session, f: FactorLike):
    """Yield the signed rearrangements of one factor, in a fixed order.

    A plain factor permutes the labels of each declared block whose slots
    share a variance (the first block varies slowest), then its derivative
    indices.  An inert derivative takes each distinct order of its body
    within the body's coarse groups, crossed with each body factor's.
    """
    if isinstance(f, InertDeriv):
        groups = _coarse_groups(f.factors)
        for order in product(*(_listed(_distinct_orders(g)) for g in groups)):
            body = [g for group in order for g in group]
            for combo in product(*(_listed(arrangements(session, g)) for g in body)):
                sign = prod(s for _, s in combo)
                yield InertDeriv(tuple(a for a, _ in combo), f.index), sign
        return
    blocks = [b for b in session.blocks_for(f.name)
              if all(p < f.rank for p in b.positions)
              and len({f.slots[p][1] for p in b.positions}) == 1]
    choices = [_listed(permutations(range(len(b.positions)))) for b in blocks]
    for *perms, derivs in product(*choices, _listed(permutations(f.derivs))):
        slots = list(f.slots)
        sign = 1
        for block, perm in zip(blocks, perms):
            for pos, src in zip(block.positions, perm):
                slots[pos] = (f.slots[block.positions[src]][0], f.slots[pos][1])
            if block.kind == "anti":
                sign *= _perm_sign(perm)
        yield Factor(f.name, tuple(slots), derivs), sign


def _position_keys(f: FactorLike, dummies, numbering: dict):
    """``f``'s label keys after the dummies in ``numbering``; the ones it adds."""
    keys = []
    new: dict[str, int] = {}
    for lbl, _ in iter_positions(f):
        if lbl in dummies:
            n = numbering.get(lbl) or new.setdefault(lbl, len(numbering) + len(new) + 1)
            keys.append((1, n, ""))  # label_sort_key of the renamed dummy
        else:
            keys.append(label_sort_key(lbl))
    return tuple(keys), new


def canonical_term(session: Session, t: Term):
    """The least rearrangement of one term: (its ``structural_key``, the
    canonical Term), or None when the term is identically zero.

    Each position's factor shape is fixed, so keys compare label by label,
    and a factor's keys depend only on the factors before it.  Each step
    places an unplaced factor of the current coarse group, in one of its
    ``arrangements``, numbers the dummies it meets first, and keeps only the
    least choices.  Ties wait on a stack, searched depth first; a step whose
    least keys exceed the best branch's is dropped.  Completed branches are
    renamed by ``rename_term_dummies``.  One structure reached with both
    signs makes the term its own negative.  Raises ``CanformSizeError``
    after ``SEARCH_CAP`` weighed arrangements.
    """
    dummies = frozenset(t.indices.dummies)
    groups = _coarse_groups(t.factors)
    group_at = dict(zip(accumulate(map(len, groups), initial=0), groups))
    best: list[tuple] = []  # the least keys of each position so far
    found: dict[int, Term] = {}  # the first renamed leaf of each sign
    work = 0
    # (placed factors, unplaced factors of their group, numbering, sign)
    stack = [((), (), {}, 1)]
    while stack:
        placed, remaining, numbering, sign = stack.pop()
        depth = len(placed)
        if depth == len(t.factors):
            found.setdefault(sign, rename_term_dummies(Term(t.coeff * sign, placed)))
            if len(found) == 2:
                return None
            continue
        remaining = remaining or group_at[depth]
        least, ties = None, []
        for f in dict.fromkeys(remaining):  # identical factors: one branch
            for arranged, s in arrangements(session, f):
                work += 1
                if work > SEARCH_CAP:
                    raise CanformSizeError(f"canonicalizing a term of {len(t.factors)}"
                                           f" factors takes over {SEARCH_CAP} steps")
                keys, new = _position_keys(arranged, dummies, numbering)
                if least is None or keys < least:
                    least, ties = keys, []
                if keys == least:
                    ties.append((f, arranged, s, new))
        if depth < len(best) and least > best[depth]:
            continue
        if depth == len(best) or least < best[depth]:
            del best[depth:]
            best.append(least)
            found.clear()
        for f, arranged, s, new in reversed(ties):
            child = numbering if len(ties) == 1 else dict(numbering)
            child.update(new)
            rest = list(remaining)
            rest.remove(f)
            stack.append((placed + (arranged,), tuple(rest), child, sign * s))
    (canon,) = found.values()
    return structural_key(canon), canon


def canform(session: Session, expr: Expression) -> Expression:
    """Canonical form: deterministic representative of the expression class
    under dummy relabeling, commuting partials, and declared symmetries.

    Alpha-equivalent terms are collected and zero coefficients dropped, so
    canonical equality coincides with structural equality.
    """
    buckets: dict = {}
    for t in expr.terms:
        result = canonical_term(session, t)
        if result is None:
            continue
        key, canon = result
        if key in buckets:
            prev_coeff, prev = buckets[key]
            buckets[key] = (prev_coeff + canon.coeff, prev)
        else:
            buckets[key] = (canon.coeff, canon)
    terms = [
        rep if coeff == rep.coeff else Term(rational(coeff), rep.factors)
        for key, (coeff, rep) in sorted(buckets.items(), key=lambda kv: kv[0])
        if coeff != 0
    ]
    return Expression(tuple(terms))
