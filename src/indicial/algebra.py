"""Algebraic passes: expansion, metric/Kronecker contraction, canonical form.

A term's rearrangements reorder its factors within groups of equal
label-free shape (``coarse_key``), crossed with each factor's signed
``arrangements``: declared symmetry blocks whose slots share a variance,
commuting derivative indices, and for an inert derivative its body.  A
plain factor's arrangements are label-free signed position orders, a table
computed once per factor shape (declared blocks, variance pattern, number of
derivatives), as Butler-Portugal canonicalization keeps its group as signed
permutations.  With dummies renamed in first-occurrence order the least
``structural_key`` is canonical; ``canonical_term`` finds it by a depth-first
search that keeps only the least key prefix and weighs each choice by
permuting label keys with a table's orders.  It computes each distinct
factor's shape (coarse key and table) once per term, and renames only the
winning leaf, once.  A term with no choice to make (each coarse group holds
copies of one factor with a one-entry table) skips the search.

This module alone collects canonical terms (``CanonicalSum``, for ``canform``
and ``rules.apply1``) and enumerates a declared symmetry (``_table``, for the
canonicalizer and for ``numeval``'s random draws).

Open limitation: the metric is not in the group.  No dummy pair swaps its
upper and lower slots and a block of mixed variance is not applied, so the
vanishing ``F_a^b F_b^c F_c^a`` (``F`` antisymmetric) stays non-zero.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import accumulate, combinations, groupby, islice, permutations, product
from math import factorial, prod

from .errors import CanformSizeError, ConflictingDeclarationError, SemanticError
from .exprs import (
    DIM_SYMBOL,
    Expression,
    Factor,
    FactorLike,
    InertDeriv,
    KDELTA,
    Term,
    ZERO,
    coarse_key,
    dummy_floor,
    label_sort_key,
    map_labels,
    positions,
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
                # g holds the only other lbl: a valid term has no third one
                if j != i and (lbl, not up) in positions(g):
                    new = map_labels(g, {lbl: other})
                    return _edited(factors, (i,), j, new), False
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
                if (j == i or not isinstance(g, Factor) or _is_metric(session, g)
                        or (lbl, not up) not in g.slots):
                    continue
                k = g.slots.index((lbl, not up))
                moved = g.slots[:k] + ((other, up),) + g.slots[k + 1:]
                return _edited(factors, (i,), j, Factor(g.name, moved, g.derivs)), False
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


def _coarse_groups(items, keys) -> list[tuple]:
    """``items`` in runs of equal coarse key (``keys``, one per item), the runs
    in key order; stable within a run."""
    order = sorted(range(len(items)), key=keys.__getitem__)
    return [tuple([items[i] for i in run])
            for _, run in groupby(order, key=keys.__getitem__)]


# (declared blocks, variance pattern, number of derivatives) -> its table: a
# pure function of the shape, so one per shape met serves every session
_TABLES: dict = {}


def _table(session: Session, f: Factor) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The signed position orders of a plain factor's shape, in
    ``arrangements`` order: an arrangement puts ``positions(f)[order[k]]`` at
    position k.  Each declared block whose slots share a variance permutes
    its slots (the first block varies slowest, ``anti`` signed), then the
    derivative indices permute.  Built once per shape; a shape with more
    than ``SEARCH_CAP`` arrangements raises ``CanformSizeError`` unbuilt."""
    return _shape_table(session.blocks_for(f.name), f.variance_pattern(), len(f.derivs))


def _shape_table(declared, pattern, n_derivs):
    """``_table`` of the shape: declared blocks, variance pattern, number of
    derivatives."""
    shape = (declared, pattern, n_derivs)
    table = _TABLES.get(shape)
    if table is not None:
        return table
    rank = len(pattern)
    blocks = [b for b in declared if all(p < rank for p in b.positions)
              and len({pattern[p] for p in b.positions}) == 1]
    size = prod(factorial(len(b.positions)) for b in blocks) * factorial(n_derivs)
    if size > SEARCH_CAP:
        raise CanformSizeError(f"a factor has {size} arrangements, over {SEARCH_CAP}")
    block_perms = [list(permutations(range(len(b.positions)))) for b in blocks]
    table = []
    for *perms, derivs in product(*block_perms,
                                  permutations(range(rank, rank + n_derivs))):
        order = list(range(rank))
        sign = 1
        for block, perm in zip(blocks, perms):
            for pos, src in zip(block.positions, perm):
                order[pos] = block.positions[src]
            if block.kind == "anti":
                sign *= _perm_sign(perm)
        table.append((tuple(order) + derivs, sign))
    table = _TABLES[shape] = tuple(table)
    return table


def _arranged(f: Factor, order) -> Factor:
    """``f`` with its positions taken in ``order`` (an entry of its table)."""
    pos = positions(f)
    rank = len(f.slots)
    return Factor(f.name, tuple([pos[i] for i in order[:rank]]),
                  tuple([pos[i][0] for i in order[rank:]]))


def arrangements(session: Session, f: FactorLike):
    """Yield the signed rearrangements of one factor, in a fixed order.

    A plain factor takes the signed position orders of its shape's table
    (see ``_table``): label-free, computed once per factor shape.  An inert
    derivative takes each distinct order of its body within the body's
    coarse groups, crossed with each body factor's arrangements; a body
    with more than ``SEARCH_CAP`` distinct orders raises ``CanformSizeError``
    before any is listed.
    """
    if isinstance(f, InertDeriv):
        groups = _coarse_groups(f.factors, [coarse_key(g) for g in f.factors])
        size = prod(factorial(len(g)) // prod(factorial(g.count(h)) for h in set(g))
                    for g in groups)
        if size > SEARCH_CAP:
            raise CanformSizeError(f"an inert body has {size} orders,"
                                   f" over {SEARCH_CAP}")
        for order in product(*map(_distinct_orders, groups)):
            body = [g for group in order for g in group]
            for combo in product(*(_listed(arrangements(session, g)) for g in body)):
                sign = prod(s for _, s in combo)
                yield InertDeriv(tuple(a for a, _ in combo), f.index), sign
        return
    for order, sign in _table(session, f):
        yield _arranged(f, order), sign


def _position_keys(keys, order, numbering: dict, floor: int):
    """The label keys of the positions ``order`` takes from ``keys`` (a
    label's key, or a dummy's label), each dummy keyed as its number in
    ``numbering`` or, if new, the next one above ``floor`` and the numbered
    ones; the new dummies' keys."""
    out = []
    new: dict[str, tuple] = {}
    for i in order:
        k = keys[i]
        if k.__class__ is str:  # label_sort_key of the renamed dummy
            k = (numbering.get(k) or new.get(k) or new.setdefault(
                k, (1, floor + len(numbering) + len(new) + 1, "")))
        out.append(k)
    return tuple(out), new


def canonical_term(session: Session, t: Term):
    """The least rearrangement of one term: (its ``structural_key``, the
    canonical Term), or None when the term is identically zero.

    Each distinct factor's coarse key and table are computed once.  A term
    whose coarse groups each hold copies of one factor with a single
    arrangement has no choice to make: its factors in coarse order, dummies
    renamed, are canonical.  Otherwise, each position's factor shape is
    fixed, so keys compare label by label, and a factor's keys depend only
    on the factors before it.  Each step places an unplaced factor of the
    current coarse group, in one of its ``arrangements``, numbers the
    dummies it meets first, and keeps only the least choices.  A plain
    factor is weighed by permuting its label keys, computed once per call,
    with its table's position orders; only a kept choice becomes a Factor.
    Ties wait on a stack, searched depth first; a step whose least keys
    exceed the best branch's is dropped.  The search keeps the first
    completed branch of each sign; one structure reached with both signs
    makes the term its own negative.  Only the winning branch is renamed,
    once, by ``rename_term_dummies``.  Raises ``CanformSizeError`` after
    ``SEARCH_CAP`` weighed arrangements.
    """
    factors = t.factors
    ids: dict = {}  # each distinct factor -> its id, in first-occurrence order
    shapes = []  # by id: (coarse key, signed position orders; () if inert)
    at, coarse = [], []  # by position: its factor's id and coarse key
    for f in factors:
        i = ids.get(f)
        if i is None:
            i = ids[f] = len(shapes)
            key = coarse_key(f)
            shapes.append((key, _shape_table(session.blocks_for(f.name), key[3], key[4])
                           if f.__class__ is Factor else ()))
        at.append(i)
        coarse.append(shapes[i][0])
    if (all(len(table) == 1 for _, table in shapes)
            and len({key for key, _ in shapes}) == len(shapes)):
        placed = tuple([factors[i] for i in sorted(range(len(factors)),
                                                   key=coarse.__getitem__)])
        canon = rename_term_dummies(t if placed == factors else Term(t.coeff, placed))
        return structural_key(canon), canon
    groups = _coarse_groups(at, coarse)
    label_keys = {lbl: lbl if len(ups) == 2 else label_sort_key(lbl)
                  for lbl, ups in t.indices.variances.items()}
    # each distinct factor's choices: (label keys, signed position orders,
    # the factor-like those orders rearrange)
    choices = []
    for f, (_, table) in zip(ids, shapes):
        if f.__class__ is Factor:
            choices.append((([label_keys[lbl] for lbl, _ in positions(f)], table, f),))
        else:
            choices.append([([label_keys[lbl] for lbl, _ in pos],
                              ((range(len(pos)), s),), arranged)
                             for arranged, s in _listed(arrangements(session, f))
                             for pos in (positions(arranged),)])
    group_at = dict(zip(accumulate(map(len, groups), initial=0), groups))
    floor = dummy_floor(t)  # as ``rename_term_dummies`` numbers the winner
    best: list[tuple] = []  # the least keys of each position so far
    found: dict[int, tuple] = {}  # the first placed factors of each sign
    work = 0
    # (placed factors, ids of the unplaced factors of their group,
    # dummy label -> its key, sign)
    stack = [((), (), {}, 1)]
    while stack:
        placed, remaining, numbering, sign = stack.pop()
        depth = len(placed)
        if depth == len(factors):
            found.setdefault(sign, placed)
            if len(found) == 2:
                return None
            continue
        remaining = remaining or group_at[depth]
        least, ties = None, []
        for i in dict.fromkeys(remaining):  # identical factors: one branch
            for keys, table, base in choices[i]:
                for order, s in table:
                    work += 1
                    if work > SEARCH_CAP:
                        raise CanformSizeError(
                            f"canonicalizing a term of {len(factors)}"
                            f" factors takes over {SEARCH_CAP} steps")
                    weighed, new = _position_keys(keys, order, numbering, floor)
                    if least is None or weighed < least:
                        least, ties = weighed, []
                    if weighed == least:
                        ties.append((i, base, table, order, s, new))
        if depth < len(best) and least > best[depth]:
            continue
        if depth == len(best) or least < best[depth]:
            del best[depth:]
            best.append(least)
            found.clear()
        for i, base, table, order, s, new in reversed(ties):
            child = numbering if len(ties) == 1 else dict(numbering)
            child.update(new)
            rest = list(remaining)
            rest.remove(i)
            # a table's first order leaves the factor as it is
            arranged = base if order is table[0][0] else _arranged(base, order)
            stack.append((placed + (arranged,), tuple(rest), child, sign * s))
    ((sign, placed),) = found.items()
    canon = rename_term_dummies(Term(t.coeff if sign == 1 else -t.coeff, placed))
    return structural_key(canon), canon


class CanonicalSum:
    """Canonical terms by structural key, the keys kept sorted: the one place
    that collects canonical terms, for ``canform`` and each rewrite of
    ``rules.apply1``, which starts from a canonical form (in key order)."""

    def __init__(self, canonical: Expression = ZERO):
        self.terms = {structural_key(t): t for t in canonical.terms}
        self.keys = list(self.terms)

    def expression(self) -> Expression:
        return Expression(tuple([self.terms[k] for k in self.keys]))

    def merge(self, terms, removed=()) -> bool:
        """Add the canonical ``terms`` in place of the terms under the
        ``removed`` keys: coefficients under one key are summed and a zero
        sum drops its key.  Whether any coefficient changed."""
        held = self.terms
        fresh = not held  # canform: nothing to compare, its keys sorted once
        before = dict(zip(removed, map(held.pop, removed)))  # key -> old term or None
        summed = {}  # key -> its coefficient, once a term adds to a held one
        for t in terms:
            key = structural_key(t)
            old = held.get(key)
            if not fresh and key not in before:
                before[key] = old
            if old is None:
                held[key] = t
            else:
                summed[key] = summed.get(key, old.coeff) + t.coeff
        for key, coeff in summed.items():
            old = held.pop(key)
            if coeff:
                held[key] = Term(rational(coeff), old.factors)
        if fresh:
            self.keys = sorted(held)
            return bool(held)
        changed = False
        for key, old in before.items():
            new = held.get(key)
            if new is None and old is not None:
                del self.keys[bisect_left(self.keys, key)]
            elif new is not None and old is None:
                insort(self.keys, key)
            changed = changed or (new.coeff if new else 0) != (old.coeff if old else 0)
        return changed


def canform(session: Session, expr: Expression) -> Expression:
    """Canonical form: deterministic representative of the expression class
    under dummy relabeling, commuting partials, and declared symmetries.

    Alpha-equivalent terms are collected and zero coefficients dropped, so
    canonical equality coincides with structural equality.
    """
    out = CanonicalSum()
    out.merge(c[1] for t in expr.terms if (c := canonical_term(session, t)))
    return out.expression()
