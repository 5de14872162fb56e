"""Expression data model: indexed factors, terms, and flat sums.

Indices are plain string labels.  Labels starting with ``%`` belong to the
generated-dummy namespace and never collide with user labels.  A factor
carries an ordered tuple of (label, up) slot pairs, where ``up`` is True for
a contravariant position, plus a tuple of ordinary derivative indices, which
always count as covariant positions.  Inert covariant derivatives are
wrappers around a monomial; they distribute over sums at construction so a
term is always a rational coefficient times a flat multiset of factor-like
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import (
    ArityMismatchError,
    MixedFreeIndicesError,
    TripleIndexError,
    ValidationError,
    VarianceClashError,
)

DUMMY_PREFIX = "%"

KDELTA = "kdelta"
DIM_SYMBOL = "dim"
CHRISTOFFEL = "ichr2"


def is_dummy_label(label: str) -> bool:
    return label.startswith(DUMMY_PREFIX)


def dummy_label(n: int) -> str:
    return f"{DUMMY_PREFIX}{n}"


def label_sort_key(label: str):
    """Total order over labels: user labels first, generated dummies after."""
    if is_dummy_label(label):
        return (1, int(label[1:]), "")
    return (0, 0, label)


@dataclass(frozen=True)
class Factor:
    """A named indexed object.

    ``slots`` preserves the order in which index positions were declared,
    mixing variances freely so that metric contraction can raise or lower a
    slot in place without losing its position.
    """

    name: str
    slots: tuple[tuple[str, bool], ...] = ()
    derivs: tuple[str, ...] = ()

    @property
    def cov(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, up in self.slots if not up)

    @property
    def contra(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, up in self.slots if up)

    @property
    def rank(self) -> int:
        return len(self.slots)

    def variance_pattern(self) -> tuple[bool, ...]:
        return tuple(up for _, up in self.slots)


@dataclass(frozen=True)
class InertDeriv:
    """An unexpanded covariant derivative applied to a monomial.

    ``factors`` is the differentiated monomial (never empty); ``index`` is
    the derivative index, a covariant position.  Nested applications nest
    wrappers; the nesting order is meaningful and is never reordered.
    """

    factors: tuple["FactorLike", ...]
    index: str


FactorLike = Union[Factor, InertDeriv]


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    factors: tuple[FactorLike, ...] = ()


@dataclass(frozen=True)
class Expression:
    """A sum of terms.  The empty sum is the canonical zero."""

    terms: tuple[Term, ...] = ()

    def is_zero(self) -> bool:
        return not self.terms


ZERO = Expression()


def fac(name: str, cov=(), contra=(), derivs=()) -> Factor:
    """Build a factor from separate covariant/contravariant index lists."""
    slots = tuple((lbl, False) for lbl in cov) + tuple((lbl, True) for lbl in contra)
    return Factor(name, slots, tuple(derivs))


def term(coeff, *factors: FactorLike) -> Term:
    return Term(Fraction(coeff), tuple(factors))


def ex(*terms_: Term) -> Expression:
    return Expression(tuple(t for t in terms_ if t.coeff != 0))


def scalar(value) -> Expression:
    value = Fraction(value)
    if value == 0:
        return ZERO
    return Expression((Term(value),))


ONE = scalar(1)


def iter_positions(obj) -> Iterator[tuple[str, bool]]:
    """Yield every index position of a factor, term, or expression.

    Positions appear in a fixed traversal order: factor slots, then ordinary
    derivative indices, then (for inert wrappers) body positions followed by
    the wrapper index.  Derivative and wrapper indices are covariant.
    """
    if isinstance(obj, Factor):
        yield from obj.slots
        for d in obj.derivs:
            yield (d, False)
    elif isinstance(obj, InertDeriv):
        for f in obj.factors:
            yield from iter_positions(f)
        yield (obj.index, False)
    elif isinstance(obj, Term):
        for f in obj.factors:
            yield from iter_positions(f)
    elif isinstance(obj, Expression):
        for t in obj.terms:
            yield from iter_positions(t)
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot iterate positions of {type(obj).__name__}")


def map_labels(obj, mapping: dict[str, str]):
    """Rebuild ``obj`` with every index label sent through ``mapping``.

    The substitution is simultaneous: labels not in the mapping pass through.
    """
    if isinstance(obj, Factor):
        slots = tuple((mapping.get(lbl, lbl), up) for lbl, up in obj.slots)
        derivs = tuple(mapping.get(d, d) for d in obj.derivs)
        return Factor(obj.name, slots, derivs)
    if isinstance(obj, InertDeriv):
        return InertDeriv(
            tuple(map_labels(f, mapping) for f in obj.factors),
            mapping.get(obj.index, obj.index),
        )
    if isinstance(obj, Term):
        return Term(obj.coeff, tuple(map_labels(f, mapping) for f in obj.factors))
    if isinstance(obj, Expression):
        return Expression(tuple(map_labels(t, mapping) for t in obj.terms))
    raise TypeError(f"cannot relabel {type(obj).__name__}")


def term_label_counts(t: Term) -> dict[str, list[bool]]:
    counts: dict[str, list[bool]] = {}
    for lbl, up in iter_positions(t):
        counts.setdefault(lbl, []).append(up)
    return counts


def _check_arity_within(t: Term) -> None:
    seen: dict[str, int] = {}

    def walk(f: FactorLike) -> None:
        if isinstance(f, Factor):
            prior = seen.setdefault(f.name, f.rank)
            if prior != f.rank:
                raise ArityMismatchError(
                    f"tensor {f.name!r} used with ranks {prior} and {f.rank}"
                )
        else:
            for g in f.factors:
                walk(g)

    for f in t.factors:
        walk(f)


def validate(t: Term) -> Term:
    """Check the summation-convention invariants of a single term.

    Every label may appear at most twice; a repeated label must occur once
    in an upper and once in a lower position.  Returns the term unchanged.
    """
    _check_arity_within(t)
    for lbl, occurrences in term_label_counts(t).items():
        if len(occurrences) > 2:
            raise TripleIndexError(
                f"index {lbl!r} appears {len(occurrences)} times in one term"
            )
        if len(occurrences) == 2 and occurrences[0] == occurrences[1]:
            kind = "contravariant" if occurrences[0] else "covariant"
            raise VarianceClashError(
                f"index {lbl!r} repeated in {kind} position"
            )
    return t


def term_free_indices(t: Term) -> frozenset[tuple[str, bool]]:
    counts = term_label_counts(t)
    return frozenset(
        (lbl, ups[0]) for lbl, ups in counts.items() if len(ups) == 1
    )


def free_indices(expr: Expression) -> frozenset[tuple[str, bool]]:
    """The free-index set shared by all terms; empty for scalars and zero."""
    result = None
    for t in expr.terms:
        fs = term_free_indices(t)
        if result is None:
            result = fs
        elif result != fs:
            raise MixedFreeIndicesError(
                f"terms disagree on free indices: {sorted(result)} vs {sorted(fs)}"
            )
    return result if result is not None else frozenset()


def validate_expression(expr: Expression) -> Expression:
    for t in expr.terms:
        validate(t)
    free_indices(expr)
    return expr


def term_dummies(t: Term) -> set[str]:
    return {lbl for lbl, ups in term_label_counts(t).items() if len(ups) == 2}


def max_dummy_number(obj) -> int:
    best = 0
    for lbl, _ in iter_positions(obj):
        if is_dummy_label(lbl):
            best = max(best, int(lbl[1:]))
    return best


def rename_term_dummies(t: Term, start: int = 1) -> Term:
    """Relabel the term's dummy pairs as %start, %start+1, ... in
    first-occurrence order.  Free indices are untouched."""
    dummies = term_dummies(t)
    mapping: dict[str, str] = {}
    n = start
    for lbl, _ in iter_positions(t):
        if lbl in dummies and lbl not in mapping:
            mapping[lbl] = dummy_label(n)
            n += 1
    if not mapping:
        return t
    return map_labels(t, mapping)


def rename_dummies(expr: Expression) -> Expression:
    """Canonically relabel dummy pairs term by term.

    Idempotent: the numbering restarts at %1 within each term, so two
    alpha-equivalent terms receive identical labels.
    """
    return Expression(tuple(rename_term_dummies(t) for t in expr.terms))


def _rename_colliding_dummies(t: Term, avoid: set[str], floor: int) -> Term:
    """Rename only those dummy pairs of ``t`` whose labels occur in
    ``avoid``, using fresh generated labels above ``floor``."""
    colliding = sorted(term_dummies(t) & avoid, key=label_sort_key)
    if not colliding:
        return t
    mapping = {}
    n = floor + 1
    for lbl in colliding:
        mapping[lbl] = dummy_label(n)
        n += 1
    return map_labels(t, mapping)


def extend_sum(terms: list[Term], new_terms) -> None:
    """Append ``new_terms`` to the running sum ``terms``, dropping zero
    coefficients.  Each new term is validated once and its free indices are
    checked against the sum's first term, so a sum of N terms costs N
    validations however many operands it arrives in."""
    new = tuple(t for t in new_terms if t.coeff != 0)
    for t in new:
        validate(t)
    free_indices(Expression(tuple(terms[:1]) + new))
    terms.extend(new)


def add(*exprs: Expression) -> Expression:
    terms: list[Term] = []
    extend_sum(terms, [t for e in exprs for t in e.terms])
    return Expression(tuple(terms))


def scale(expr: Expression, factor) -> Expression:
    factor = Fraction(factor)
    if factor == 0:
        return ZERO
    return Expression(tuple(Term(t.coeff * factor, t.factors) for t in expr.terms))


def neg(expr: Expression) -> Expression:
    return scale(expr, -1)


def sub(e1: Expression, e2: Expression) -> Expression:
    return add(e1, neg(e2))


def mul(e1: Expression, e2: Expression) -> Expression:
    """Distributed product with per-copy dummy freshening.

    A dummy pair internal to one operand is renamed only when its label also
    occurs in the other operand, so repeated labels across the operands can
    only be deliberate free-index contractions and products of already
    collision-free terms keep their labels.
    """
    floor = max(max_dummy_number(e1), max_dummy_number(e2))
    out: list[Term] = []
    for t1 in e1.terms:
        labels1 = set(term_label_counts(t1))
        for t2 in e2.terms:
            b = _rename_colliding_dummies(t2, labels1, floor)
            a = _rename_colliding_dummies(
                t1, set(term_label_counts(b)), max(floor, max_dummy_number(b))
            )
            coeff = a.coeff * b.coeff
            if coeff == 0:
                continue
            merged = Term(coeff, a.factors + b.factors)
            out.append(validate(merged))
    result = Expression(tuple(out))
    free_indices(result)
    return result


def power(expr: Expression, n: int) -> Expression:
    if n < 0:
        raise ValidationError("negative exponents are not supported")
    result = ONE
    for _ in range(n):
        result = mul(result, expr)
    return result


def structural_key(obj):
    """Deterministic sort key for factors, terms, and expressions.

    Coefficients are excluded so alpha-equivalent terms share a key.
    """
    if isinstance(obj, Factor):
        return (
            0,
            obj.name,
            len(obj.slots),
            obj.variance_pattern(),
            tuple(label_sort_key(lbl) for lbl, _ in obj.slots),
            tuple(label_sort_key(d) for d in obj.derivs),
        )
    if isinstance(obj, InertDeriv):
        return (
            1,
            tuple(structural_key(f) for f in obj.factors),
            label_sort_key(obj.index),
        )
    if isinstance(obj, Term):
        return tuple(structural_key(f) for f in obj.factors)
    if isinstance(obj, Expression):
        return tuple((structural_key(t), t.coeff) for t in obj.terms)
    raise TypeError(f"no structural key for {type(obj).__name__}")


def coarse_key(f: FactorLike):
    """Label-free shape of a factor, used to group interchangeable factors."""
    if isinstance(f, Factor):
        return (0, f.name, len(f.slots), f.variance_pattern(), len(f.derivs))
    return (1, tuple(coarse_key(g) for g in f.factors))


def walk_factors(obj) -> Iterator[Factor]:
    """Yield every plain Factor in the tree, descending into inert bodies."""
    if isinstance(obj, Factor):
        yield obj
    elif isinstance(obj, (Term, InertDeriv)):
        for f in obj.factors:
            if isinstance(f, Factor):
                yield f
            else:
                yield from walk_factors(f)
    elif isinstance(obj, Expression):
        for t in obj.terms:
            yield from walk_factors(t)
