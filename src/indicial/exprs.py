"""Expression data model: indexed factors, terms, and flat sums.

Indices are plain string labels.  ``%1``, ``%2``, ... are generated labels:
the engine names the dummy pairs it creates or renames with them, above
every generated label in reach.  Scripts may write them too.  A factor
carries an ordered tuple of (label, up) slot pairs, where ``up`` is True for
a contravariant position, plus a tuple of ordinary derivative indices, which
always count as covariant positions.  Inert covariant derivatives are
wrappers around a monomial; they distribute over sums at construction so a
term is always a rational coefficient (an int while it is whole, a Fraction
once a division makes it fractional, never a float) times a flat multiset of
factor-like objects.

All of these objects are immutable: named tuples, or ``__slots__`` classes
whose fields are never assigned after ``__init__``.  A term's index structure
(its labels with their variances, its dummy pairs, its free indices and its
highest generated dummy) is therefore computed once, by one walk of its
``positions`` (the one order of index positions) on first use of
``Term.indices`` or by the ``RunningProduct`` that built the term, and kept in
a slot outside equality, hashing and ``repr``; its ``structural_key`` is kept
the same way, on first use.  Every product is built by one ``RunningProduct``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .errors import (
    ArityMismatchError,
    MixedFreeIndicesError,
    ProductSizeError,
    TripleIndexError,
    VarianceClashError,
)

DUMMY_PREFIX = "%"

KDELTA = "kdelta"
DIM_SYMBOL = "dim"
CHRISTOFFEL = "ichr2"

# Deepest nesting of parentheses, arguments, list items, unary signs,
# exponents and inert derivative indices (each wraps the ones before it) the
# parser accepts, and the deepest inert derivatives may nest in a term however
# many statements build them; deeper input is refused long before the
# interpreter's recursion limit.
MAX_DEPTH = 100

# The most terms and factors one product may build, each term and each of its
# factors counted once: five times x^20000 (20,001), and refused long before
# (x+y)^24 would build its 16.8M terms.
PRODUCT_CAP = 100_000


def is_dummy_label(label: str) -> bool:
    return label.startswith(DUMMY_PREFIX)


def dummy_label(n: int) -> str:
    return f"{DUMMY_PREFIX}{n}"


def dummy_number(label: str) -> int:
    """The number of a generated label, 0 for a user label."""
    return int(label[1:]) if is_dummy_label(label) else 0


def fresh_dummy(*labels: str, floor: int = 0) -> str:
    """The generated label just above ``floor`` and every generated label
    among ``labels``."""
    return dummy_label(max([floor, *map(dummy_number, labels)]) + 1)


def label_sort_key(label: str):
    """Total order over labels: user labels first, generated dummies after."""
    if is_dummy_label(label):
        return (1, int(label[1:]), "")
    return (0, 0, label)


class Factor:
    """A named indexed object.

    ``slots`` preserves the order in which index positions were declared,
    mixing variances freely so that metric contraction can raise or lower a
    slot in place without losing its position.  Not a tuple: an inert
    derivative is the factor-like value with an ``index``.
    """

    __slots__ = ("name", "slots", "derivs")

    def __init__(self, name: str, slots: tuple[tuple[str, bool], ...] = (),
                 derivs: tuple[str, ...] = ()):
        self.name, self.slots, self.derivs = name, slots, derivs

    def __eq__(self, other):
        if other.__class__ is not Factor:
            return NotImplemented
        return (self.name == other.name and self.slots == other.slots
                and self.derivs == other.derivs)

    def __hash__(self):
        return hash((self.name, self.slots, self.derivs))

    def __repr__(self):
        return (f"Factor(name={self.name!r}, slots={self.slots!r}, "
                f"derivs={self.derivs!r})")

    @property
    def rank(self) -> int:
        return len(self.slots)

    def variance_pattern(self) -> tuple[bool, ...]:
        return tuple([up for _, up in self.slots])


class InertDeriv(NamedTuple):
    """An unexpanded covariant derivative applied to a monomial.

    ``factors`` is the differentiated monomial (never empty); ``index`` is
    the derivative index, a covariant position.  Nested applications nest
    wrappers; the nesting order is meaningful and is never reordered.
    """

    factors: tuple["FactorLike", ...]
    index: str


FactorLike = Union[Factor, InertDeriv]


def inert_depth(factors) -> int:
    """How many inert derivatives nest around the deepest of ``factors``."""
    return max((1 + inert_depth(f.factors) for f in factors
                if isinstance(f, InertDeriv)), default=0)


class IndexSummary(NamedTuple):
    """A term's index structure, from one walk of its ``positions``: each
    label in first-occurrence order with the ``up`` flags of its positions,
    the labels that occur twice (in that order), the (label, up) pairs of
    those that occur once, and the highest generated-dummy number (0 if none)."""

    variances: dict[str, list[bool]]
    dummies: tuple[str, ...]
    free: frozenset[tuple[str, bool]]
    top: int


def positions(f: FactorLike) -> tuple[tuple[str, bool], ...]:
    """The (label, up) pairs of one factor-like, in the one order every walk
    of index positions follows: its slots, then its derivative indices; for
    an inert derivative, its body's positions, then its index.  Derivative
    and wrapper indices are covariant."""
    if f.__class__ is Factor:
        if not f.derivs:
            return f.slots
        return f.slots + tuple([(d, False) for d in f.derivs])
    return tuple([p for g in f.factors for p in positions(g)]) + ((f.index, False),)


def _summarize(factors) -> IndexSummary:
    variances: dict[str, list[bool]] = {}
    for f in factors:
        # a plain factor without derivatives is its slots: no call needed
        plain = f.__class__ is Factor and not f.derivs
        for lbl, up in f.slots if plain else positions(f):
            ups = variances.get(lbl)
            if ups is None:
                variances[lbl] = [up]
            else:
                ups.append(up)
    return _summary(variances)


def _summary(variances: dict[str, list[bool]]) -> IndexSummary:
    """The ``IndexSummary`` of a term whose labels have these ``up`` flags."""
    dummies, free, top = [], [], 0
    for lbl, ups in variances.items():
        n = len(ups)
        if n == 1:
            free.append((lbl, ups[0]))
        elif n == 2:
            dummies.append(lbl)
        if is_dummy_label(lbl):
            top = max(top, int(lbl[1:]))
    # tuple.__new__ skips the Python-level IndexSummary.__new__
    return tuple.__new__(IndexSummary, (variances, tuple(dummies), frozenset(free), top))


class Term:
    """A rational coefficient times a tuple of factors.  Its ``repr``
    writes the coefficient as a Fraction, whether it is held as one or not."""

    __slots__ = ("coeff", "factors", "_indices", "_key")

    def __init__(self, coeff, factors: tuple[FactorLike, ...] = (), indices=None):
        self.coeff, self.factors, self._indices = coeff, factors, indices
        self._key = None

    @property
    def indices(self) -> IndexSummary:
        """The ``IndexSummary``, labels in ``positions`` order; computed once."""
        summary = self._indices
        if summary is None:
            summary = self._indices = _summarize(self.factors)
        return summary

    def __eq__(self, other):
        if other.__class__ is not Term:
            return NotImplemented
        return self.coeff == other.coeff and self.factors == other.factors

    def __hash__(self):
        return hash((self.coeff, self.factors))

    def __repr__(self):
        c = self.coeff
        return (f"Term(coeff=Fraction({c.numerator}, {c.denominator}), "
                f"factors={self.factors!r})")


class Expression(NamedTuple):
    """A sum of terms.  The empty sum is the canonical zero."""

    terms: tuple[Term, ...] = ()

    def is_zero(self) -> bool:
        return not self.terms


ZERO = Expression()


def rational(value):
    """``value`` as a coefficient: an int when it is whole, else a Fraction."""
    value = value if value.__class__ in (int, Fraction) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def quotient(a, b):
    """The coefficient ``a / b``, exact: an int or a Fraction."""
    if a.__class__ is b.__class__ is int and not a % b:
        return a // b
    return rational(Fraction(a, b))


def fac(name: str, cov=(), contra=(), derivs=()) -> Factor:
    """Build a factor from separate covariant/contravariant index lists."""
    slots = tuple((lbl, False) for lbl in cov) + tuple((lbl, True) for lbl in contra)
    return Factor(name, slots, tuple(derivs))


def term(coeff, *factors: FactorLike) -> Term:
    return Term(rational(coeff), tuple(factors))


def ex(*terms_: Term) -> Expression:
    return Expression(tuple(t for t in terms_ if t.coeff != 0))


def scalar(value) -> Expression:
    value = rational(value)
    if value == 0:
        return ZERO
    return Expression((Term(value),))


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


def validate(t: Term) -> Term:
    """Check the summation-convention invariants of a single term.

    Every tensor name keeps one rank within the term.  Every label may
    appear at most twice; a repeated label must occur once in an upper and
    once in a lower position.  Returns the term unchanged.
    """
    ranks: dict[str, int] = {}
    for f in t.factors:
        for g in (f,) if f.__class__ is Factor else walk_factors(f):
            if (prior := ranks.setdefault(g.name, len(g.slots))) != len(g.slots):
                raise ArityMismatchError(
                    f"tensor {g.name!r} used with ranks {prior} and {g.rank}")
    summary = t.indices
    variances = summary.variances
    # with no label three times over, only the dummies can break a rule
    tight = len(summary.dummies) + len(summary.free) == len(variances)
    for lbl in summary.dummies if tight else variances:
        ups = variances[lbl]
        if len(ups) > 2:
            raise TripleIndexError(
                f"index {lbl!r} appears {len(ups)} times in one term")
        if len(ups) == 2 and ups[0] == ups[1]:
            kind = "contravariant" if ups[0] else "covariant"
            raise VarianceClashError(f"index {lbl!r} repeated in {kind} position")
    return t


def free_indices(expr: Expression) -> frozenset[tuple[str, bool]]:
    """The free-index set shared by all terms; empty for scalars and zero."""
    result = None
    for t in expr.terms:
        fs = t.indices.free
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


def rename_term_dummies(t: Term) -> Term:
    """Relabel the term's dummy pairs as %1, %2, ... in first-occurrence
    order.  Free indices are untouched."""
    dummies = t.indices.dummies
    if not dummies:
        return t
    return map_labels(t, {lbl: dummy_label(n) for n, lbl in enumerate(dummies, 1)})


def rename_dummies(expr: Expression) -> Expression:
    """Canonically relabel dummy pairs term by term.

    Idempotent: the numbering restarts at %1 within each term, so two
    alpha-equivalent terms receive identical labels.
    """
    return Expression(tuple(rename_term_dummies(t) for t in expr.terms))


def _fresh_labels(labels, floor: int) -> dict[str, str]:
    """``labels``, in label order, to the generated labels above ``floor``."""
    labels = sorted(labels, key=label_sort_key)
    return {lbl: dummy_label(n) for n, lbl in enumerate(labels, floor + 1)}


def freshen(t: Term, labels) -> Term:
    """``t`` ready to take in ``labels`` (a derivative index, say): its dummy
    pairs that clash with them renamed to generated labels above every
    generated label of ``t`` and of ``labels``; ``t`` itself when none
    clash."""
    if not (clashing := [lbl for lbl in t.indices.dummies if lbl in labels]):
        return t
    floor = max(t.indices.top, *map(dummy_number, labels))
    return map_labels(t, _fresh_labels(clashing, floor))


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
    factor = rational(factor)
    if factor == 0:
        return ZERO
    return Expression(tuple(Term(rational(t.coeff * factor), t.factors, t._indices)
                            for t in expr.terms))


def neg(expr: Expression) -> Expression:
    return scale(expr, -1)


def sub(e1: Expression, e2: Expression) -> Expression:
    return add(e1, neg(e2))


class RunningProduct:
    """A product built one operand at a time, the counterpart of ``extend_sum``:
    each partial term keeps its labels' up flags and its names' ranks, so an
    operand costs its own size.  A sum distributes, partial terms outer.  Only
    dummy pairs whose labels meet the other side are renamed, the operand
    term's first, in label order above every generated label in reach."""

    __slots__ = ("partials",)

    def __init__(self, *sums):
        self.partials = [[1, [], {}, {}]]  # coefficient, factors, variances, ranks
        for terms in sums:
            self.times(terms)

    def times_number(self, q, divide=False) -> None:
        self.partials = self.partials if q else []
        for p in self.partials:
            p[0] = quotient(p[0], q) if divide else rational(p[0] * q)

    def times_factor(self, f: Factor) -> None:
        """Multiply by a tensor literal, with no ``Term`` built unless need be."""
        partials = self.partials
        if not (len(partials) == 1 and len(partials[0][1]) + 2 <= PRODUCT_CAP
                and self._append(partials[0], (f,))):
            self.times((validate(Term(1, (f,))),))

    def times(self, terms) -> None:
        """Multiply by the sum of ``terms``."""
        partials, top, out = self.partials, None, []
        _check_size(len(terms) * sum([1 + len(p[1]) for p in partials])
                    + len(partials) * sum([len(t.factors) for t in terms]))
        for p in partials:
            for t in terms:
                a, b = p[0], t.coeff
                if not (c := b if a == 1 else a if b == 1 else rational(a * b)):
                    continue
                q = [c, p[1][:], p[2].copy(), p[3].copy()] if len(terms) > 1 else p
                q[0], factors = c, t.factors
                if not self._append(q, factors):
                    if top is None:  # the highest generated label in reach
                        top = max([dummy_number(lbl) for r in partials for lbl in r[2]]
                                  + [t.indices.top for t in terms])
                    v, known = t.indices.variances, q[2]
                    met = [lbl for lbl in v if lbl in known]
                    mine = _fresh_labels([lbl for lbl in met if len(v[lbl]) == 2], top)
                    theirs = _fresh_labels([lbl for lbl in met if len(known[lbl]) == 2
                                            and lbl not in mine], top + len(mine))
                    factors = tuple([map_labels(f, mine) for f in factors])
                    if theirs:  # the one case that walks the partial term again
                        old, q[1], q[2] = q[1], [], {}
                        self._append(q, [map_labels(f, theirs) for f in old])
                    if not self._append(q, factors):
                        validate(Term(c, tuple(q[1]) + factors))
                out.append(q)
        self.partials = out

    def _append(self, p, factors) -> bool:
        """Append ``factors`` to the partial term ``p``, checking only their
        ranks and labels; or return False, ``p``'s labels as they were."""
        known, ranks = p[2], p[3]
        for f in factors:
            for g in (f,) if f.__class__ is Factor else walk_factors(f):
                if ranks.setdefault(g.name, len(g.slots)) != len(g.slots):
                    return False
        for f in factors:
            pos = f.slots if f.__class__ is Factor and not f.derivs else positions(f)
            for lbl, up in pos:
                ups = known.get(lbl)
                if ups is None:
                    known[lbl] = [up]
                elif len(ups) == 1 and ups[0] != up:
                    known[lbl] = [ups[0], up]
                else:  # it meets a dummy pair or breaks a rule: walk p again
                    p[2] = _summarize(p[1]).variances
                    return False
        p[1].extend(factors)
        return True

    def expression(self) -> Expression:
        """The product, each term with its ``IndexSummary`` handed over."""
        # tuple.__new__ skips the Python-level Expression.__new__
        result = tuple.__new__(Expression, (tuple([
            Term(c, tuple(fs), _summary(v)) for c, fs, v, _ in self.partials]),))
        if len(result.terms) > 1:
            free_indices(result)
        return result


def _check_size(size: int) -> None:
    if size > PRODUCT_CAP:
        raise ProductSizeError(
            f"the product would build {size} terms and factors, over {PRODUCT_CAP}")


def mul(e1: Expression, e2: Expression) -> Expression:
    """The distributed product ``e1 * e2``, by one ``RunningProduct``."""
    return RunningProduct(e1.terms, e2.terms).expression()


def power(expr: Expression, n: int) -> Expression:
    """``expr`` to the ``n`` >= 0 (the evaluator refuses any other exponent), by
    one ``RunningProduct``, which refuses it past ``PRODUCT_CAP``."""
    _check_size(n)  # before a list of n operands is made
    return RunningProduct(*[expr.terms] * n).expression()


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
        key = obj._key
        if key is None:
            key = obj._key = tuple(structural_key(f) for f in obj.factors)
        return key
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
        return
    for f in obj.terms if isinstance(obj, Expression) else obj.factors:
        yield from walk_factors(f)
