"""Componentization oracle: evaluate indicial expressions numerically at a
small fixed dimension.

Every tensor holds one base array in the fully covariant position, indexed by
slot values and then derivative values; derivative components are independent
first-order jet variables.  Random components carry the declared symmetry
and commuting partials through ``algebra._table``, as ``canform`` does.  A
contravariant occurrence contracts the base array with the inverse metric on
that axis, which makes raising and lowering sound by construction.
Expressions containing inert covariant derivatives cannot be evaluated.

``numeric_eval`` turns each term into its contraction plan: the arrays its
factors read, their einsum subscripts (dummies numbered in first-occurrence
order) and the values its free indices are bound to.  Terms with one plan
differ only in their coefficients, dummy names and 0-d factors, so their
coefficients are summed and each plan is contracted once.  A plan whose
one-call einsum would visit more than ``PAIRWISE_ABOVE`` valuations (dim to
the number of its dummies) is contracted pairwise, in the order of
``numpy.einsum_path``'s greedy search, found once per subscripts and shapes:
a chain of n factors then costs about n small products, not dim**n
valuations.  A term may hold at most 52 distinct dummies and 63 factors
with a dummy, einsum's own limits; a larger one raises ``SemanticError``.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral
from typing import TYPE_CHECKING

from .algebra import _table
from .errors import (
    InertOperatorError,
    SemanticError,
    TripleIndexError,
    UnboundNameError,
    ValidationError,
)
from .exprs import (
    DIM_SYMBOL,
    Expression,
    Factor,
    KDELTA,
    Term,
    positions,
    walk_factors,
)
from .session import Session

if TYPE_CHECKING:
    import numpy as np

# einsum's own limits, kept for pairwise contractions too: distinct dummies
# in one term, and operands (factors with a dummy)
MAX_DUMMIES = 52
MAX_OPERANDS = 63

# A plan whose one-call einsum would visit more valuations (dim to the
# number of its dummies) is contracted pairwise.  Measured on F chains and
# on a tensor contracted with vectors at dimensions 2-4 (2-vCPU x86_64 VM,
# numpy 2.4): one call is 1.3-1.9x faster up to 256 valuations, the two are
# about even from 512 to 1,024, and pairwise is 1.5-33x faster from 2,048 on.
PAIRWISE_ABOVE = 1000

# numpy is imported inside the functions that use it, so that importing the
# engine does not load it: only this oracle needs numpy.


class ComponentAssignment:
    """Concrete components for every tensor appearing in the expressions
    under test, plus the metric and its true inverse."""

    def __init__(self, dim: int, metric: str | None = None):
        self.dim = dim
        self.metric = metric
        self.base: dict[tuple[str, int, int], np.ndarray] = {}
        self._adjusted: dict = {}
        self._inverse: np.ndarray | None = None

    def set_array(self, name: str, rank: int, nderivs: int, arr) -> None:
        """Store a read-only copy of ``arr``: raised occurrences are cached,
        so components change only through this method."""
        import numpy as np

        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
        expected = (self.dim,) * (rank + nderivs)
        if arr.shape != expected:
            raise SemanticError(
                f"array for {name!r} has shape {arr.shape}, expected {expected}"
            )
        self.base[(name, rank, nderivs)] = arr
        self._adjusted.clear()
        self._inverse = None

    @property
    def metric_matrix(self) -> np.ndarray:
        if self.metric is None or (self.metric, 2, 0) not in self.base:
            raise UnboundNameError("no metric components assigned")
        return self.base[(self.metric, 2, 0)]

    @property
    def metric_inverse(self) -> np.ndarray:
        if self._inverse is None:
            import numpy as np

            self._inverse = np.linalg.inv(self.metric_matrix)
        return self._inverse

    def _adjust(self, key, pattern) -> np.ndarray:
        cached = self._adjusted.get((key, pattern))
        if cached is not None:
            return cached
        if key not in self.base:
            raise UnboundNameError(f"no components assigned for {key[0]!r}")
        import numpy as np

        arr = self.base[key]
        axes = list(range(arr.ndim))
        for axis, up in enumerate(pattern):
            if up:  # the inverse's first index takes the axis's place
                out = axes[:axis] + [arr.ndim] + axes[axis + 1:]
                arr = np.einsum(self.metric_inverse, [arr.ndim, axis], arr, axes, out)
        self._adjusted[(key, pattern)] = arr
        return arr


def numeric_eval(expr: Expression, assignment: ComponentAssignment,
                 bind: dict[str, int] | None = None) -> float:
    """Sum a validated expression over all dummy values 0..D-1.

    Free indices must be bound through ``bind`` to integers (any
    ``numbers.Integral`` but ``bool``) in 0..D-1; a label that occurs more
    than twice in a term raises ``TripleIndexError``.
    Terms with one contraction plan (``_plan_key``) share one contraction:
    each term's coefficient times its 0-d factors, in factor order, is
    summed per plan, and each plan is contracted once.
    """
    bind = bind or {}
    last = assignment.dim - 1
    bad = {lbl: v for lbl, v in bind.items()
           if not isinstance(v, Integral) or isinstance(v, bool) or not 0 <= v <= last}
    if bad:
        raise SemanticError(f"bound values {bad} are not integers in 0..{last}")
    plans: dict = {}  # plan key -> [its 0-d factor values, its contraction, summed coefficient]
    for t in expr.terms:
        key = _plan_key(t, bind)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = [*_contract(key, assignment), 0.0]
        value = float(t.coeff)
        for s in plan[0]:
            value *= s
        plan[2] += value
    return sum([coeff * value for _, value, coeff in plans.values()], 0.0)


def _plan_key(t: Term, bind: dict[str, int]) -> tuple:
    """What a term's contraction depends on, labels aside: each factor's
    (name, rank, number of derivatives), the ``up`` flag and the label
    number (first-occurrence order) of each position, and the bound value
    of each label, None for a dummy (``()`` when no index is free)."""
    shape, pos = [], []
    for f in t.factors:
        if f.__class__ is not Factor:
            raise InertOperatorError("inert covariant derivatives have no numeric value")
        shape.append((f.name, len(f.slots), len(f.derivs)))
        pos += f.slots if not f.derivs else positions(f)
    summary = t.indices
    variances = summary.variances
    if len(summary.dummies) + len(summary.free) != len(variances):
        lbl, ups = next((lbl, ups) for lbl, ups in variances.items() if len(ups) > 2)
        raise TripleIndexError(f"index {lbl!r} appears {len(ups)} times in one term")
    bound = ()
    if summary.free:
        missing = [lbl for lbl, ups in variances.items()
                   if len(ups) == 1 and lbl not in bind]
        if missing:
            raise SemanticError(f"free indices {missing} are unbound")
        bound = tuple([bind[lbl] if len(ups) == 1 else None
                       for lbl, ups in variances.items()])
    number = dict(zip(variances, range(len(variances))))
    labels, ups = zip(*pos) if pos else ((), ())
    return tuple(shape), ups, tuple(map(number.__getitem__, labels)), bound


def _contract(key: tuple, assignment: ComponentAssignment) -> tuple[list, float]:
    """The values of a plan's 0-d factors (``dim``, scalars, factors bound at
    every index) in factor order, and the contraction of its other factors
    over the dummies.  Factors are sliced at their bound values; dummies
    become einsum axes in first-occurrence order."""
    import numpy as np

    shape, ups, numbers, bound = key
    dim = assignment.dim
    scalars, operands = [], []  # operands: each array, then its axes
    axes: dict[int, int] = {}  # a dummy's label number -> its axis
    end = 0
    for name, rank, nderivs in shape:
        start, end = end, end + rank + nderivs
        own = numbers[start:end]
        if name == DIM_SYMBOL:
            scalars.append(float(dim))
            continue
        pattern = ups[start:start + rank]
        if name == KDELTA:
            if rank != 2 or pattern[0] == pattern[1] or nderivs:
                raise SemanticError("only the mixed Kronecker delta is evaluable")
            arr = np.eye(dim)
        else:
            arr = assignment._adjust((name, rank, nderivs), pattern)
        if bound and any(bound[n] is not None for n in own):
            arr = arr[tuple([slice(None) if bound[n] is None else bound[n] for n in own])]
            own = [n for n in own if bound[n] is None]
        if own:
            operands += [arr, [axes.setdefault(n, len(axes)) for n in own]]
        else:
            scalars.append(float(arr))
    if not operands:
        return scalars, 1.0
    if len(axes) > MAX_DUMMIES or len(operands) > 2 * MAX_OPERANDS:
        raise SemanticError(
            f"term too large to evaluate: {len(operands) // 2} operands over"
            f" {len(axes)} dummies (at most {MAX_OPERANDS} and {MAX_DUMMIES})")
    if dim ** len(axes) <= PAIRWISE_ABOVE:
        return scalars, float(np.einsum(*operands, []))
    return scalars, _pairwise(operands)


# (subscripts, operand shapes) -> the pairwise steps that contract them: a
# pure function of the key, so one per key met serves every assignment
_STEPS: dict = {}


def _pairwise(operands: list) -> float:
    """The full contraction of ``operands`` (each array, then its axes) in
    the order of ``numpy.einsum_path``'s greedy search, each step one einsum
    over the operands it picks, keeping the axes still shared with the rest."""
    import numpy as np

    arrays, subscripts = operands[::2], operands[1::2]
    key = (tuple(map(tuple, subscripts)), tuple([a.shape for a in arrays]))
    steps = _STEPS.get(key)
    if steps is None:
        path = np.einsum_path(*operands, [], optimize="greedy")[0]
        left, steps = list(key[0]), []
        for picked in path[1:]:
            picked = sorted(picked, reverse=True)
            taken = [left.pop(i) for i in picked]
            kept = {n for s in left for n in s}
            out = tuple([n for n in dict.fromkeys(chain(*taken)) if n in kept])
            left.append(out)
            steps.append((picked, list(out)))
        steps = _STEPS[key] = tuple(steps)
    for picked, out in steps:
        args = []
        for i in picked:
            args += [arrays.pop(i), subscripts.pop(i)]
        arrays.append(np.einsum(*args, out))
        subscripts.append(out)
    return float(arrays[0])


# ---------------------------------------------------------------------------
# random data for soundness testing


def collect_shapes(exprs) -> set[tuple[str, int, int]]:
    """The (name, rank, number of derivatives) of every tensor in the
    expressions, inert bodies included; ``kdelta`` and ``dim`` have no
    components."""
    shapes = set()
    for e in exprs:
        for t in e.terms:
            for f in t.factors:
                if f.__class__ is Factor:
                    shapes.add((f.name, len(f.slots), len(f.derivs)))
                else:
                    shapes.update([(g.name, len(g.slots), len(g.derivs))
                                   for g in walk_factors(f)])
    return {s for s in shapes if s[0] != KDELTA and s[0] != DIM_SYMBOL}


def random_assignment(session: Session, exprs, dim: int = 2,
                      seed: int = 0) -> ComponentAssignment:
    """Draw components consistent with the session's declarations.

    The metric is a random symmetric positive definite matrix so its inverse
    is exact; each tensor is drawn as the average of a random array over the
    signed position orders of its fully covariant shape (``algebra._table``),
    so it carries its declared symmetry and its derivative axes commute.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    assignment = ComponentAssignment(dim, metric=session.metric)
    if session.metric is not None:
        r = rng.uniform(-1.0, 1.0, size=(dim, dim))
        assignment.set_array(session.metric, 2, 0, r @ r.T + np.eye(dim))
    for name, rank, nderivs in sorted(collect_shapes(exprs)):
        if (name, rank, nderivs) in assignment.base:
            continue
        arr = rng.uniform(-1.5, 1.5, size=(dim,) * (rank + nderivs))
        table = _table(session, Factor(name, (("", False),) * rank, ("",) * nderivs))
        arr = sum([sign * arr.transpose(order) for order, sign in table]) / len(table)
        assignment.set_array(name, rank, nderivs, arr)
    return assignment


DEFAULT_POOL = (
    ("x", 1),
    ("y", 1),
    ("S", 2),
    ("T", 2),
    ("w", 0),
)


def _random_term(session: Session, rng, free, pool, max_factors: int):
    from .exprs import quotient, validate

    for _ in range(200):
        count = int(rng.integers(2, max_factors + 1))
        protos = []
        for _ in range(count):
            kind = int(rng.integers(0, 10))
            if session.metric is not None and kind == 0:
                up = bool(rng.integers(0, 2))
                protos.append((session.metric, 2, (up, up)))
            elif kind == 1:
                protos.append((KDELTA, 2, (False, True)))
            else:
                name, rank = pool[int(rng.integers(0, len(pool)))]
                pattern = tuple(bool(rng.integers(0, 2)) for _ in range(rank))
                nderivs = int(rng.integers(0, 2))
                protos.append((name, rank, pattern + (False,) * nderivs))
        # the up flag of every position, in ``positions`` order
        flags = [up for _, _, pattern in protos for up in pattern]
        labels = [None] * len(flags)
        unused = list(range(len(flags)))
        for lbl, up in free:
            options = [i for i in unused if flags[i] == up]
            if not options:
                break
            pick = options[int(rng.integers(0, len(options)))]
            labels[pick] = lbl
            unused.remove(pick)
        ups = [i for i in unused if flags[i]]
        downs = [i for i in unused if not flags[i]]
        # a free index found no position, or the rest do not pair up
        if len(unused) + len(free) != len(flags) or len(ups) != len(downs):
            continue
        rng.shuffle(ups)
        rng.shuffle(downs)
        for n, (i, j) in enumerate(zip(ups, downs), start=1):
            labels[i] = labels[j] = f"q{n}"
        factors, at = [], 0
        for name, rank, pattern in protos:
            own = labels[at:at + len(pattern)]
            at += len(own)
            factors.append(Factor(name, tuple(zip(own[:rank], pattern)),
                                  tuple(own[rank:])))
        num = int(rng.integers(-4, 5)) or 1
        den = int(rng.integers(1, 4))
        try:
            return validate(Term(quotient(num, den), tuple(factors)))
        except ValidationError:
            continue
    raise RuntimeError("could not build a random term")


def random_expression(session: Session, rng, free=(), max_terms: int = 3,
                      max_factors: int = 4, pool=DEFAULT_POOL) -> Expression:
    """Draw a valid expression: every term shares the requested free-index
    signature, everything else is paired into dummies."""
    from .exprs import validate_expression

    nterms = int(rng.integers(1, max_terms + 1))
    terms = tuple(
        _random_term(session, rng, free, pool, max_factors)
        for _ in range(nterms)
    )
    return validate_expression(Expression(terms))

