"""Componentization oracle: evaluate indicial expressions numerically at a
small fixed dimension.

Every tensor holds one base array in the fully covariant position, indexed by
slot values and then derivative values; derivative components are independent
first-order jet variables.  Random components carry the declared symmetry
and commuting partials through ``algebra._table``, as ``canform`` does.  A
contravariant occurrence contracts the base array with the inverse metric on
that axis, which makes raising and lowering sound by construction.
Expressions containing inert covariant derivatives cannot be evaluated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .algebra import _table
from .errors import InertOperatorError, SemanticError, UnboundNameError, ValidationError
from .exprs import (
    DIM_SYMBOL,
    Expression,
    Factor,
    InertDeriv,
    KDELTA,
    Term,
    positions,
    walk_factors,
)
from .session import Session

if TYPE_CHECKING:
    import numpy as np

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
        for axis, up in enumerate(pattern):
            if up:
                arr = np.moveaxis(
                    np.tensordot(self.metric_inverse, arr, axes=(1, axis)), 0, axis
                )
        self._adjusted[(key, pattern)] = arr
        return arr


def numeric_eval(expr: Expression, assignment: ComponentAssignment,
                 bind: dict[str, int] | None = None) -> float:
    """Sum a validated expression over all dummy values 0..D-1.

    Free indices must be bound through ``bind`` to values in 0..D-1.
    """
    bind = bind or {}
    bad = {lbl: v for lbl, v in bind.items() if not 0 <= v < assignment.dim}
    if bad:
        raise SemanticError(f"bound values {bad} lie outside 0..{assignment.dim - 1}")
    return sum((_eval_term(t, assignment, bind) for t in expr.terms), 0.0)


def _eval_term(t: Term, assignment: ComponentAssignment,
               bind: dict[str, int]) -> float:
    """One einsum contraction over the dummies.  Factors are sliced at their
    bound free indices; 0-d values (``dim``, scalars) fold into the coefficient."""
    import numpy as np

    for f in t.factors:
        if isinstance(f, InertDeriv):
            raise InertOperatorError("inert covariant derivatives have no numeric value")
    missing = [lbl for lbl, ups in t.indices.variances.items()
               if len(ups) == 1 and lbl not in bind]
    if missing:
        raise SemanticError(f"free indices {missing} are unbound")
    dummies = {lbl: n for n, lbl in enumerate(t.indices.dummies)}
    value = float(t.coeff)
    operands = []
    for f in t.factors:
        labels = [lbl for lbl, _ in positions(f)]
        if f.name == DIM_SYMBOL:
            value *= assignment.dim
            continue
        if f.name == KDELTA:
            if f.rank != 2 or f.slots[0][1] == f.slots[1][1] or f.derivs:
                raise SemanticError("only the mixed Kronecker delta is evaluable")
            arr = np.eye(assignment.dim)
        else:
            arr = assignment._adjust((f.name, f.rank, len(f.derivs)),
                                     f.variance_pattern())
        axes = [dummies.get(lbl) for lbl in labels]
        if None in axes:  # slice at the bound free indices
            arr = arr[tuple(bind[lbl] if n is None else slice(None)
                            for lbl, n in zip(labels, axes))]
            axes = [n for n in axes if n is not None]
        if axes:
            operands += [arr, axes]
        else:
            value *= float(arr)
    if not operands:
        return value
    try:
        return value * float(np.einsum(*operands, []))
    except ValueError as exc:  # einsum caps operands and distinct labels
        raise SemanticError(f"term too large to evaluate: {exc}") from None


# ---------------------------------------------------------------------------
# random data for soundness testing


def collect_shapes(exprs) -> set[tuple[str, int, int]]:
    shapes = set()
    for e in exprs:
        for f in walk_factors(e):
            if f.name in (KDELTA, DIM_SYMBOL):
                continue
            shapes.add((f.name, f.rank, len(f.derivs)))
    return shapes


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

