"""Mutable evaluation environment shared by the algebra and calculus passes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ArityMismatchError,
    ConflictingDeclarationError,
    HistoryError,
    SemanticError,
)
from .exprs import CHRISTOFFEL, Expression, Factor, KDELTA


@dataclass(frozen=True)
class SymmetryBlock:
    kind: str  # "sym" or "anti"
    positions: tuple[int, ...]


@dataclass(frozen=True)
class ComponentDef:
    signature: Factor
    definition: Expression


@dataclass(frozen=True)
class RewriteRule:
    name: str
    pattern: Expression
    replacement: Expression
    metavars: frozenset[str]


@dataclass
class Session:
    """Metric configuration, declarations, rules, bindings, and history.

    Single-threaded by design: expressions are immutable values, the session
    is the only mutable state.
    """

    metric: str | None = None
    dimension: int | None = None
    geowedge: bool = True
    symmetries: dict[str, tuple[SymmetryBlock, ...]] = field(default_factory=dict)
    components: dict[str, ComponentDef] = field(default_factory=dict)
    rules: dict[str, RewriteRule] = field(default_factory=dict)
    metavars: set[str] = field(default_factory=set)
    bindings: dict[str, object] = field(default_factory=dict)
    history: list[object] = field(default_factory=list)
    arities: dict[str, int] = field(default_factory=dict)
    extdiff_used: bool = False

    def __post_init__(self):
        self.arities.setdefault(KDELTA, 2)
        self.arities.setdefault(CHRISTOFFEL, 3)
        self.symmetries.setdefault(
            CHRISTOFFEL, (SymmetryBlock("sym", (0, 1)),)
        )

    def set_metric(self, name: str) -> None:
        self.metric = name
        self.register_arity(name, 2)
        # The metric is symmetric by convention; nonsymmetric metrics are
        # out of scope.
        existing = self.symmetries.get(name)
        block = (SymmetryBlock("sym", (0, 1)),)
        if existing is not None and existing != block:
            raise ConflictingDeclarationError(
                f"metric {name!r} already carries a different symmetry"
            )
        self.symmetries[name] = block

    def set_dimension(self, n: int) -> None:
        if n < 1:
            raise SemanticError("dimension must be a positive integer")
        self.dimension = n

    def set_geowedge(self, value: bool) -> None:
        if self.extdiff_used and value != self.geowedge:
            raise SemanticError(
                "the wedge convention is fixed once extdiff has been used"
            )
        self.geowedge = value

    def register_arity(self, name: str, rank: int) -> None:
        prior = self.arities.setdefault(name, rank)
        if prior != rank:
            raise ArityMismatchError(
                f"tensor {name!r} declared with rank {prior}, used with rank {rank}"
            )

    def blocks_for(self, name: str) -> tuple[SymmetryBlock, ...]:
        return self.symmetries.get(name, ())

    def record(self, value) -> None:
        self.history.append(value)

    def recall(self, n: int):
        """The n-th previous recorded result (n=1 is the most recent)."""
        if n < 1 or n > len(self.history):
            raise HistoryError(f"no history entry %th({n})")
        return self.history[-n]
