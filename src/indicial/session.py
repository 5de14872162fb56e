"""Mutable evaluation environment shared by the algebra and calculus passes."""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ArityMismatchError,
    ConflictingDeclarationError,
    HistoryError,
    SemanticError,
)
from .exprs import CHRISTOFFEL, Expression, Factor, KDELTA


# kind is "sym" or "anti"
SymmetryBlock = NamedTuple("SymmetryBlock", [("kind", str), ("positions", tuple)])
ComponentDef = NamedTuple("ComponentDef", [("signature", Factor),
                                           ("definition", Expression)])
RewriteRule = NamedTuple("RewriteRule", [("name", str), ("pattern", Expression),
                                         ("replacement", Expression),
                                         ("metavars", frozenset)])


def matching_definition(definitions: dict[str, ComponentDef],
                        f) -> ComponentDef | None:
    """The definition among ``definitions`` that the factor ``f`` takes: one
    for its name, if ``f`` is a plain factor with its signature's variance
    pattern."""
    cdef = definitions.get(f.name) if f.__class__ is Factor else None
    if cdef is not None and f.variance_pattern() == cdef.signature.variance_pattern():
        return cdef
    return None


class Session:
    """Metric configuration, declarations, rules, bindings, and history.

    Single-threaded by design: expressions are immutable values, the session
    is the only mutable state.
    """

    def __init__(self):
        self.metric: str | None = None
        self.dimension: int | None = None
        self.geowedge = True
        self.symmetries: dict[str, tuple[SymmetryBlock, ...]] = {
            CHRISTOFFEL: (SymmetryBlock("sym", (0, 1)),)}
        self.components: dict[str, ComponentDef] = {}
        self.rules: dict[str, RewriteRule] = {}
        self.metavars: set[str] = set()
        self.bindings: dict[str, object] = {}
        self.history: list[object] = []
        self.arities: dict[str, int] = {KDELTA: 2, CHRISTOFFEL: 3}
        self.extdiff_used = False

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
