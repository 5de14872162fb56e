"""Exception hierarchy for the indicial engine."""


class IndicialError(Exception):
    """Base class for every error raised by the engine."""


class ParseError(IndicialError):
    """Malformed script text."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownCommandError(ParseError):
    pass


class ValidationError(IndicialError):
    """An expression violates the summation-convention invariants."""


class TripleIndexError(ValidationError):
    pass


class VarianceClashError(ValidationError):
    pass


class ArityMismatchError(ValidationError):
    pass


class MixedFreeIndicesError(ValidationError):
    pass


class SemanticError(IndicialError):
    """A well-formed statement that cannot be executed."""


class NoMetricError(SemanticError):
    pass


class NotAntisymmetricError(SemanticError):
    pass


class PatternIndexCollisionError(SemanticError):
    pass


class UnboundMetavariableError(SemanticError):
    pass


class SignatureMismatchError(SemanticError):
    pass


class ConflictingDeclarationError(SemanticError):
    pass


class IterationCapError(SemanticError):
    pass


class CanformSizeError(SemanticError):
    pass


class ProductSizeError(SemanticError):
    pass


class HistoryError(SemanticError):
    pass


class UnboundNameError(SemanticError):
    pass


class InertOperatorError(SemanticError):
    pass


class NonScalarLagrangianError(SemanticError):
    pass
