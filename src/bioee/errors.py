"""Exception types shared across the package."""


class BioeeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BioeeError):
    """A standoff line could not be parsed.

    Carries the offending file (when known) and 1-based line number.
    """

    def __init__(self, message, file=None, line=None):
        self.file = file
        self.line = line
        prefix = ""
        if file is not None:
            prefix += f"{file}:"
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class IntegrityError(BioeeError):
    """A cross-reference (entity or event id) does not resolve."""


class AlignmentError(BioeeError):
    """Character offsets disagree with the text or token layout."""


class SchemaError(BioeeError):
    """An event type or role is not part of the task schema."""


class FormatError(BioeeError):
    """An embedding file violates its declared format."""


class ShapeError(BioeeError):
    """Array operands have incompatible shapes."""


class TrainingError(BioeeError):
    """Training produced a non-finite gradient or similar failure."""


class TrainingSetupError(BioeeError):
    """A training set cannot be used (e.g. only one class present)."""


class ConfigurationError(BioeeError):
    """A required model, file, or setting is missing or inconsistent."""


class DataError(BioeeError):
    """Gold annotations are internally contradictory."""


class PlanningError(BioeeError):
    """A cross-validation plan cannot satisfy its constraints."""
