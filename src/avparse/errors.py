"""Exception hierarchy shared across the package, and the range check of the
config dataclasses.

Every validation failure raises an ``AvparseError`` subclass so the CLI can
map expected failures to exit code 1 and genuine bugs to exit code 2.
"""


class AvparseError(Exception):
    """Base class for all expected, user-facing errors."""


class ShapeError(AvparseError):
    """Invalid or incompatible tensor shapes."""


class ContractError(AvparseError):
    """A documented precondition was violated by the caller."""


class ConfigError(AvparseError):
    """Invalid configuration value; ``field`` names the offending field or
    parameter when the error is about one value."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class FormatError(AvparseError):
    """Malformed binary file (feature files, checkpoints)."""


class ParseError(AvparseError):
    """Malformed text input (CSV, manifest, config)."""


class VocabularyError(AvparseError):
    """Category name outside the class vocabulary."""


class PatchError(AvparseError):
    """Annotation patch targets a row it is not allowed to change."""


class CombineError(AvparseError):
    """Donor video not eligible for cross-modal combination."""


class CapacityError(AvparseError):
    """Requested batch exceeds the number of distinct donor pairs."""


class EvaluationError(AvparseError):
    """Evaluation requested without the required ground truth."""


class CheckpointError(AvparseError):
    """Checkpoint missing, malformed, or incompatible with the model."""


class TrainingError(AvparseError):
    """Training aborted (non-finite loss or similar)."""


# Range rules for ``check_fields``: (test, the text completing "must be ...").
# Each test is written so that NaN fails it.
POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
UNIT_INTERVAL = (lambda v: 0 <= v <= 1, "in [0, 1]")


def check_fields(owner, rule, *names: str) -> None:
    """Raise ``ConfigError`` for the first named attribute of ``owner`` that is
    not None and breaks ``rule``."""
    test, text = rule
    for name in names:
        value = getattr(owner, name)
        if value is not None and not test(value):
            raise ConfigError(f"{type(owner).__name__}.{name} must be {text}, got {value!r}",
                              field=name)
