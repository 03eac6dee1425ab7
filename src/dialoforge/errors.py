"""Exception types raised across the package."""


class DialoforgeError(Exception):
    """Base class for all package errors."""


class SchemaError(DialoforgeError):
    """An input file is malformed: wrong shape, types or keys, or a copy it
    carries (a count, a width, an event log) disagrees with what it is a copy
    of.  The message names the file and the line, key or member."""


class ValidationError(DialoforgeError):
    """An input parses but breaks an invariant or a setting's range, or its
    provenance hash differs from the file it was made from.  The message names
    the file or setting and the offending element."""


class UnknownPreset(DialoforgeError):
    """Requested preset name is not one of the bundled ontologies."""


class EmptyStackError(DialoforgeError):
    """A slot-bearing user act arrived with no topic frame to receive it."""


class GenerationOverflow(DialoforgeError):
    """Dialogue hit the hard turn cap; indicates a preset/config bug."""


class CatalogTooSmall(DialoforgeError):
    """Relabeling needs at least two candidate labels."""


class UnknownLabel(DialoforgeError):
    """A label does not belong to any ontology catalog."""


class EmptySplit(DialoforgeError):
    """Training requires a non-empty split."""


class DivergenceError(DialoforgeError):
    """Training loss became non-finite."""


class WidthMismatch(DialoforgeError):
    """State vector width does not match the model."""


class LengthMismatch(DialoforgeError):
    """Prediction and gold sequences differ in length or width."""
