"""Exception types raised across the package.  An error's class is its exit
code at the command line; any other exception is a bug."""


class DialoforgeError(Exception):
    """Base class for all package errors.  One that is neither a SchemaError
    nor a ValidationError is a runtime error: exit 2."""


class SchemaError(DialoforgeError):
    """An input file is malformed: wrong shape, types or keys, or a copy it
    carries (a count, a width, an event log) disagrees with what it is a copy
    of.  The message names the file and the line, key or member.  Exit 1."""


class ValidationError(DialoforgeError):
    """An input parses but breaks an invariant or a setting's type or range,
    names a label outside its catalog, or its provenance hash differs from the
    file it was made from.  The message names the file or setting and the
    offending element.  Exit 1."""
