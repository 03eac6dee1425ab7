"""Exception types raised across the package.  An error's class is its exit
code at the command line; any other exception is a bug."""


class DialoforgeError(Exception):
    """Base class for all package errors.  One that is not a ValidationError
    is a runtime error: exit 2."""


class ValidationError(DialoforgeError):
    """An input is rejected: a file of the wrong shape, types or keys, a copy
    it carries (a count, a width, an event log) that disagrees with what it is
    a copy of, a setting of the wrong type or range, a broken invariant, a
    label outside its catalog, or a provenance hash that differs from the file
    it was made from.  The message names the file and the line, key or member,
    or the setting, and the offending element.  Exit 1."""
