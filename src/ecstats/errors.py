"""The package's one exception type.

Every rejected input raises DomainError (a ValueError), and its message names
the fault; the CLI reports it in one line, so any other exception keeps its
traceback.
"""


class DomainError(ValueError):
    """An argument outside the domain of the operation."""
