"""Error types and the default resource caps shared across the package.

Exit-code mapping at the CLI: InvalidInputError -> 2, ResourceCapError -> 3.
"""


class InvalidInputError(ValueError):
    """Raised when an argument violates a precondition (bad modulus, non-prime
    level, malformed module description, non-coprime CRT moduli, ...)."""


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed a configured cap (orbit or closure
    size, point count, prime bound).  Fail loudly rather than thrash."""


# Defaults of the caps above; here so the CLI parser needs no compute module.
DEFAULT_MAX_CLOSURE = 10 ** 6
DEFAULT_MAX_POINTS = 10 ** 7
