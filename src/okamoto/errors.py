"""Exception hierarchy and the memory budget shared by all modules."""

#: Most bytes one call may spend on what it builds: the vertices of one level,
#: digits, a trace, chaos points (512 MiB).
CONSTRUCTION_BUDGET = 2**29


class OkamotoError(Exception):
    """Base class for all library errors."""


class DomainError(OkamotoError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedRegionError(DomainError):
    """The parameter value falls in a region the operation does not cover."""


class ResourceError(OkamotoError, ValueError):
    """A requested level exceeds what the call can build: its memory budget or float range."""


class PrecisionError(OkamotoError, ArithmeticError):
    """The requested tolerance cannot be certified with the given inputs.

    ``achievable`` carries the best error bound that was reachable."""

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


def check_budget(need: int, what: str, detail: str) -> None:
    """Refuse, before anything is allocated, a call estimated to need over CONSTRUCTION_BUDGET bytes."""
    if need > CONSTRUCTION_BUDGET:
        raise ResourceError(f"{what} needs over {CONSTRUCTION_BUDGET >> 20} MiB: {detail}")
