"""Shared exception types.

Exit-code mapping in the CLI: MathCheckError and NonIntegralError exit 1,
every other GlobfunError exits 2 with a one-line "error:" message, and a
clean run exits 0.
"""


class GlobfunError(Exception):
    """Base class for all package errors."""


class InvalidPermutationError(GlobfunError):
    """Images are not a bijection of {1..degree}, or cycle syntax is bad."""


class CapExceededError(GlobfunError):
    """A closure or enumeration went past its configured cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded cap {cap}")
        self.what = what
        self.cap = cap


class NotAHomomorphismError(GlobfunError):
    """Generator images do not extend to a homomorphism."""


class NotASubgroupError(GlobfunError):
    """A claimed subgroup relation fails."""


class UnsupportedGroupError(GlobfunError):
    """The group family is outside what an operation supports."""


class NonIntegralError(GlobfunError):
    """An exact integer computation produced a non-integer."""


class MathCheckError(GlobfunError):
    """A mathematical identity that must hold was found violated."""


class UsageError(GlobfunError):
    """Bad arguments at the CLI boundary."""
