"""Shared exception types.

Exit-code mapping in the CLI: MathCheckError and NonIntegralError exit 1,
every other GlobfunError exits 2 with a one-line "error:" message, and a
clean run exits 0.

Caps are read here alone: `_cap` reads the variable `_CAPS` names at each
check, so the library and the CLI always see the same value.
"""

import os


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


_CAPS = {
    "group order": ("GLOBFUN_MAX_GROUP_ORDER", 50000),
    "subgroup lattice order": ("GLOBFUN_MAX_LATTICE_ORDER", 1000),
}


def _read_int(text: str) -> int:
    """The integer `text` spells as ASCII -?[0-9]+; int() alone also reads
    other scripts' digits, underscores, a + sign and surrounding blanks."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _cap(what: str) -> int:
    """The cap on `what`, from the environment now; UsageError unless positive."""
    name, default = _CAPS[what]
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        cap = _read_int(text)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise UsageError(f"{name} must be a positive integer, got {text!r}")
    return cap
