"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems exit 2, resource-cap
breaches and a MemoryError exit 3, experiment verdict failures exit 1. Any
other exception, such as the ArithmeticError of a probability beyond
numerical slack, is an internal fault and exits 4, never 1.
"""


class DomainError(ValueError):
    """A symbol, alphabet, or argument violates an operation's domain."""


class RangeError(ValueError):
    """A horizon or index runs past what the inputs can support."""


class ResourceError(RuntimeError):
    """An enumeration or table would exceed a configured resource cap."""


class ConfigError(ValueError):
    """A config file or inline config fails schema validation."""


class NotPrefixFreeError(ValueError):
    """An operation requiring a prefix-free word function got one that is not."""


class DecodeError(ValueError):
    """An output block cannot be parsed into codewords.

    ``position`` is the 0-based index of the first symbol that cannot be
    extended to any codeword.
    """

    def __init__(self, message, position):
        super().__init__(message)
        self.position = position


class UnsupportedModelError(ValueError):
    """A model lacks a property (irreducibility, aperiodicity) the operation needs."""
