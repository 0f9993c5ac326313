"""Shared exception types, and the ASCII decoding that reports where it failed."""


class NestedAmcError(Exception):
    """Base class for all library errors."""


class PreconditionError(NestedAmcError):
    """An operation was called outside its stated contract."""


class ConfigError(NestedAmcError):
    """An instance or task is missing required annotations or is inconsistent."""


class ParseError(NestedAmcError):
    """Malformed textual input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(NestedAmcError):
    """A configured resource guard was exceeded; carries partial statistics."""

    def __init__(self, message, stats=None):
        self.stats = stats
        super().__init__(message)


def decode_ascii(data: bytes, source: str = "input") -> str:
    """Decode ASCII text; a non-ASCII byte is a ParseError on its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ASCII byte in {source}", data.count(b"\n", 0, e.start) + 1)
