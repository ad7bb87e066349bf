"""Exception hierarchy shared across the toolkit."""


class CollabmapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CollabmapError):
    """Invalid configuration: bad paths, bad thresholds, bad registry data."""


class ParseError(CollabmapError):
    """Malformed input record (raised in strict parse mode only)."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}: line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class DataError(CollabmapError):
    """Inconsistent data handed between pipeline stages."""
