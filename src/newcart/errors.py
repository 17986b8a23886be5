"""Exception types shared across the package."""


class NewcartError(Exception):
    """Base class for every error raised by this package.

    An error raised by an evaluation over a stack of points names the
    failing point by its index in the flattened stack as `point`."""

    point = None


class ExprSyntaxError(NewcartError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifier(NewcartError):
    """Identifier is neither a coordinate name nor a known function."""

    def __init__(self, name, position):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier '{name}' at position {position}")


class DomainError(NewcartError):
    """Evaluation left the domain of an operation (log, sqrt, division).

    `reason` and the failing `subexpression` let a caller reprint the
    message in the chart's coordinate names."""

    def __init__(self, message, subexpression=None, reason=None):
        self.subexpression = subexpression
        self.reason = reason
        super().__init__(message)


class FrameDegenerate(NewcartError):
    """Spatial frame loses rank (or the adapted basis is singular) at a point."""


class MetricSingular(NewcartError):
    """Spatial metric is numerically singular at a requested point."""


class ScenarioError(NewcartError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario file content."""

    def __init__(self, message, section=None, key=None, line=None):
        self.section = section
        self.key = key
        self.line = line
        where = []
        if section:
            where.append(f"section [{section}]")
        if key:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class MissingSection(ScenarioError):
    def __init__(self, names):
        self.names = tuple(names)
        super().__init__("missing required section(s): " + ", ".join(self.names))


class DimensionMismatch(ScenarioError):
    """An entry list or index does not match the chart dimensions."""
