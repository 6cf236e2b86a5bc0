"""Exception types shared across the package."""


class AlgebraDefinitionError(ValueError):
    """Invalid quiver/relation data (bad p, dangling arrows, bad paths)."""


class ModuleDefinitionError(ValueError):
    """Module data inconsistent with its algebra (shapes, relations)."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured size bounds."""


class InputFormatError(ValueError):
    """Malformed input document (bad JSON, missing or ill-typed fields)."""


class InvariantError(RuntimeError):
    """A self-check of a computed result failed (a bug, not bad input)."""
