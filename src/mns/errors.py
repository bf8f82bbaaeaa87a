"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when a dimension, parameter, or state fails input validation."""


class ConfigError(ValidationError):
    """Raised when an experiment configuration cannot be parsed or validated."""

