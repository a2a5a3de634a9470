"""Resource guardrails shared by the counting modules and the CLI.

Kept apart from the modules that enforce them, so the CLI can catch a
refusal and print a default limit without importing the enforcing code.
"""

#: Largest ambient dimension the vertex oracle enumerates by default.
DEFAULT_LIMIT_DIM = 15


class ResourceLimitError(Exception):
    """Refusal to run an input above a resource guardrail (CLI exit 3)."""


class DegreeLimitError(ResourceLimitError):
    """Refusal to build a ``SparsePoly`` term above its packed-key degree limit."""
