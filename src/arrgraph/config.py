"""Runtime configuration with environment-variable overrides.

Every field can be overridden by an ``ARRGRAPH_``-prefixed variable,
e.g. ``ARRGRAPH_NODE_BUDGET=500000``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ValidationError

ENV_PREFIX = "ARRGRAPH_"


def decimal(text: str) -> int:
    """The int that text writes in at most 4300 ASCII decimal digits after an
    optional "-", where int() would also take "+", spaces, "_" and other
    scripts' digits: the package's one parser of integers given by users."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 4300):
        raise ValidationError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


@dataclass(frozen=True)
class Config:
    # Max nodes of each search tree: the individualization-refinement
    # search and the maximum-independent-set search.
    node_budget: int = 10**7
    # Max vertex count for graph construction and for loaded graphs.
    vertex_guard: int = 50_000
    # Worker pool size for the verification suite.
    workers: int = 1
    # Seed for all derived RNG streams (shuffled copies, random subsets).
    seed: int = 20240811

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int:
                raise ValidationError(f"config field {f.name} must be an int, got {v!r}")
            if f.name != "seed" and v <= 0:
                raise ValidationError(f"config field {f.name} must be positive, got {v}")

    @classmethod
    def from_env(cls) -> "Config":
        """Build a Config from ARRGRAPH_* environment variables."""
        kwargs = {}
        for f in fields(cls):
            env = os.environ.get(ENV_PREFIX + f.name.upper())
            if env is not None:
                try:
                    kwargs[f.name] = decimal(env)
                except ValidationError as exc:
                    raise ValidationError(
                        f"environment variable {ENV_PREFIX + f.name.upper()}: {exc}") from None
        return cls(**kwargs)


DEFAULT_CONFIG = Config()
