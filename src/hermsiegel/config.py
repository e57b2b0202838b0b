"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

from .errors import UsageError
from .overlat import DEFAULT_BUDGET
from .oracle import DEFAULT_NODE_BUDGET


def _env_budget(default: int) -> int:
    raw = os.environ.get("HERMSIEGEL_BUDGET")
    if raw is None:
        return default
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise UsageError(f"HERMSIEGEL_BUDGET must be a positive integer, got {raw!r}")
    return budget


@dataclass
class RunConfig:
    p: int = 3
    eps: int | None = None
    enum_budget: int = dc_field(default_factory=lambda: _env_budget(DEFAULT_BUDGET))
    oracle_budget: int = dc_field(default_factory=lambda: _env_budget(DEFAULT_NODE_BUDGET))
    seed: int = 0
