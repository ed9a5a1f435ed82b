"""Runtime size limits.

The limits are configuration, not physics: Python ints hold arbitrarily wide
bit masks, so the width cap exists to keep exact searches inside a budget the
solvers were designed for, and to make overflow a loud error instead of a
silent ten-hour run.
"""

import os

from .errors import ParameterError

DEFAULT_MAX_WIDTH = 64

# enumerate_optimal_rdfs refuses larger graphs: the number of optimal Roman
# functions grows exponentially (3^k on k disjoint edges), and the callers
# that read optima fall back to the solver witness past this order.
DEFAULT_ENUM_GUARD = 26

DEFAULT_SUITE_BUDGET = 10**8

ENV_MAX_WIDTH = "ROMDOM_MAX_WIDTH"


def max_width() -> int:
    """Vertex capacity applied to every constructed graph.

    Reads ``ROMDOM_MAX_WIDTH`` from the environment on each call so test
    harnesses can adjust it without reloading the package.
    """
    raw = os.environ.get(ENV_MAX_WIDTH)
    if raw is None:
        return DEFAULT_MAX_WIDTH
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_MAX_WIDTH} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(f"{ENV_MAX_WIDTH} must be positive, got {value}")
    return value
