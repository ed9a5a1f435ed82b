"""Runtime size limits.

The limits are configuration, not physics: Python ints hold arbitrarily wide
bit masks, so the width cap exists to keep exact searches inside a budget the
solvers were designed for, and to make overflow a loud error instead of a
silent ten-hour run.
"""

# the vertex capacity of every constructed graph
DEFAULT_MAX_WIDTH = 64

# enumerate_optimal_rdfs refuses larger graphs: the number of optimal Roman
# functions grows exponentially (3^k on k disjoint edges), and the callers
# that read optima fall back to the solver witness past this order.
DEFAULT_ENUM_GUARD = 26

DEFAULT_SUITE_BUDGET = 10**8
