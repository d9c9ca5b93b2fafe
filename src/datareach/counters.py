"""Run counters for metadata.json, held in context variables.

A study opens a counting block and gets the dict that fills inside it.  The
counted functions read their context variable and skip the tally when it is
None, so nothing is counted, or paid for, outside a block.  An inner block
counts in its own dict only.
"""

import contextvars
from contextlib import contextmanager

LP = contextvars.ContextVar("datareach_lp_counts", default=None)
DESIGN = contextvars.ContextVar("datareach_design_counts", default=None)


@contextmanager
def _counting(var, counts):
    token = var.set(counts)
    try:
        yield counts
    finally:
        var.reset(token)


def lp_counts():
    """Count the LPs that linalg.lp_solve runs inside the block, by purpose.

    Yields a dict that fills as LPs run: purpose -> {"calls",
    "objectives", "cold_starts" (calls given no starting basis),
    "simplex_iterations", "seconds"}.
    """
    return _counting(LP, {})


def design_counts():
    """Count the inputdesign.design_input calls inside the block.

    Yields {"calls", "refine_iterations" (accepted ascent steps),
    "capped_calls" (calls that took all refine_iters steps), "seconds"}.
    """
    return _counting(DESIGN, dict.fromkeys(
        ("calls", "refine_iterations", "capped_calls", "seconds"), 0))
