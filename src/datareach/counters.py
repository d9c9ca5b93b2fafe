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
VOLUME = contextvars.ContextVar("datareach_volume_counts", default=None)


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
    "capped_calls" (calls that took all refine_iters steps), "evaluations"
    (gains the ascent evaluated: one at its start, one per trial point that
    differs from the current point), "seconds"}.
    """
    return _counting(DESIGN, dict.fromkeys(
        ("calls", "refine_iterations", "capped_calls", "evaluations", "seconds"), 0))


def volume_counts():
    """Count the sets.volume calls inside the block.

    Yields {"calls", "columns" (generators of the sets measured),
    "directions" (columns left after zero columns are dropped and parallel
    ones merged; a 1-D set keeps its columns), "subsets" (the C(directions,
    n) terms its sum enumerated), "seconds"}.  Calls that refuse are not
    counted.
    """
    return _counting(VOLUME, dict.fromkeys(
        ("calls", "columns", "directions", "subsets", "seconds"), 0))
