"""Crossing-removal flips on straight-line perfect matchings.

Tools to run, audit and search the process that repeatedly replaces two
crossing matching segments by a non-crossing reconnection of their four
endpoints: exact integer predicates, the flip state machine, two potential
functions certifying termination bounds, worst-case instance generators, and
exact longest/shortest flip-sequence search.
"""

from .geometry import (
    COORD_LIMIT,
    CoordinateOverflowError,
    Point,
    PointSet,
    Segment,
    orient,
    seg,
    segments_properly_cross,
    shear_to_distinct_x,
    validate_general_position,
)
from .matching import (
    CrossingPair,
    FlipChoice,
    FlipError,
    FlipRecord,
    FlipTrace,
    Matching,
    ReplayError,
    apply_flip,
    crossings_after_flip,
    find_crossings,
    flip,
    is_noncrossing,
    replay,
    total_length,
)
from .potentials import (
    DecrementAudit,
    LineType,
    PerturbedLine,
    PotentialInvariantError,
    Side,
    decrement_audit,
    phi_lines,
    phi_lines_bound,
    phi_lines_bound_sharp,
    phi_vertical,
    phi_vertical_bound,
    phi_vertical_bound_gaps,
    x_ranks,
)
from .generators import (
    GenerationError,
    Instance,
    gen_convex,
    gen_random,
    gen_two_line,
    identity_perm,
    inversion_count,
    reverse_perm,
    two_line_permutation,
)
from .search import (
    EnumerationCapExceeded,
    ExtremalEstimates,
    FlipGraphCycleError,
    SearchLimits,
    SearchLimitsExceeded,
    Strategy,
    StrategyNotApplicableError,
    enumerate_all_matchings,
    extremal_estimates,
    greedy_choice,
    longest_flip_sequence,
    parse_strategy,
    run_strategy,
    shortest_flip_sequence,
    successors,
    trace_from_moves,
)

__version__ = "0.1.0"
