"""Competitive equilibria for multi-unit combinatorial auctions with
quadratic valuations and anonymous quadratic pricing."""

from .caps import Caps, CapExceededError, DEFAULT_CAPS
from .model import (
    Allocation,
    Bundle,
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    aggregate,
    char_vector,
    project,
    shift,
)
from .polytope import (
    Face,
    enumerate_aggregates,
    enumerate_decompositions,
    minkowski_contains,
    nested_chain_point,
    vertex_sum_contains,
    vertices_P,
)
from .demand import (
    DemandSet,
    demand_set,
    max_welfare,
    seller_demand,
    verify_ce,
    verify_pe,
)
from .linprog import InternalError, LinearProgram, LPResult, lp_solve
from .pricing import (
    CEResult,
    FOUND,
    INFEASIBLE_AT_POINT,
    NO_POINT_FOUND,
    ce_for_covering,
    ce_price_at_point,
    optimal_ce,
)

__version__ = "0.1.0"
