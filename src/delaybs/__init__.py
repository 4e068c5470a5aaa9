"""Pricing and hedging of European options under delayed volatility.

The stock's drift and volatility read the price at the start of the
current delay block; the library provides exact path simulation, the
equivalent-martingale-measure change, closed-form and Monte Carlo
pricers, a discrete replication harness, and two integrators for the
fixed-delay variant of the model.
"""

from .model import (
    CoefficientExpr,
    DriftFunctional,
    FixedDelaySfde,
    InitialPath,
    OptionSpec,
    RateCurve,
    VariableDelayMarket,
    block_schedule,
    discount_factor,
    floor_block,
    market_from_config,
    sfde_from_config,
    validate_market,
)
from .pricing import (
    MarketState,
    PricingResult,
    price_classical,
    price_closed,
    price_mc,
    price_semi,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientExpr",
    "DriftFunctional",
    "FixedDelaySfde",
    "InitialPath",
    "MarketState",
    "OptionSpec",
    "PricingResult",
    "RateCurve",
    "VariableDelayMarket",
    "block_schedule",
    "discount_factor",
    "floor_block",
    "market_from_config",
    "price_classical",
    "price_closed",
    "price_mc",
    "price_semi",
    "sfde_from_config",
    "validate_market",
]
