"""hedgelab: a numerical laboratory for self-financing trading strategies.

Simulates stock and money-market paths, keeps an exact discrete-time
portfolio ledger, and runs experiments verifying that a strategy's value
changes only through its holdings' prices exactly when it is
self-financing.
"""

__version__ = "0.1.0"

# The library example in the README; every other name is imported from its
# own module (hedgelab.paths, hedgelab.ledger, ...).
from .ledger import ito_expansion_terms, self_financing_defect
from .paths import GbmParams, gbm_path, generate_brownian, uniform_grid
from .strategies import EuropeanCall, broken_strategy, delta_hedge

__all__ = [
    "EuropeanCall",
    "GbmParams",
    "broken_strategy",
    "delta_hedge",
    "gbm_path",
    "generate_brownian",
    "ito_expansion_terms",
    "self_financing_defect",
    "uniform_grid",
]
