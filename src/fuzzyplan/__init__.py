"""Distributor transportation planning under fuzzy and probabilistic uncertainty."""

from .intervals import Interval
from .fuzzy import AlphaGrid, TrapezoidalFuzzyNumber

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "TrapezoidalFuzzyNumber",
    "AlphaGrid",
]
