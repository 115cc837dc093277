"""Measurement analysis: shape checks for the reproduced figures."""

from .analysis import (
    dip_and_recovery,
    flat_through,
    is_monotonic_increasing,
    step_ratios,
)

__all__ = [
    "dip_and_recovery",
    "flat_through",
    "is_monotonic_increasing",
    "step_ratios",
]
