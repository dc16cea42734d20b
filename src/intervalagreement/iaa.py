"""Build agreement fuzzy sets from crisp interval collections.

Membership at any point is the fraction of source intervals containing it,
which yields an exact step function whose breakpoints are the distinct
interval endpoints. No sampling is involved, so downstream agreement ratios
carry zero discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fuzzyset import PiecewiseConstant
from .intervals import IntervalCollection, coverage_cells


@dataclass(frozen=True, eq=False)
class AgreementFS(PiecewiseConstant):
    """Step-function agreement set; every level is a multiple of 1/n.

    Point-width responses count toward n but cover no measurable region, so
    they leave the step representation unchanged (membership differs from
    the counting definition only on that measure-zero set).
    """

    n: int

    def __post_init__(self):
        super().__post_init__()
        if self.n < 1:
            raise ValueError("participant count must be >= 1")


def build_iaa(coll: IntervalCollection) -> AgreementFS:
    """Aggregate a collection into its exact agreement step function."""
    coords, counts = coverage_cells(coll)
    return AgreementFS(
        breakpoints=coords,
        levels=counts / coll.n,
        n=coll.n,
    )
