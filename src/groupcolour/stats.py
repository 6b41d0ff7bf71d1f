"""Exact commuting statistics.

The commuting probability is always an exact rational; floats appear only
when callers format reports.  The pair count is computed two independent
ways (the pairs with xy = yx, read off the table against its transpose, and
|G| times the class number) which must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError
from .groups import ConjugacyData, GroupTable, conjugacy


@dataclass(frozen=True)
class CommutingReport:
    pairs_total: int
    pairs_commuting: int
    c: Fraction
    num_classes: int


def is_abelian(g: GroupTable) -> bool:
    return np.array_equal(g.mul_array, g.mul_array.T)


def commuting_probability(g: GroupTable, conj: ConjugacyData | None = None) -> CommutingReport:
    n = g.order
    m = g.mul_array
    count = int(np.count_nonzero(m == m.T))

    if conj is None:
        conj = conjugacy(g)
    by_classes = n * conj.num_classes
    if count != by_classes:
        raise ConsistencyError(
            f"commuting pair count mismatch: loop={count} classes={by_classes}"
        )
    return CommutingReport(
        pairs_total=n * n,
        pairs_commuting=count,
        c=Fraction(count, n * n),
        num_classes=conj.num_classes,
    )
