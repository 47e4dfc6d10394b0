"""Plaintext oracles that the tests check runs against; no run uses them."""

from collections import Counter

from dpviewsim.leakage import LogicalStream
from dpviewsim.transform import OperatorKind


def true_count(stream_a: LogicalStream, stream_b: LogicalStream | None,
               operator: OperatorKind, t: int) -> int:
    """Plaintext oracle over the logical databases, no truncation.

    Filter counts records with a nonzero first attribute; joins count
    key-matching pairs from a count of the right side's keys.
    """
    if operator is OperatorKind.FILTER:
        return sum(1 for rec in stream_a.arrivals
                   if rec.t <= t and rec.attrs and rec.attrs[0])
    if stream_b is None:
        raise ValueError(f"{operator.value} needs a right-hand stream")
    right = Counter(r.key for r in stream_b.arrivals if r.t <= t)
    return sum(right[a.key] for a in stream_a.arrivals if a.t <= t)
