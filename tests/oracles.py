"""Oracles that the tests check runs against; no run uses them: an owner's
steps as a list of time-stamped records and back, the plaintext count,
inverse-CDF Laplace draws, `leakage`'s reference mechanisms over many trials,
and the empirical privacy-loss estimator (the black-box approach of Ding et
al., CCS 2018)."""

import math
from collections import Counter
from typing import Iterable, NamedTuple

import numpy as np

from dpviewsim.harness import Steps
from dpviewsim.leakage import arrivals_per_step, m_timer
from dpviewsim.shrink import ant_scales
from dpviewsim.transform import OperatorKind


class Arrival(NamedTuple):
    """One record of a logical stream with its step."""

    t: int
    key: int
    attrs: tuple[int, ...]


def arrivals(steps: Steps) -> list[Arrival]:
    """The records of `steps`, step by step and in hand-out order within a
    step."""
    return [Arrival(t, key, attrs) for t in sorted(steps) for key, attrs in steps[t]]


def logical_stream(records: Iterable[Arrival]) -> Steps:
    """The steps of `records`, in their order within each step."""
    steps: Steps = {}
    for t, key, attrs in records:
        steps.setdefault(t, []).append((key, attrs))
    return steps


def true_count(stream_a: Steps, stream_b: Steps | None,
               operator: OperatorKind, t: int) -> int:
    """Plaintext oracle over the logical databases, no truncation.

    Filter counts records with a nonzero first attribute; joins count
    key-matching pairs from a count of the right side's keys.
    """
    if operator is OperatorKind.FILTER:
        return sum(1 for rec in arrivals(stream_a)
                   if rec.t <= t and rec.attrs and rec.attrs[0])
    if stream_b is None:
        raise ValueError(f"{operator.value} needs a right-hand stream")
    right = Counter(r.key for r in arrivals(stream_b) if r.t <= t)
    return sum(right[a.key] for a in arrivals(stream_a) if a.t <= t)


class NeighborViolation(ValueError):
    """The two streams do not differ by exactly one logical update."""


def assert_neighbors(a: Steps, b: Steps) -> None:
    """Neighbors differ by the addition or removal of one logical update."""
    ca, cb = Counter(arrivals(a)), Counter(arrivals(b))
    n_extra, n_missing = sum((ca - cb).values()), sum((cb - ca).values())
    if (n_extra, n_missing) not in ((1, 0), (0, 1)):
        raise NeighborViolation(
            f"streams differ by {n_extra} additions and {n_missing} removals")


def laplace_inverse_cdf(u: float | np.ndarray, scale: float) -> float | np.ndarray:
    """Inverse CDF of Laplace(0, scale) at each u in (0, 1)."""
    if not np.all((0.0 < u) & (u < 1.0)):
        raise ValueError(f"u must be in (0,1), got {u}")
    d = u - 0.5
    return -scale * np.sign(d) * np.log1p(-2.0 * np.abs(d))


def laplace_oracle(scale: float, rng: np.random.Generator,
                   n: int | tuple[int, ...] | None = None) -> float | np.ndarray:
    """Reference inverse-CDF Laplace draws from a seeded generator: one float,
    or an array of shape n (an int or a tuple)."""
    u = np.array(rng.random(n))
    while (zero := u == 0.0).any():  # keep every u strictly inside (0,1)
        u[zero] = rng.random(int(zero.sum()))
    x = laplace_inverse_cdf(u, scale)
    return x if n is not None else float(x)


def timer_mechanism(stream: Steps, trials: int, draw, horizon: int, T: int, b: float,
                    epsilon: float) -> np.ndarray:
    """`m_timer` up to `horizon` over `trials` trials, one draw per trial and
    release."""
    out = m_timer(stream, horizon, T, b, epsilon, lambda scale: draw(scale, trials))
    return np.array([v for _, v in out]).reshape(len(out), trials).T


def ant_mechanism(stream: Steps, trials: int, draw, horizon: int, theta: float, b: float,
                  epsilon: float, variant: str = "protocol") -> np.ndarray:
    """`m_ant` up to `horizon` over `trials` runs at once, a row per run and a
    column per step, 0.0 where a step releases nothing. In `m_ant`'s order,
    `draw(scale, n)` gives the n runs that need one each a threshold, a check
    per step, then a release and a refresh per trigger. The output scale is
    the protocol's, or the proofs' 4b/epsilon for `variant` "proof"."""
    cum = np.cumsum(arrivals_per_step(stream, horizon))
    th_scale, check_scale, out_scale = ant_scales(b, epsilon)
    if variant == "proof":
        out_scale = b / (epsilon / 4)
    elif variant != "protocol":
        raise ValueError(f"unknown variant {variant!r}")
    noisy_th = theta + draw(th_scale, trials)
    last_cum = np.zeros(trials)
    out = np.zeros((trials, horizon))
    for t in range(1, horizon + 1):
        since = cum[t] - last_cum
        trig = since + draw(check_scale, trials) >= noisy_th
        if trig.any():
            hits = int(trig.sum())
            out[trig, t - 1] = since[trig] + draw(out_scale, hits)
            noisy_th[trig] = theta + draw(th_scale, hits)
            last_cum[trig] = cum[t]
    return out


def empirical_privacy_loss(run, stream_a: Steps, stream_b: Steps,
                           trials: int, seed: int = 0, min_bin: int | None = None) -> float:
    """Estimate max_o |ln(Pr_a[o] / Pr_b[o])| over binned output vectors.

    `run(stream, trials, draw)` gives one output vector per trial as the rows
    of an array; its `draw(scale, n)` makes n `laplace_oracle` draws from a
    generator of each stream's own. Outputs are quantized to integers per
    timestep; bins need at least min_bin samples on both sides to enter the
    maximum. The default cutoff grows with the trial count (never below 100)
    so the sampling noise on a qualifying bin's log-ratio stays well under the
    scales being measured. Identical streams are accepted as a degenerate case
    (the estimator's noise floor).
    """
    if min_bin is None:
        min_bin = max(100, trials // 20)
    if sorted(arrivals(stream_a)) != sorted(arrivals(stream_b)):
        assert_neighbors(stream_a, stream_b)
    rng_a, rng_b = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    def histogram(stream, rng):
        draws = run(stream, trials, lambda scale, n: laplace_oracle(scale, rng, n))
        quantized = np.floor(draws + 0.5).astype(np.int64)
        if not quantized.shape[1]:  # no column to zip: every trial's vector is ()
            return Counter({(): len(quantized)})
        return Counter(zip(*quantized.T.tolist()))

    bins_a, bins_b = histogram(stream_a, rng_a), histogram(stream_b, rng_b)
    worst = 0.0
    for key, ca in bins_a.items():
        cb = bins_b.get(key, 0)
        if ca >= min_bin and cb >= min_bin:
            worst = max(worst, abs(math.log(ca / cb)))
    return worst
