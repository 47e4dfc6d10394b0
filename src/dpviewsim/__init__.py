"""Deterministic two-server simulator for DP materialized-view maintenance.

Modules:
    sharing    two-server XOR secret sharing over the 32-bit ring
    dpnoise    joint Laplace noise from server-contributed words
    obliv      secure cache kept as its real rows plus a slot count; sorts the
               reals of one or more same-length bitonic networks in their
               output order with one Timsort, at the padded networks'
               closed-form cost, the network itself as the test oracle; a
               read returns only the reals of the slots it reads
    transform  truncated view transformation with contribution budgets,
               reading the run's one validated config by attribute; a
               record's join slots per invocation are a function of its age
               alone; each transform takes reals plus padded input lengths
               and returns its real rows and a padded slot count; the SMJ
               sorts on (key, origin, seq) and scans only the reals of keys
               found on both sides; the NLJ probes a per-invocation key index
               with the real outers that have partners and sorts all its
               per-outer networks in one batched call
    shrink     the timer and above-noisy-threshold sync protocols and flush,
               which read the run's one config by attribute and report only
               the steps that sync or flush; the view kept as its real rows
               plus per-batch slot counts; the closed-form utility bounds
    transcript what each server observes: sizes, timestamps and shares, one
               plain row per observation, built into slotted events when first
               read
    leakage    reference DP mechanisms, empirical privacy loss, transcript audit
    harness    the run's config and its single validation, experiment
               driver, baselines, synthetic workloads, metrics
    cli        command-line front end
"""

from .sharing import SharePair, recover, share, share_in_protocol

__all__ = ["SharePair", "share", "recover", "share_in_protocol"]
__version__ = "0.1.0"
