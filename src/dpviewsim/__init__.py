"""Deterministic two-server simulator for DP materialized-view maintenance.

Modules:
    sharing    two-server XOR sharing over the 32-bit ring; one-expression word checks
    dpnoise    joint Laplace noise from server words
    randomness every word and variate from PCG64's raw words: the owners'
               streams, and the servers' words drawn in pairs
    obliv      secure cache kept as its real rows plus a slot count, which
               each step appends to and each sync or flush sorts, reads and
               (a flush) empties in place; sorts the reals of one or more
               same-length bitonic networks in their output order with one
               Timsort (one scan for keys already in order) and charges
               nothing, the network
               itself as the test oracle and its compare count a closed form;
               a read returns only the reals of the slots it reads; no
               cache, batch or sort builds a padding row
    transform  truncated view transformation with contribution budgets,
               whose step reads and updates the run's one state and returns
               its `step_sizes`, the one rule for a step's padded join
               lengths, output slots and compares; the step computes them
               once per retained depth and keeps them on the state for the
               steps after; the Filter keeps the rows that one fixed
               predicate, `selected`, keeps of a batch; a record's join slots
               per invocation, a function of its age alone, are the joins'
               only contribution bound; a join takes reals plus padded lengths and
               returns only its rows and sorts only when a real can join;
               the SMJ keys its smaller input, scans its larger input once,
               reads partners by key and sorts on (key, seq) only the
               accessing t2 reals of keys found on both sides; the NLJ
               indexes the inner reals whose key an outer holds and returns
               before probing when there are none
    shrink     the timer and above-noisy-threshold sync protocols, which
               differ only in when they run their one shared sync body, and
               the flush; each step updates the run's one state in place and
               returns only a report, on the steps that sync or flush; one
               helper shares each zero counter; the view kept as its real
               rows plus per-batch slot and real counts (only its padded
               `rows` read builds padding); the closed-form bounds
    transcript what each server observes: sizes, timestamps and shares, one
               plain row per observation, expanded per server into slotted
               events when first read
    leakage    reference DP mechanisms, one scalar body each, which replay a
               run's releases from an owner's steps up to the run's horizon;
               transcript audit; no module a run loads imports it
    harness    the run's config and its single validation, the run's one state
               (`RunState`: the config, seq stamps, randomness and transcript
               the steps read; the cache, counter, threshold, view, retained
               batches and their reals as one flat list per owner, produced
               rows and step sizes they update in place, and a DP run's noise
               scales, computed once), experiment loop (which charges each
               step's cost from sizes the servers see), baselines, an owner's
               stream as its `Steps` (a plain dict from each step to its
               records, with no horizon of its own), synthetic workloads drawn
               and handed out to the owners per step in one pass, CSV streams
               read per step, owner batches stamped from each step's records,
               metrics (a run pauses the cyclic garbage collector, then ages
               its objects into the oldest generation and restores the
               caller's setting, safe because a run builds no reference
               cycles, as test_run_builds_no_reference_cycles checks; both are
               process-wide: concurrent runs only lose the speed-up, a
               caller's young cyclic garbage waits for a full collection, and
               no ageing while the caller holds frozen objects)
    cli        command-line front end

The package root exports nothing: callers import the module they need. Every
function in the package is reached by a run, the CLI or the audit, apart from
a short allow-list of the paper's claims as code; tests/test_reachability
checks this.
"""

__version__ = "0.1.0"
