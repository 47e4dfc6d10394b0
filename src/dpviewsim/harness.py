"""End-to-end experiment driver: config, streams, run loop, baselines, metrics.

One experiment = one seeded timeline driving owner uploads, the truncated
transformation, the chosen sync protocol (or a baseline), the periodic flush,
and a count query. Everything is deterministic given (config, seed). The
run's one `RunState` carries the secure cache, the shared counter, DPANT's
shared noisy threshold and the view from step to step; each step updates it
in place and returns only its report.
"""

from __future__ import annotations

import enum
import gc
import io
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterable, Iterator, TextIO

from .leakage import LogicalStream
from .obliv import SecureCache, SecureTuple, cache_read, network_comparison_count, secure_tuple
from .randomness import RawStream, ServerRandomness
from .sharing import RING_SIZE, SharePair
from .shrink import (FlushReport, MaterializedView, SyncReport, ThresholdShares, ant_scales,
                     flush_step, sdp_ant_init, sdp_ant_step, sdp_timer_step, timer_scale,
                     zero_counter)
from .transcript import Transcript, TranscriptKind
from .transform import (OperatorKind, StepSizes, retention_steps, selected, step_sizes,
                        transform_step)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, path: str):
        super().__init__(f"line {line}: {path}: {message}")
        self.line = line


class CapacityExceeded(ValueError):
    """More records arrived in one step than the owner batch can carry."""


class Protocol(enum.Enum):
    DP_TIMER = "DPTimer"
    DP_ANT = "DPANT"
    OTM = "OTM"
    EP = "EP"
    NM = "NM"


class Profile(enum.Enum):
    STANDARD = "Standard"
    SPARSE = "Sparse"
    BURST = "Burst"


@dataclass
class ExperimentConfig:
    protocol: Protocol = Protocol.DP_TIMER
    operator: OperatorKind = OperatorKind.SMJ
    epsilon: float = 1.5
    b: int = 10
    omega: int = 1
    T: int = 10
    theta: float = 30.0
    f: int = 2000
    s: int = 15
    c_r: int = 5
    horizon: int = 2000
    query_interval: int = 1
    seed: int = 0
    profile: Profile = Profile.STANDARD
    multiplicity: int = 1
    stream_a: str | None = None
    stream_b: str | None = None
    scan_cache: bool = False
    trials: int = 1


# The keys a config file or an override may set.
_FIELD_NAMES = frozenset(f.name for f in fields(ExperimentConfig))

# In field order, so that of several invalid fields the first is named.
_POSITIVE = ("b", "omega", "c_r", "horizon", "query_interval", "multiplicity", "trials")


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    for name in _POSITIVE:
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(config, name)}")
    for name in ("epsilon", "theta"):
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(config, name)}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if config.omega > config.b:
        raise ConfigError(f"omega ({config.omega}) must not exceed b ({config.b})")
    if retention_steps(config) > sys.maxsize:
        raise ConfigError(f"ceil(b / omega) retention steps must not exceed {sys.maxsize}")
    if config.protocol in (Protocol.DP_TIMER, Protocol.DP_ANT):
        if config.epsilon <= 0:
            raise ConfigError("DP protocols require epsilon > 0")
        # A joint draw lies within ln(2**31 + 1) scales of zero (dpnoise.fixed_point),
        # so a sync may read that many of the protocol's largest scale in cache slots;
        # len(cache) cannot exceed sys.maxsize. A sub-budget that rounds to zero
        # (ZeroDivisionError) or a b past the float range (OverflowError) is an
        # unbounded scale, as is a quotient that overflows to inf.
        try:
            scale = max(_noise_scales(config))
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        largest = scale * math.log((1 << 31) + 1)
        if not largest < sys.maxsize:  # also rejects inf
            raise ConfigError(f"noise scale {scale:.3g} allows syncs of {largest:.3g} "
                              f"slots, more than len(cache) can count")
        if config.f < 1 or config.s < 0:
            raise ConfigError("flush parameters require f >= 1 and s >= 0")
    if config.protocol is Protocol.DP_TIMER and config.T < 1:
        raise ConfigError("DPTimer requires update interval T >= 1")
    if config.protocol is Protocol.DP_ANT and config.theta <= 0:
        raise ConfigError("DPANT requires sync threshold theta > 0")
    if config.query_interval > config.horizon:
        raise ConfigError(f"query_interval ({config.query_interval}) exceeds horizon "
                          f"({config.horizon}), so no query would be answered")
    if config.operator is OperatorKind.FILTER:
        if config.stream_b is not None:
            raise ConfigError("the Filter operator reads one stream; stream_b must be unset")
    elif (config.stream_a is None) != (config.stream_b is None):
        raise ConfigError("join operators need both stream files or a profile")
    return config


def _noise_scales(config: ExperimentConfig) -> tuple[float, ...]:
    """DPANT's (threshold, check, output) noise scales, or DPTimer's one."""
    if config.protocol is Protocol.DP_ANT:
        return ant_scales(config.b, config.epsilon)
    return (timer_scale(config.b, config.epsilon),)


def _read_text(path: str) -> io.StringIO:
    """The file's lines as `open` reads them, but decoded as UTF-8 whatever
    the locale, after a leading byte-order mark if there is one; a byte that
    is not UTF-8 raises ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8-sig"), newline=None)
    except UnicodeDecodeError as exc:  # exc.object is the data after the mark
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8",
                         exc.object.count(b"\n", 0, exc.start) + 1, path) from None


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines of UTF-8 text; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        lines = _read_text(path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


_ENUM_FIELDS = {"protocol": Protocol, "operator": OperatorKind, "profile": Profile}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def coerce_config(values: dict[str, str]) -> ExperimentConfig:
    """Build a config from string key=value pairs (file or CLI overrides)."""
    kwargs = {}
    defaults = ExperimentConfig()
    for key, raw in values.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _ENUM_FIELDS:
            enum_cls = _ENUM_FIELDS[key]
            try:
                kwargs[key] = enum_cls(raw)
            except ValueError:
                valid = ", ".join(e.value for e in enum_cls)
                raise ConfigError(f"{key} must be one of: {valid}") from None
            continue
        current = getattr(defaults, key)
        try:
            if key in ("stream_a", "stream_b"):
                kwargs[key] = raw or None
            elif isinstance(current, bool):
                kwargs[key] = _BOOLS[raw.lower()]
            elif isinstance(current, int):
                kwargs[key] = int(raw)
            elif isinstance(current, float):
                kwargs[key] = float(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return validate_config(ExperimentConfig(**kwargs))


@dataclass
class MetricsRecord:
    time: int
    l1_error: float
    relative_error: float
    view_rows_total: int
    view_rows_real: int
    deferred_real: int
    discarded_by_truncation: int
    cost_proxy: int
    transcript_events: int

    def __post_init__(self):
        if not (math.isfinite(self.l1_error) and math.isfinite(self.relative_error)):
            raise ValueError(f"metrics at time {self.time}: NaN or infinite, which JSON lacks")


# A record's line as json.dumps(vars(rec), separators=(",", ":")) spells it:
# the repr of a finite float is exactly json's spelling.
_METRICS_LINE = "{" + ",".join(f'"{f.name}":%{"r" if f.type == "float" else "d"}'
                               for f in fields(MetricsRecord)) + "}\n"
_metrics_values = attrgetter(*(f.name for f in fields(MetricsRecord)))


def emit_metrics(records: Iterable[MetricsRecord], out: str | TextIO) -> None:
    """One JSON object per line, snake_case fields, byte-deterministic.

    `out` is a file path or an open text stream.
    """
    if isinstance(out, str):
        with open(out, "w") as fh:
            emit_metrics(records, fh)
        return
    out.writelines(_METRICS_LINE % _metrics_values(rec) for rec in records)


# ---------------------------------------------------------------------------
# Streams.

def load_stream(path: str) -> LogicalStream:
    """UTF-8 CSV with header t,key,attr...; integer fields; each step's rows
    in file order, the horizon the last t."""
    steps: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    with _read_text(path) as fh:
        header = fh.readline()
        if not header:
            raise ParseError("missing header", 1, path)
        cols = [c.strip() for c in header.strip().split(",")]
        if len(cols) < 2 or cols[0] != "t" or cols[1] != "key":
            raise ParseError(f"header must start with 't,key', got {header.strip()!r}", 1, path)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ParseError(f"expected {len(cols)} fields, got {len(parts)}", lineno, path)
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno, path) from None
            if values[0] < 1:
                raise ParseError(f"time must be >= 1, got {values[0]}", lineno, path)
            if not 0 <= values[1] < RING_SIZE:
                raise ParseError(f"key out of 32-bit range: {values[1]}", lineno, path)
            steps.setdefault(values[0], []).append((values[1], tuple(values[2:])))
    return LogicalStream(dict(sorted(steps.items())), max(steps, default=0))


def client_batches(stream: LogicalStream, c_r: int, horizon: int,
                   seqs: Iterator[int]) -> list[list[SecureTuple]]:
    """Owner batches of c_r slots for steps 1..horizon, each kept as its real
    arrivals, stamped with their seqs and step; later steps are not read."""
    steps = stream.steps
    batches = []
    for t in range(1, horizon + 1):
        recs = steps.get(t, ())
        if len(recs) > c_r:
            raise CapacityExceeded(
                f"step {t}: {len(recs)} arrivals exceed owner batch size {c_r}")
        batches.append([secure_tuple((key, attrs, next(seqs), t, ())) for key, attrs in recs])
    return batches


_BURST_PERIOD = 40
_BURST_ON = 20
_PAIRS_PER_STEP = 2.5  # Standard's expected join pairs per step


def synth_stream(profile: Profile, seed: int, horizon: int,
                 multiplicity: int = 1, cap: int = 5, *, right: bool = True
                 ) -> tuple[LogicalStream, LogicalStream | None]:
    """Paired join streams with a controlled expected match count.

    Owner A receives records with fresh keys; for each "matched" A key,
    `multiplicity` B records carrying that key arrive within the next step,
    so every matched group contributes exactly `multiplicity` join pairs.
    Sparse carries 10% of Standard's expected pairs; Burst carries 2x,
    delivered in on/off duty cycles (20 loaded steps out of every 40). Burst
    runs need an owner batch size of about 12 to carry the spikes. Per-step
    arrivals are capped at `cap` per owner; overflow spills deterministically
    into following steps.

    The draws come from a `RawStream` on PCG64(SeedSequence([seed, 7])): it
    reads the raw words a block at a time, returns plain ints and floats, and
    gives what numpy's Generator on that bit generator would. Each step draws
    the attributes of all its groups in one call, A's then B's `multiplicity`
    for each group in turn; a bounded integer takes the same 32-bit draws
    whether drawn alone or in a block, so the streams equal those of
    per-record draws.

    Records are handed out in the pass that draws them. At the end of each
    step an owner sends its first `cap` waiting records as the step's
    records: its carry, then the records due at the step in draw order. The
    rest wait; those left after the horizon are dropped.

    With `right=False` B comes back as None and none of its records are
    built, but every B draw is still made (its attributes in each block, its
    noise test and its noise attribute), so A equals A of a `right=True` call.
    """
    rng = RawStream([seed, 7])
    group_rate = _PAIRS_PER_STEP / multiplicity
    if profile is Profile.SPARSE:
        group_rate *= 0.1
    noise_rate = min(0.5, group_rate * 0.2)
    burst_rate = 2 * group_rate * _BURST_PERIOD / _BURST_ON  # 2x Standard, when on

    # Each owner's (key, attrs) records: handed out per step, and waiting.
    out_a, out_b, wait_a, wait_b = {}, {}, [], []
    due_b = []  # B records scheduled for the next step
    next_key = 1
    matched_flag = 1

    for t in range(1, horizon + 1):
        wait_b += due_b
        due_b = []
        if profile is not Profile.BURST:
            groups = rng.poisson(group_rate)
        elif (t - 1) % _BURST_PERIOD < _BURST_ON:
            groups = rng.poisson(burst_rate)
        else:
            groups = 0
        if groups:
            block = rng.integers(1000, groups * (1 + multiplicity))
            for at in range(0, len(block), 1 + multiplicity):
                key = next_key
                next_key += 1
                wait_a.append((key, (matched_flag, block[at])))
                if right:
                    for i in range(multiplicity):
                        (due_b if i % 2 else wait_b).append(
                            (key, (matched_flag, block[at + 1 + i])))
        if rng.random() < noise_rate:
            wait_a.append(((1 << 30) + next_key, (0, rng.integers(1000))))
            next_key += 1
        if rng.random() < noise_rate:
            attr = rng.integers(1000)
            if right:
                wait_b.append(((1 << 31) + next_key, (0, attr)))
            next_key += 1
        if wait_a:
            out_a[t], wait_a = wait_a[:cap], wait_a[cap:]
        if wait_b:
            out_b[t], wait_b = wait_b[:cap], wait_b[cap:]

    return (LogicalStream(out_a, horizon),
            LogicalStream(out_b, horizon) if right else None)


# ---------------------------------------------------------------------------
# Queries.

def query_count(view: MaterializedView, cache: SecureCache | None = None) -> int:
    """Count synchronized real rows; given `cache`, also its unsynchronized
    real rows (the optional cache-scan query mode).
    """
    return view.real_rows() + (cache.real_count() if cache is not None else 0)


class _JoinCounter:
    """Incremental key-match pair counter, equal to tests/oracles.true_count."""

    def __init__(self):
        self.keys: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.sizes = [0, 0]
        self.total = 0

    def add(self, side: int, batch: list[SecureTuple]) -> None:
        """Count new records of the left (side 0) or right (side 1) stream."""
        mine, other = self.keys[side], self.keys[1 - side]
        for tup in batch:
            self.total += other.get(tup.key, 0)
            mine[tup.key] = mine.get(tup.key, 0) + 1
        self.sizes[side] += len(batch)


# ---------------------------------------------------------------------------
# The experiment loop.

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: list[MetricsRecord]
    transcript: Transcript
    sync_reports: list[SyncReport] = field(default_factory=list)
    flush_reports: list[FlushReport] = field(default_factory=list)
    produced_rows: list[SecureTuple] = field(default_factory=list)
    final_view: MaterializedView | None = None
    final_cache: SecureCache | None = None


def _streams_for(config: ExperimentConfig) -> tuple[LogicalStream, LogicalStream | None]:
    if config.stream_a is not None:
        return (load_stream(config.stream_a),
                load_stream(config.stream_b) if config.stream_b else None)
    return synth_stream(config.profile, config.seed, config.horizon, config.multiplicity,
                        cap=config.c_r, right=config.operator is not OperatorKind.FILTER)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One seeded run of `config`, with automatic cyclic collection paused.

    The caller's collector setting is restored on return and on error, after
    every tracked object is aged into the oldest generation (a freeze and
    unfreeze, which scan nothing) so no young pass re-scans the run's
    results. Both are safe because a run builds no reference cycles:
    reference counting frees all of it (`test_run_builds_no_reference_cycles`
    checks every protocol, operator and source). Both are process-wide: runs
    in concurrent threads only lose the speed-up, a caller's young cyclic
    garbage waits for the next full collection, and the ageing is skipped
    while the caller holds frozen objects, which an unfreeze would thaw.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(config)
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


@dataclass
class RunState:
    """What a run carries from one step to the next.

    The steps read `config`, `seqs` (the run's seq stamps), `rand` and
    `transcript`. They update the rest in place: the secure `cache`, the
    shared `counter`, DPANT's shared noisy `threshold`, the `view`, the reals
    of the past owner batches that joins still scan (`retained`), every
    row the transform produced (`produced_rows`) and the last step's
    `step_sizes` (`sizes`), which stop changing once the retained depth is
    full. A DP run also keeps its protocol's noise `scales`, computed once.
    """

    config: ExperimentConfig
    seqs: Iterator[int]
    rand: ServerRandomness
    transcript: Transcript
    counter: SharePair
    threshold: ThresholdShares | None = None
    cache: SecureCache = field(default_factory=SecureCache)
    view: MaterializedView = field(default_factory=MaterializedView)
    retained: tuple[deque, deque] = field(init=False)
    produced_rows: list[SecureTuple] = field(default_factory=list)
    sizes: StepSizes | None = field(init=False, default=None)
    scales: tuple[float, ...] = field(init=False, default=())

    def __post_init__(self):
        keep = max(0, retention_steps(self.config) - 1)
        self.retained = (deque(maxlen=keep), deque(maxlen=keep))
        if self.config.protocol in (Protocol.DP_TIMER, Protocol.DP_ANT):
            self.scales = _noise_scales(self.config)


def _run(config: ExperimentConfig) -> ExperimentResult:
    validate_config(config)
    seqs = itertools.count()

    # Only the batches are kept: the loop never reads the streams.
    batches = [client_batches(s, config.c_r, config.horizon, seqs)
               for s in _streams_for(config) if s is not None]

    rand = ServerRandomness(config.seed)
    run = RunState(config, seqs, rand, Transcript(), zero_counter(rand))
    protocol, c_r, interval, scan_cache = (config.protocol, config.c_r, config.query_interval,
                                           config.scan_cache)
    if protocol is Protocol.DP_ANT:
        run.threshold = sdp_ant_init(run)
    sync_step = {Protocol.DP_TIMER: sdp_timer_step,
                 Protocol.DP_ANT: sdp_ant_step}.get(protocol)
    filtering = config.operator is OperatorKind.FILTER
    nm = protocol is Protocol.NM
    # NM never transforms; OTM stops after its single sync.
    transforming = not nm

    join_tracker = _JoinCounter()
    # Filter truth: the selected reals of steps not transformed, plus the rows kept.
    filter_true = filter_seen = 0

    result = ExperimentResult(config=config, metrics=[], transcript=run.transcript,
                              produced_rows=run.produced_rows)
    # A sync or flush sorts the whole cache, then moves its report's size.
    sorting_steps = ((sync_step, result.sync_reports), (flush_step, result.flush_reports))

    for t, step in enumerate(zip(*batches), start=1):
        cost = 0  # from sizes the servers see: sorts' compares, then slots moved

        # Owners upload fixed-size blocks; both servers observe the sizes.
        if not nm:
            for _ in step:
                run.transcript.add(t, TranscriptKind.OWNER_UPLOAD, c_r)

        # Maintain the plaintext truth incrementally from the batches' reals.
        if filtering:
            filter_seen += len(step[0])
            if not transforming:
                filter_true += len(selected(step[0]))
        else:
            for side, batch in enumerate(step):
                join_tracker.add(side, batch)

        if transforming:
            cost = transform_step(t, step, run).compares

        if sync_step is not None:
            for act, reports in sorting_steps:
                sorted_slots = run.cache.slots
                report = act(t, run)
                if report is not None:
                    reports.append(report)
                    cost += network_comparison_count(sorted_slots) + report.size
        elif transforming:
            # EP and OTM: the whole padded delta goes straight in.
            slots = len(run.cache)
            cost += slots
            run.view.append_batch(cache_read(run.cache, slots), slots, t)
            run.transcript.add(t, TranscriptKind.SYNC_BATCH, slots)
            transforming = protocol is Protocol.EP

        if t % interval == 0:
            view, cache = run.view, run.cache
            truth = filter_true + len(run.produced_rows) if filtering else join_tracker.total
            real, total = view.real_rows(), view.total_rows()
            if nm:
                answered = truth
                scan = filter_seen if filtering else math.prod(join_tracker.sizes)
                deferred = 0
                discarded = 0
            else:
                answered = query_count(view, cache=cache if scan_cache else None)
                scan = total + (len(cache) if scan_cache else 0)
                deferred = cache.real_count()
                discarded = truth - real - deferred
            l1 = abs(truth - answered)
            result.metrics.append(MetricsRecord(
                t, float(l1), float(l1) / max(1, truth), total, real, deferred,
                discarded, cost + scan, len(run.transcript)))

    result.final_view = run.view
    result.final_cache = run.cache
    return result


def run_trials(config: ExperimentConfig, trials: int) -> list[ExperimentResult]:
    """Independent seeded runs (seed + index), in trial order."""
    return [run_experiment(replace(config, seed=config.seed + i, trials=1))
            for i in range(trials)]


def expected_transform_size(config: ExperimentConfig):
    """Audit helper: t -> padded transform output size under this config."""
    return lambda t: step_sizes(config, t).slots
