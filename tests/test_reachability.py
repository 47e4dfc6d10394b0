"""Every function in the package is reached by a run, the CLI or the audit.

ROADMAP aim 2 allows no function that only unit tests reach. This test runs,
under `sys.setprofile`, what a user and the benchmark's gate do: the CLI on
every protocol x operator config, a trials sweep, a cache-scan run, a Burst
run, CSV streams through a config file, a malformed stream and a bad config,
`bench/worker.py`'s `check_results` on every run's results, and that gate
again on a transcript with one forged size. It lists every function, method
and property defined in the package's source, nested ones included, and
fails on any that no call entered unless it is on `ALLOWED`, and on any
allow-listed name that is not defined or was entered, so the list cannot go
stale.

The probe runs in the test session's interpreter: the package keeps no
process-global cache, so a function that earlier tests entered is entered
again by the probe's own calls.
"""

import dataclasses
import inspect
import sys
import types
from pathlib import Path

import pytest

from dpviewsim import cli, harness
from dpviewsim.transcript import TranscriptKind
from dpviewsim.transform import OperatorKind

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worker  # noqa: E402  # the benchmark's correctness gate

PACKAGE = Path(harness.__file__).resolve().parent

# Defined in the package, reached by no run, CLI call or audit; each entry
# says why it stays.
ALLOWED = {
    # The paper's claims and algorithms as code, which the tests check runs against.
    "shrink.bound_deferred_timer",  # Theorem: deferred entries after k timer syncs
    "shrink.bound_dummy_timer",  # Theorem: rows the view gains after k timer syncs
    "shrink.bound_deferred_ant",  # Theorem: deferred entries of the threshold protocol
    "obliv.compare_exchange_pairs",  # the bitonic network, the oracle for the sorts
    # leakage's reference mechanisms, which item 3's --audit makes part of a run;
    # tests/test_replay ties them to real runs.
    "leakage.arrivals_per_step",  # the mechanisms' counts up to a run's horizon
    "leakage.m_timer",  # DPTimer's releases from the logical stream
    "leakage.m_ant",  # DPANT's releases from the logical stream
    # Output that item 3's --audit will print.
    "leakage.AuditReport.lines",
    # The padded-view remnants bench/tracing.py still reads (items 2 and 9).
    "obliv.SecureTuple.is_view",
    "shrink.MaterializedView.rows",
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> qualified name of every function,
    method and property defined in the package's source, nested ones
    included, as `module.Class.method` or `module.f.<locals>.g`.

    Read from the code objects of the compiled source, so generated dunders,
    which have none there, are not listed; lambdas and comprehensions are
    skipped. Built from the nesting, since Python 3.10 has no `co_qualname`.
    """
    found = {}

    def walk(code: types.CodeType, module: str, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found[Path(code.co_filename).name, const.co_firstlineno, const.co_name] = \
                    f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:
                walk(const, module, qualname + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, "")
    return found


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The package code entered, as (file name, first line, name) keys, by
    what a user and the benchmark's gate do; every run's results; and the
    gate's findings on the honest and the forged results."""
    tmp = tmp_path_factory.mktemp("probe")
    results = []
    run_trials = cli.run_trials

    def keep(config, trials):  # cli.main's runs, with their results kept for the gate
        out = run_trials(config, trials)
        results.extend(out)
        return out

    def main(*argv, want=0):
        code = cli.main([*argv, "--out", str(tmp / "metrics.jsonl")])
        assert code == want, f"{argv}: exit {code}, expected {want}"

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    (tmp / "a.csv").write_text("t,key,a\n1,7,1\n2,8,0\n3,7,2\n5,9,1\n")
    (tmp / "b.csv").write_text("t,key,a\n1,7,3\n3,9,4\n4,7,5\n6,8,1\n")
    (tmp / "streams.cfg").write_text(
        "protocol=DPTimer\noperator=SMJ\nT=2\nf=4\nhorizon=8\n"
        f"stream_a={tmp / 'a.csv'}\nstream_b={tmp / 'b.csv'}\n")
    (tmp / "bad.csv").write_text("t,key,a\n1,x,0\n")
    (tmp / "bad.cfg").write_text("horizon 8\n")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_trials", keep)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            # The 15 configs, each with its flush interval dividing the horizon.
            for protocol in harness.Protocol:
                for operator in OperatorKind:
                    main("--protocol", protocol.value, "--operator", operator.value,
                         "--horizon", "40", "--f", "20")
            main("--protocol", "DPANT", "--operator", "Filter", "--horizon", "40",
                 "--trials", "2")
            main("--protocol", "DPTimer", "--operator", "SMJ", "--horizon", "40",
                 "--scan_cache", "1")
            # Burst at multiplicity 1 draws its group counts through PTRS (lam = 10).
            main("--profile", "Burst", "--c_r", "12", "--horizon", "40", "--f", "20")
            main("--config", str(tmp / "streams.cfg"))
            main("--operator", "Filter", "--horizon", "8", "--stream_a", str(tmp / "bad.csv"),
                 want=3)
            main("--config", str(tmp / "bad.cfg"), want=2)
            problems = worker.check_results(results)
            forged = results[0]
            events = forged.transcript.events
            i = next(k for k, e in enumerate(events)
                     if e.kind is TranscriptKind.TRANSFORM_OUTPUT)
            events[i] = dataclasses.replace(events[i], size=events[i].size + 1)
            forged_problems = worker.check_results([forged])
        finally:
            sys.setprofile(previous)

    return {"entered": {(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
                        for c in entered if Path(c.co_filename).resolve().parent == PACKAGE},
            "results": len(results), "problems": problems, "forged": forged_problems}


@pytest.fixture(scope="module")
def unreached(probe) -> set[str]:
    return {name for key, name in defined_functions().items() if key not in probe["entered"]}


def test_listing_reads_nested_functions_methods_and_properties():
    names = set(defined_functions().values())
    assert {"harness.run_experiment", "harness.RunState.__post_init__",
            "transcript.Transcript.events", "leakage.transcript_audit.<locals>.flag"} <= names
    # Generated dunders and lambdas have no code object of their own in the source.
    assert "harness.ExperimentConfig.__init__" not in names
    assert not any("<lambda>" in name for name in names)


def test_probe_runs_the_gate_on_every_run(probe):
    assert probe["results"] == 15 + 2 + 1 + 1 + 1
    assert probe["problems"] == []
    assert len(probe["forged"]) == 1 and "transform output size" in probe["forged"][0]


def test_every_package_function_is_reached_or_allow_listed(unreached):
    assert sorted(unreached - ALLOWED) == []


def test_allow_list_names_only_defined_unreached_functions(unreached):
    defined = set(defined_functions().values())
    assert sorted(ALLOWED - defined) == [], "allow-listed but not defined"
    assert sorted(ALLOWED - unreached) == [], "allow-listed but reached"
