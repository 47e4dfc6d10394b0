import io
import os
import resource
import subprocess
import sys

import pytest

from dpviewsim import cli
from dpviewsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from dpviewsim.harness import coerce_config, emit_metrics, run_experiment


def test_missing_config_and_overrides_exits_2(capsys):
    assert main([]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus=1\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG


def test_deleted_charge_policy_option_exits_2(tmp_path, capsys):
    # Per-output-row charging let one record move the produced rows by more
    # than b, so the option is gone rather than ignored.
    cfg = tmp_path / "c.cfg"
    cfg.write_text("charge_policy=PerOutputRow\n")
    assert main(["--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config key 'charge_policy'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--charge_policy", "PerOutputRow"])
    assert exc.value.code == EXIT_CONFIG
    assert "--charge_policy" in capsys.readouterr().err


def test_bad_field_value_exits_2(capsys):
    assert main(["--horizon", "soon"]) == EXIT_CONFIG


@pytest.mark.parametrize("field,value", [("seed", "-1"), ("epsilon", "nan"),
                                         ("theta", "inf"), ("scan_cache", "maybe")])
def test_out_of_domain_value_exits_2(field, value, capsys):
    assert main(["--operator", "Filter", "--horizon", "5",
                 f"--{field}", value]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["DPTimer", "DPANT"])
def test_overflowing_noise_scale_exits_2(protocol, capsys):
    # b/epsilon is inf here.
    assert main(["--protocol", protocol, "--operator", "Filter", "--horizon", "5",
                 "--epsilon", "1e-320"]) == EXIT_CONFIG
    assert "noise scale" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["DPTimer", "DPANT"])
def test_b_past_float_range_exits_2(protocol, capsys):
    # omega = b keeps the retention at one step, but b / epsilon cannot
    # convert b to a float.
    assert main(["--protocol", protocol, "--operator", "Filter", "--horizon", "5",
                 "--b", str(10 ** 400), "--omega", str(10 ** 400)]) == EXIT_CONFIG
    assert "noise scale inf" in capsys.readouterr().err


def test_sub_budget_rounding_to_zero_exits_2(capsys):
    # DPANT's check sub-budget epsilon/8 of the smallest positive float is 0.
    assert main(["--protocol", "DPANT", "--operator", "Filter", "--horizon", "5",
                 "--epsilon", "5e-324"]) == EXIT_CONFIG
    assert "noise scale inf" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["DPTimer", "DPANT"])
def test_sync_size_past_list_capacity_exits_2(protocol, capsys):
    # b/epsilon is finite here, but a sync could ask for ~1e301 padded slots.
    assert main(["--protocol", protocol, "--operator", "Filter", "--horizon", "20",
                 "--epsilon", "1e-300"]) == EXIT_CONFIG
    assert "noise scale" in capsys.readouterr().err


def test_small_epsilon_finishes(tmp_path):
    # Syncs of about 1e7 padded slots, each held as its reals and a slot count.
    out = tmp_path / "m.jsonl"
    assert main(["--protocol", "DPTimer", "--operator", "Filter", "--horizon", "20",
                 "--epsilon", "1e-6", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


def test_sync_past_2gb_of_slots_finishes_under_2gb_cap():
    # b/epsilon = 1e10: the first sync reads about 2e10 slots at seed 0, more
    # references than a 2 GB address space holds, but the view keeps only
    # their count, so the run finishes.
    proc = subprocess.run(
        [sys.executable, "-m", "dpviewsim.cli", "--protocol", "DPTimer",
         "--operator", "Filter", "--horizon", "20", "--epsilon", "1e-9",
         "--seed", "0"],
        capture_output=True, text=True, preexec_fn=_cap_address_space, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(proc.stdout.splitlines()) == 20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_small_epsilon_view_stays_small():
    # The view of this run has 7.5M slots and 488 reals at seed 1; a view
    # that built its padding peaked at 116 MiB. The child reports VmHWM, its
    # own peak RSS in KiB: Linux carries ru_maxrss across exec from the
    # forked parent, so ru_maxrss would report the test runner's peak.
    code = ("from dpviewsim.harness import ExperimentConfig, Protocol, run_experiment\n"
            "from dpviewsim.transform import OperatorKind\n"
            "run_experiment(ExperimentConfig(protocol=Protocol.DP_TIMER, horizon=200,\n"
            "    operator=OperatorKind.FILTER, epsilon=1e-5, seed=1))\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 40 * 1024


@pytest.mark.parametrize("protocol", ["DPTimer", "EP"])
def test_overflowing_retention_exits_2(protocol, capsys):
    # ceil(b / omega) sizes the join's retention window, which must fit an index.
    assert main(["--protocol", protocol, "--operator", "SMJ", "--horizon", "5",
                 "--b", str(10 ** 400)]) == EXIT_CONFIG
    assert "retention" in capsys.readouterr().err


def test_smj_accepts_owner_seqs_past_28_bits():
    # The SMJ sorts its accessing reals on (key, seq), and the network it
    # models on (key, origin, seq), so no field width caps the owner seqs;
    # 2 * c_r * horizon = 2**29 here. The config is only validated.
    assert coerce_config({"operator": "SMJ", "c_r": "16384", "horizon": "16384"})


def test_query_interval_past_horizon_exits_2(capsys):
    # Before, the run answered no query and wrote an empty metrics file.
    assert main(["--operator", "Filter", "--horizon", "5",
                 "--query_interval", "10"]) == EXIT_CONFIG
    assert "query_interval" in capsys.readouterr().err
    assert coerce_config({"horizon": "5", "query_interval": "5"})


@pytest.mark.parametrize("value,expected", [("yes", True), ("On", True), ("0", False),
                                            ("off", False)])
def test_bool_words_parse(value, expected):
    assert coerce_config({"scan_cache": value}).scan_cache is expected


def test_directory_as_stream_exits_3(tmp_path, capsys):
    assert main(["--horizon", "10", "--operator", "Filter",
                 "--stream_a", str(tmp_path)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_filter_with_stream_b_exits_2(tmp_path, capsys):
    # Filter reads one owner; a second stream would be ignored or uploaded
    # with no transform reading it.
    stream = tmp_path / "s.csv"
    stream.write_text("t,key,a\n1,1,1\n")
    for streams in (["--stream_b", str(stream)],
                    ["--stream_a", str(stream), "--stream_b", str(stream)]):
        assert main(["--operator", "Filter", "--protocol", "EP", "--horizon", "5",
                     *streams]) == EXIT_CONFIG
        assert "stream_b" in capsys.readouterr().err


def test_missing_stream_file_exits_3(tmp_path, capsys):
    assert main(["--horizon", "10", "--operator", "Filter",
                 "--stream_a", str(tmp_path / "nope.csv")]) == EXIT_DATA


def test_malformed_stream_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,key,a\n1,x,0\n")
    assert main(["--operator", "Filter", "--horizon", "5",
                 "--stream_a", str(bad)]) == EXIT_DATA


def test_stream_that_is_not_utf8_exits_3_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,key,a\n1,1,1\n2,\xff,0\n")
    assert main(["--operator", "Filter", "--horizon", "5",
                 "--stream_a", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: line 3: {bad}: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("text, message", [
    ("", "line 1: {}: missing header"),
    ("x,key\n1,7\n", "line 1: {}: header must start with 't,key', got 'x,key'"),
    ("t,key,a\n1,7\n", "line 2: {}: expected 3 fields, got 2"),
    ("t,key,a\n1,x,1\n", "line 2: {}: non-integer field in '1,x,1'"),
    ("t,key,a\n1,7,1\n0,7,1\n", "line 3: {}: time must be >= 1, got 0"),
    ("t,key,a\n1,4294967296,1\n", "line 2: {}: key out of 32-bit range: 4294967296"),
])
def test_bad_stream_b_exits_3_naming_its_file(tmp_path, capsys, text, message):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,key,a\n1,7,1\n")
    bad.write_text(text)
    assert main(["--operator", "SMJ", "--horizon", "5",
                 "--stream_a", str(good), "--stream_b", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {message.format(bad)}\n"


def test_first_invalid_field_is_named_whatever_the_hash_seed():
    # Of several invalid fields, validation names the first in field order.
    cmd = [sys.executable, "-m", "dpviewsim.cli", "--horizon", "0", "--c_r", "0", "--b", "0"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONHASHSEED=str(seed)))
             for seed in range(6)]
    outcomes = {(proc.communicate()[1], proc.returncode) for proc in procs}
    assert outcomes == {("config error: b must be >= 1, got 0\n", EXIT_CONFIG)}


def test_config_file_that_is_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"horizon=5\n# caf\xff\n")
    assert main(["--config", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: line 2: {bad}: byte 0xff is not UTF-8\n"


def test_utf8_files_are_read_whatever_the_locale(tmp_path):
    # A config file with a UTF-8 comment reads the same under an ASCII
    # locale, whose default text encoding would reject its bytes.
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"t,key\n1,5\n2,6\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(f"# caf\u00e9\noperator=Filter\nhorizon=3\nstream_a={stream}\n"
                    .encode("utf-8"))
    out = tmp_path / "m.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "dpviewsim.cli", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("kind", ["config", "stream"])
def test_a_utf8_byte_order_mark_is_read_past(kind, tmp_path):
    # Spreadsheet tools often save UTF-8 with a leading byte-order mark; a
    # file with one gives the same metrics as a copy without it.
    outs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        stream = tmp_path / f"s{len(mark)}.csv"
        stream.write_bytes((mark if kind == "stream" else b"") + b"t,key,a\n1,5,1\n2,6,0\n")
        cfg = tmp_path / f"c{len(mark)}.cfg"
        cfg.write_bytes((mark if kind == "config" else b"")
                        + f"protocol=DPTimer\noperator=Filter\nhorizon=4\nT=2\n"
                          f"stream_a={stream}\n".encode())
        out = tmp_path / f"m{len(mark)}.jsonl"
        assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4


def test_bad_byte_after_a_byte_order_mark_is_named_at_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbft,key,a\n1,1,1\n2,\xfe,0\n")
    assert main(["--operator", "Filter", "--horizon", "5",
                 "--stream_a", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: line 3: {bad}: byte 0xfe is not UTF-8\n"


def test_run_with_overrides_writes_metrics(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    rc = main(["--protocol", "DPTimer", "--operator", "Filter",
               "--horizon", "30", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 30


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("protocol=DPTimer\noperator=Filter\nhorizon=20\nseed=3\n")
    out = tmp_path / "m.jsonl"
    assert main(["--config", str(cfg), "--horizon", "10",
                 "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 10


def test_byte_identical_outputs_same_seed(tmp_path):
    args = ["--protocol", "DPANT", "--operator", "SMJ", "--horizon", "40",
            "--seed", "5"]
    o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(o1)]) == EXIT_OK
    assert main(args + ["--out", str(o2)]) == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()


def test_trials_sweep(tmp_path):
    out = tmp_path / "m.jsonl"
    rc = main(["--protocol", "DPTimer", "--operator", "Filter",
               "--horizon", "10", "--trials", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert len(out.read_text().splitlines()) == 30  # 3 trials x 10 steps


@pytest.mark.parametrize("trials", [[], ["--trials", "1"]])
def test_one_trial_writes_run_experiment_bytes(trials, tmp_path):
    # Every run goes through run_trials; its one trial is the plain run.
    args = {"protocol": "DPANT", "operator": "SMJ", "horizon": "40", "seed": "5"}
    out = tmp_path / "m.jsonl"
    argv = [word for key, value in args.items() for word in (f"--{key}", value)]
    assert main(argv + trials + ["--out", str(out)]) == EXIT_OK
    want = io.StringIO()
    emit_metrics(run_experiment(coerce_config(args)).metrics, want)
    assert out.read_text() == want.getvalue() != ""


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "dpviewsim.cli", "--protocol", "DPTimer",
         "--operator", "Filter", "--horizon", "5", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 5


def test_stdout_matches_out_file(tmp_path, capsys):
    args = ["--protocol", "DPANT", "--operator", "Filter", "--horizon", "12",
            "--seed", "2"]
    out = tmp_path / "m.jsonl"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2_before_the_run(target, tmp_path, capsys, monkeypatch):
    out = tmp_path / "no" / "such" / "m.jsonl" if target == "missing-dir" else tmp_path

    def no_run(config, trials):
        raise AssertionError("the run started before --out was opened")

    monkeypatch.setattr(cli, "run_trials", no_run)
    assert main(["--operator", "Filter", "--horizon", "5", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_out_that_is_the_config_file_exits_2_and_leaves_it_unchanged(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("protocol=EP\noperator=Filter\nhorizon=3\n")
    before = cfg.read_bytes()
    assert main(["--config", str(cfg), "--out", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --out {cfg} is the --config input {cfg}\n"
    assert cfg.read_bytes() == before


@pytest.mark.parametrize("field", ["stream_a", "stream_b"])
def test_out_that_is_a_stream_exits_2_and_leaves_it_unchanged(field, tmp_path, capsys):
    # The same file under another name (a symlink) is refused too.
    streams = {name: tmp_path / f"{name}.csv" for name in ("stream_a", "stream_b")}
    for path in streams.values():
        path.write_text("t,key,a\n1,7,1\n")
    before = streams[field].read_bytes()
    out = tmp_path / "link.csv"
    out.symlink_to(streams[field])
    args = ["--protocol", "EP", "--operator", "SMJ", "--horizon", "3", "--out", str(out)]
    for name, path in streams.items():
        args += [f"--{name}", str(path)]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --out {out} is the {field} input {streams[field]}\n"
    assert streams[field].read_bytes() == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_out_exits_2_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "dpviewsim.cli", "--protocol", "DPTimer",
         "--operator", "Filter", "--horizon", "200", "--out", "/dev/full"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("write error:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_closed_stdout_pipe_exits_2_without_a_traceback():
    # Like `| head -c 100`: the reader takes 100 bytes and closes the pipe
    # while the metrics, far more than a pipe holds, are still being written.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dpviewsim.cli", "--protocol", "DPTimer",
         "--operator", "Filter", "--horizon", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_CONFIG
    assert err.startswith("write error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
