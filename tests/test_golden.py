"""Byte-identity guard for the experiment loop.

Each case pins the sha256 of a run's metrics JSONL (as `emit_metrics` writes
it) and of its transcript events (time, server, kind, size, share value).
Each case, the hot-key ones included, also pins the sha256 of every field of
the rows the run produced and of its final view's rows and batch boundaries,
which neither of the first two hashes reads.
A refactor of the experiment loop, the protocols or the transformation
must leave every hash unchanged; a change that alters a run's bytes on
purpose re-records them here and says so.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from dpviewsim.harness import (ExperimentConfig, Profile, Protocol, emit_metrics,
                               run_experiment, run_trials)
from dpviewsim.transform import OperatorKind


def _grid():
    cases = {}
    for protocol in Protocol:
        for operator in OperatorKind:
            cases[f"{protocol.value}-{operator.value}"] = (ExperimentConfig(
                protocol=protocol, operator=operator, profile=Profile.STANDARD,
                horizon=40, f=20, s=5, seed=3), 1)
    cases["DPANT-Filter-Burst"] = (ExperimentConfig(
        protocol=Protocol.DP_ANT, operator=OperatorKind.FILTER,
        profile=Profile.BURST, c_r=12, horizon=80, f=20, s=5, seed=4), 1)
    cases["DPTimer-SMJ-scan-cache"] = (ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ, horizon=40,
        f=20, s=5, seed=5, scan_cache=True, query_interval=3), 1)
    cases["DPANT-SMJ-3-trials"] = (ExperimentConfig(
        protocol=Protocol.DP_ANT, operator=OperatorKind.SMJ, horizon=30,
        f=20, s=5, seed=6), 3)
    # Paths the grid above misses: the Sparse profile, B groups of three
    # records, and an NLJ under Burst.
    cases["DPANT-SMJ-Sparse"] = (ExperimentConfig(
        protocol=Protocol.DP_ANT, operator=OperatorKind.SMJ, profile=Profile.SPARSE,
        horizon=80, f=20, s=5, seed=7), 1)
    cases["DPTimer-SMJ-multiplicity-3"] = (ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ, multiplicity=3,
        horizon=40, f=20, s=5, seed=8), 1)
    cases["DPTimer-NLJ-Burst"] = (ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.NLJ, profile=Profile.BURST,
        c_r=12, horizon=80, f=20, s=5, seed=9), 1)
    # omega > 1 with omega not dividing b, so the oldest retained batch holds
    # fewer than omega join slots.
    cases["DPTimer-SMJ-omega-3-b-10"] = (ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ, omega=3, b=10,
        multiplicity=3, horizon=40, f=20, s=5, seed=10), 1)
    cases["EP-NLJ-omega-2-b-5-Burst"] = (ExperimentConfig(
        protocol=Protocol.EP, operator=OperatorKind.NLJ, omega=2, b=5,
        profile=Profile.BURST, c_r=12, horizon=80, f=20, s=5, seed=11), 1)
    return cases


CASES = _grid()


def hot_key_csv(seed: int, horizon: int, c_r: int) -> str:
    """A stream of 0 to c_r arrivals per step with keys from {1, 2, 3}."""
    rng = random.Random(seed)
    return "t,key,attr\n" + "".join(
        f"{t},{rng.randint(1, 3)},{rng.randint(0, 999)}\n"
        for t in range(1, horizon + 1) for _ in range(rng.randint(0, c_r)))


# Join runs on hot-key CSV streams, so that truncation caps bind: at omega 2
# and b 5 the oldest retained batch holds one join slot, not two. Stream A is
# drawn from the run's seed and stream B from the next. Each protocol runs
# both joins on the same streams, so the rows tell the SMJ from the NLJ.
HOT_KEY_CASES = {
    f"{protocol.value}-{operator.value}-hot-keys-omega-2-b-5": ExperimentConfig(
        protocol=protocol, operator=operator, omega=2, b=5, horizon=40, f=20, s=5,
        seed=seed)
    for protocol, seed in ((Protocol.DP_TIMER, 12), (Protocol.DP_ANT, 13))
    for operator in (OperatorKind.SMJ, OperatorKind.NLJ)
}

# (metrics sha256, transcript sha256), recorded before the experiment loop was folded.
GOLDEN = {
    "DPANT-Filter": ("21994e7c6c7778a462b06cebc08aba9d6ebafc232f4e3a38ed6f7002b59c66cf",
                    "263c19fb3a68e67dab57d12dcb32ae97c8506dcb88f0690f588624f975076479"),
    "DPANT-Filter-Burst": ("2c65b43e3a569c6001e729bc84e391a2acb9807d9ceb2466b3a966c11c8ed222",
                          "90db15589522b84eb6d1950b23320cf3817d2a5592eb66e5207466efd7b5c494"),
    "DPANT-NLJ": ("464e95f969ca720afbebe2a67eb3f3d19f5bb33e0b8f1de9fb781210a8a59cca",
                 "7fb02fab7a5c0449538ca78e4d67a61a1586b154beea81b1de7e1cedb018135b"),
    "DPANT-SMJ-3-trials": ("975803cf339a5c05565f41376b3c1dbebb4ab3ac5ee978e103865b80a8fd1dba",
                          "ef8416be979b271518ce3c43559c63f7426682def6b20a19addb006ef00e2576"),
    "DPANT-SMJ": ("eebb60a905406a32f5f559f95076414da5b442458b320f7acd1adc6c22958ed4",
                 "c29fa69b5476b4e338c5df14586606ab40689bd9a4f730231a9aed5896d06e3f"),
    "DPTimer-Filter": ("1ad0ac33996bf07557e7b6a59000226b6ff95b2beef343cbdb7ffe3bae0b4492",
                      "68598d867ec811b217f48e1df7348dabf2d19cff902419f8b133f08b8cabedf8"),
    "DPTimer-NLJ": ("0359b9df7f02dad86b7812753ff7501d7ac948847354689be28a10aedd3a177e",
                   "72b6a61c7dfbb988db2c2efac919d74fd92392374ce974a02baeabeea71242de"),
    "DPTimer-SMJ": ("cfbb3c57d507215fe29ef65de22cf9f0b131f2d537793197cd4edd125b488b27",
                   "9aa0d618854265772616555f4084e7bcd8f8ae2eb585afc4a330b19d71bf7178"),
    "DPTimer-SMJ-scan-cache": ("0a7cb1e8d7c72a44430f3509f10f7e714206508c26e37949166522ca243df1a8",
                              "8dda0c2d923672744debcfe57a4dac072d6a1a7b99bb8419d6105f054c556048"),
    "EP-Filter": ("c8b6cb8774a907ead91aa3609f9afb74f61cc99bee3b116ccb0b488d3e5f8014",
                 "405a77e7ec6a3a3fcc0338be9b2036fff7383cb468f9c6dd75bd8194e5b98db2"),
    "EP-NLJ": ("dc3395e93c14b43883e1a45894054b61a036b51f4aa8e8d2f7a65475f02f94e1",
              "60d6754d08538410cea6ee40c5d33baed80e0daa15792013d0fcb9d6b142b816"),
    "EP-SMJ": ("b63406e20bbb318d919cba2a55bf81378c5b3d615bb3a5bb0d6fb338c0ee61bd",
              "554ac69c63162c9b7ebf19588516331555c95b34234060335ff45fccad27eadd"),
    "NM-Filter": ("ec8b73aaba7f86b1d4fbbad15eaa0eec13cccadb69d2e83c6617c805dad7f2b8",
                 "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "NM-NLJ": ("ee3aa15511014b8f4279d0eee19d5a405d057192c600d5568d96214ee0e4d50c",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "NM-SMJ": ("ee3aa15511014b8f4279d0eee19d5a405d057192c600d5568d96214ee0e4d50c",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "OTM-Filter": ("212a03eaaf7a9d2a71d39864e65040dab8e7ee877df214fb0dd64661838965b2",
                  "a3e60ab10d9eff74f24835f7f5b36ac3e93baa447b3e0483dfe7471a64cdf624"),
    "OTM-NLJ": ("b9990a6670409bfc8b5b49139733030169b954d1ccbddedd80656886b8128f36",
               "4b7f60cb55bd0d17657c1a2153a5356b8f700b8eed9983e6a6f93c91b80c1620"),
    "OTM-SMJ": ("4e70ccc10c07dc088aecc1e9ed2648201fc0cb96e36cb1807edcca40f0b39711",
               "8862995c4174f79c4fa6d446746c6e8041dcf50f74534e46ad8f645c38f44248"),
    # Recorded before the server word streams and stream attributes were
    # drawn in blocks.
    "DPANT-SMJ-Sparse": ("46e007befa5e8230c861e263a428ed0fbceaaafe0f2423e0ffd7dbf39042a9e7",
                         "d4a0653ee536cb492cc37aca1600616de0b770bbd918f9342e95829428c5e096"),
    "DPTimer-SMJ-multiplicity-3": (
        "14322d24fd4a45ef8dc52c4cc0d6a7dbf4b20ab137a7afd7d52b3af02246d9e6",
        "fe150f8f60f8629cf61c509959c6991f359cfe474803d8b9f8d6d7fc74b34286"),
    "DPTimer-NLJ-Burst": ("cb5f2ae03533f2a41cd2f0c7b001874267a01edec4fcfc95c3f3b939244c3437",
                          "9e6bb8fdd4358cd7371dedaab709c3be9a922041c1daac642f45a603b5d8f634"),
    # Recorded before the budget ledger was replaced by join slots read from
    # a record's age.
    "DPTimer-SMJ-omega-3-b-10": (
        "9de5a6ec111e2827831a6a0da39f9a2d01d45d57bc62e54e16694efc52d9e391",
        "7207b59a421f2686831d03bb6d17e8d2a0a1a1cc9670a40fb3a17bdba8e68d63"),
    "EP-NLJ-omega-2-b-5-Burst": (
        "4cec7ce8a11e737d29224bee65167b197a671bff9f48c006592c84716dabc18e",
        "9a6dae8213a8f986ee34f1e5377641d01662cdd8f80be18e54f4f6e357b4d7ea"),
    # Recorded before the sorts moved from numpy's argsort to Timsort.
    "DPTimer-SMJ-hot-keys-omega-2-b-5": (
        "482167a1fb73ce3fe8eca6764e51fdfced53a9d9b4602557f3ab9cbc07fdc14f",
        "2b32c8351ffe48a1656f0ea539e51ee1e225b5f4cf93573d88464e884999230e"),
    "DPANT-NLJ-hot-keys-omega-2-b-5": (
        "3a3c60145091eabca407248a1dc8e3f7dcd099585621cc1349577970d90419a9",
        "95e31c21f0ea0e5a052f93a3d1e24cdde18cf4eb39834cf70ba5038763681b59"),
    # Recorded before owner batches, transforms and the view dropped their
    # padding rows.
    "DPTimer-NLJ-hot-keys-omega-2-b-5": (
        "f6dc76a23d940db731618a67a6dc4c7f0e4e6d0e9a2e5a168483e9c27ac1eedb",
        "24855c520155935022249b5aca69673d11b7ddd74276c46220045fd277a24c67"),
    "DPANT-SMJ-hot-keys-omega-2-b-5": (
        "2283cd60a6ba7e28b72e801243e9995c0d0f0a98e3cfba99f361d7a3ac530c1f",
        "5d3461ab640f39a04418039a5e7e14181ec24cb9e29031889c6ccf187ff5be73"),
}


def _results(config: ExperimentConfig, trials: int) -> list:
    return run_trials(config, trials) if trials > 1 else [run_experiment(config)]


def _hashes(config: ExperimentConfig, trials: int, tmp_path) -> tuple[str, str]:
    results = _results(config, trials)
    path = tmp_path / "metrics.jsonl"
    emit_metrics([rec for res in results for rec in res.metrics], str(path))
    events = [[e.time, e.server, e.kind.value, e.size, e.share_value]
              for res in results for e in res.transcript.events]
    transcript = json.dumps(events, separators=(",", ":")).encode()
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(transcript).hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_bytes_match_recorded_hashes(name, tmp_path):
    config, trials = CASES[name]
    assert _hashes(config, trials, tmp_path) == GOLDEN[name]


def hot_key_config(config: ExperimentConfig, tmp_path) -> ExperimentConfig:
    """`config` on hot-key CSV streams: A drawn from its seed, B (joins only) from the next."""
    sides = 1 if config.operator is OperatorKind.FILTER else 2
    paths = {}
    for side, field in enumerate(("stream_a", "stream_b")[:sides]):
        path = tmp_path / f"{'ab'[side]}.csv"
        path.write_text(hot_key_csv(config.seed + side, config.horizon, config.c_r))
        paths[field] = str(path)
    return replace(config, **paths)


@pytest.mark.parametrize("name", sorted(HOT_KEY_CASES))
def test_hot_key_run_bytes_match_recorded_hashes(name, tmp_path):
    assert _hashes(hot_key_config(HOT_KEY_CASES[name], tmp_path), 1, tmp_path) == GOLDEN[name]


def _row(r) -> list:
    return [r.key, list(r.attrs), r.is_view, r.seq, r.timestamp, list(r.sources)]


def _rows_hash(results) -> str:
    data = [[[_row(r) for r in res.produced_rows],
             [_row(r) for r in res.final_view.rows],
             [list(b) for b in res.final_view.batches]] for res in results]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


# sha256 of every produced row, view row and view batch, recorded before the
# owner batches and view rows were built positionally.
ROWS_GOLDEN = {
    "DPANT-Filter": "e392668391462900545e71a93c12192b2a40de6c18525a1f892fa1503ad333b3",
    "DPANT-Filter-Burst": "5327bb265402eae46e6b054dd37d4f5a0c622496fb735d357ab756fac4115211",
    "DPANT-NLJ": "c8837ead6d8757f0b51b95f990a58797508174333bb57dcdc25788cad44c469a",
    "DPANT-NLJ-hot-keys-omega-2-b-5": "4d566b4c3f0b72ab1c45d1103591328af623510dde3a08eafc5cd3438b3be817",
    "DPANT-SMJ-hot-keys-omega-2-b-5": "92254c852a0770b250ca764612bf55b44bfeffba43a2d0c5a37f4350d05c1913",
    "DPANT-SMJ": "c8837ead6d8757f0b51b95f990a58797508174333bb57dcdc25788cad44c469a",
    "DPANT-SMJ-3-trials": "c0abc58976dfc5471e5eb36a9a0f40c2d13ce3109c32173fa953381877bd2b9c",
    "DPANT-SMJ-Sparse": "c55cb1a3744cbc814b114b5365caddd90047f3d5195e4048e53770553475f7a0",
    "DPTimer-Filter": "f8bd93749bad19e98689b4f06b7fdcacb187f696f3fca5f65aeae9b6aa1c9675",
    "DPTimer-NLJ": "58a1ae82b270abc5a4060f0698350fe17b93e83748abf314310723f889ab7dbc",
    "DPTimer-NLJ-Burst": "13402ede328cdd0d10e6d511cb172c23197b4dc55641d48ba203c9519c5a9dcd",
    "DPTimer-NLJ-hot-keys-omega-2-b-5": "73abc2616cbe7818edf9202c14751bc3e1773bb09d39720162a1a0cd49913352",
    "DPTimer-SMJ": "58a1ae82b270abc5a4060f0698350fe17b93e83748abf314310723f889ab7dbc",
    "DPTimer-SMJ-hot-keys-omega-2-b-5": "92f7ab7afb71024ad81cd6a9355991d39a0399680ac5fadbf27bde843ce5bfb8",
    "DPTimer-SMJ-multiplicity-3": "3d96b1216c60eed83a09f247686194c008f4c346bda35ef8776afc1326cc02bc",
    "DPTimer-SMJ-omega-3-b-10": "1176ab5b2a56a2e4e0b502f0e9916997bdb602e514bb41fc24b8bc23d519385d",
    "DPTimer-SMJ-scan-cache": "fb498d020383a6c7f883641a12165d95aafedef883c5ebbe4bfdeaf26e44404b",
    "EP-Filter": "5c994f86c0fac062b1c6a0a44525700cbe80302732238cc91fe99088f309003f",
    "EP-NLJ": "5be4b0c85a61d38a6edb5cd4dd2561d1855709ad879f1acfedc2c915e3abed56",
    "EP-NLJ-omega-2-b-5-Burst": "22eb8334e6b170928885583947f7d12a49d6b3ded9f99f1534c441191db48fc8",
    "EP-SMJ": "dfab986ea2f09e4033b7f3725f48b7d93941dd24c32f98c3ed888e9e3b052767",
    "NM-Filter": "e76b320f16a4ed1be05a0df70b1926e082b568d9879bd2bedd6b71cefed2ff74",
    "NM-NLJ": "e76b320f16a4ed1be05a0df70b1926e082b568d9879bd2bedd6b71cefed2ff74",
    "NM-SMJ": "e76b320f16a4ed1be05a0df70b1926e082b568d9879bd2bedd6b71cefed2ff74",
    "OTM-Filter": "9f853a2a5803bddd26e9fef0381390e58bc24e57a56b451cafe55313859185f1",
    "OTM-NLJ": "e738da6ac9db5d8c6fb11ccaca386d23ef1d63fddbec373e706c98096b630a31",
    "OTM-SMJ": "d249a2c8c923164668309bd37950bb99678129db261758466b0b97c776d13b33",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_rows_match_recorded_hashes(name):
    config, trials = CASES[name]
    assert _rows_hash(_results(config, trials)) == ROWS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(HOT_KEY_CASES))
def test_hot_key_run_rows_match_recorded_hashes(name, tmp_path):
    results = [run_experiment(hot_key_config(HOT_KEY_CASES[name], tmp_path))]
    assert _rows_hash(results) == ROWS_GOLDEN[name]


@pytest.mark.parametrize("protocol", ["DPTimer", "DPANT"])
def test_hot_key_rows_tell_the_joins_apart(protocol):
    # The Standard grid gives the SMJ and the NLJ one rows hash each; on the
    # same hot-key streams their rows must differ.
    smj, nlj = (ROWS_GOLDEN[f"{protocol}-{op}-hot-keys-omega-2-b-5"] for op in ("SMJ", "NLJ"))
    assert smj != nlj
