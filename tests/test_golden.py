"""Golden bytes: seeded CLI vectors and report bit strings must never change.

A change that loses a byte of a conformance vector or a bit of a serialized
report fails here, not only in the benchmark's gate.
"""

import hashlib
import json

import numpy as np
import pytest

from nrpmi import channel_sim, cli, type2_r15
from nrpmi.bases import ArrayGeometry

_ARRAY = {"n1": 4, "n2": 2, "o1": 4, "o2": 4}
# the conformance benchmark's configurations (perfbench/workloads.py)
CONF_CONFIGS = {
    "r15-type1": {**_ARRAY, "mode": 1, "rank": 2, "subband_count": 4},
    "r15-type2": {**_ARRAY, "l": 4, "n_psk": 8, "subband_amplitude": True,
                  "rank": 2, "subband_count": 4},
    "r15-ps": {"p_csirs": 16, "l": 2, "n_psk": 4, "subband_amplitude": True,
               "rank": 1, "subband_count": 2, "d": 2},
    "r16": {**_ARRAY, "param_combination": 4, "r": 1, "n3": 18, "rank": 2},
    "r16-ps": {"p_csirs": 16, "param_combination": 2, "r": 1, "n3": 8,
               "rank": 1, "d": 1},
    "r17-ps": {"p_csirs": 16, "param_combination": 6, "n3": 12,
               "n_threshold": 4, "rank": 2},
    "r18": {**_ARRAY, "param_combination": 2, "r": 1, "n3": 12, "n4": 4,
            "rank": 2},
}

GEN_VECTORS_SHA256 = {
    ("r15-type1", 0): "0f31def3ed7907dcc8bdeb6925727b74aa5752403c57dcb4ded17619a03bc64b",
    ("r15-type1", 1): "3fd9b2c40a87f3b1ba88ab5c0ea4a9322f6b86b9c5213081b0c0fcf48361d11a",
    ("r15-type2", 0): "4b355d3ff2ea75a82fdb189be9e28eb7d23ec5ad47357293fa54d2d050eb3efc",
    ("r15-type2", 1): "0ea761df61bdee17388ed0e303e9852a4432744bfc132f676880a0d4b25b20bd",
    ("r15-ps", 0): "486d6299aec24e3d47bc154b8f39760ac975d52727a541dab6e9bf6768f13e17",
    ("r15-ps", 1): "8b926cdb033600fb64740ff0912348541baca39a3d668ff6b82a04b67e7a4471",
    ("r16", 0): "8b9cd35aca5e8a062ed5e973f8e09528236810d90c7e6863f4d1dab687bd5ec4",
    ("r16", 1): "f7f4b3877452d5bfdfff8db087994d999581660c1b1d7a0cac69a02cf0335c68",
    ("r16-ps", 0): "aba3117d9d28316dfdd131445256dcc64bde7bd9fa27abcbc0e852ce2909e48d",
    ("r16-ps", 1): "133a8eb29566cfa8f06d837c9ab947eaa542de8b0a7c10c467dac27aa933d2ec",
    ("r17-ps", 0): "9b8f68aba11d4f83e514f174750b7bfadcc405a58f508d5ee5c7f4e4695edd71",
    ("r17-ps", 1): "03e82fbb9ce5f6d2b595bf1a405360e1ebbf91c9c15ef367d2615fb3de15aeb7",
    ("r18", 0): "88af27ed35e960033566daeba3a4a2ff233094b4e41a63647d96ad16279dbc95",
    ("r18", 1): "588374577041c647f116c827be1eb878e99ecf093aba6199cbd6823ebb137403",
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("release", list(CONF_CONFIGS))
def test_gen_vectors_golden(tmp_path, capsys, release, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONF_CONFIGS[release]))
    out = tmp_path / "vectors.jsonl"
    assert cli.main(["gen-vectors", "--release", release, "--config",
                     str(config), "--seed", str(seed), "--samples", "8",
                     "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GEN_VECTORS_SHA256[release, seed]


# beyond the conformance set: the i15 window and rank-1 prefix i18 (r16),
# all ports with one tap (r17) and the N4 = 1 degenerate case (r18)
SERIALIZE_CONFIGS = [
    ("r15-type2", CONF_CONFIGS["r15-type2"]),
    ("r15-ps", CONF_CONFIGS["r15-ps"]),
    ("r16", CONF_CONFIGS["r16"]),
    ("r16", {**_ARRAY, "param_combination": 6, "r": 1, "n3": 24, "rank": 1}),
    ("r16-ps", CONF_CONFIGS["r16-ps"]),
    ("r16-ps", {"p_csirs": 32, "param_combination": 5, "r": 2, "n3": 36,
                "rank": 3, "d": 2}),
    ("r17-ps", CONF_CONFIGS["r17-ps"]),
    ("r17-ps", {"p_csirs": 8, "param_combination": 3, "n3": 6, "rank": 1}),
    ("r18", CONF_CONFIGS["r18"]),
    ("r18", {**_ARRAY, "param_combination": 4, "r": 1, "n3": 24, "n4": 1,
             "rank": 1}),
    ("r18", {**_ARRAY, "param_combination": 7, "r": 2, "n3": 20, "n4": 8,
             "rank": 3}),
]

SERIALIZE_SHA256 = [
    "bf02951ee9aac573c502cfb3932da1e91e245253e13e16d27dc9735de1b870bb",
    "da707f7b5998983385ab0b394034a0e896db85f2a4226542673fca050cd2fbd5",
    "c5c862ec27d33a6f11db5ecc52c44cf95479a020b43444cb3dc40437c256ca20",
    "cf54a792be194861fd96ff2503cf042aef1659b09cc07180f7a4523d9c767ce7",
    "c6ef6b739e96319e6b43c8df250a8a6d26c61a953b13a06fdc234df5e17c27a0",
    "61c76ae6d8107434c5408872e7c76807b49de2a15b624af0d5ac05af44c88dc7",
    "13ed0307b6f6eccef659e3bd0369cced327ad31f9b4ad4e4d52a1033f12e356b",
    "4d663b21b1b392ba6b324eae9d16edcf472b5bd05328dd8b447b3dc6de10141b",
    "c04fb66c7d52894f9f97d78fe308c36b2c7758a0ce106b5376580235f66ebf73",
    "abee90af589d2c5c0406078b7542ab58b6cd612a98612f49b6f9e5a7cf18ce8b",
    "63412944893161a7cc70bb4f0bd667f3d3a36f8a184ed793b927b490848fbf3a",
]


@pytest.mark.parametrize("case", range(len(SERIALIZE_CONFIGS)))
def test_serialize_pmi_golden(case):
    release, cfg = SERIALIZE_CONFIGS[case]
    config = cli.build_release_config(release, cfg)
    rng = np.random.default_rng(case)
    serialize = cli.RELEASES[release].serialize
    reports = [serialize(config, cli.sample_pmi(release, config, rng).pmi)
               for _ in range(8)]
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == SERIALIZE_SHA256[case]


# UE-side Rel-15 Type II search over drawn channels, without caps
SEARCH_CONFIGS = [
    {**_ARRAY, "l": 2, "n_psk": 8, "rank": 1, "subband_count": 2},
    {**_ARRAY, "l": 4, "n_psk": 8, "rank": 2, "subband_count": 4},
    {**_ARRAY, "l": 3, "n_psk": 4, "subband_amplitude": False, "rank": 2,
     "subband_count": 3},
    {**_ARRAY, "l": 4, "n_psk": 4, "rank": 1, "subband_count": 1},
    {"p_csirs": 16, "l": 2, "d": 2, "n_psk": 4, "rank": 1,
     "subband_count": 2},
    {"p_csirs": 16, "l": 4, "d": 1, "n_psk": 8, "rank": 2,
     "subband_count": 3},
]

SEARCH_SHA256 = [
    "37143027ae2856093834237368bf8f61c8e77f8d62baf81f4c1d29263fcce739",
    "eb7f6580d0820142874941c408dcce8f1897bbcdaed07095b834662a2b077575",
    "c2678229628ea23c74a05a873f3fbc2f4c11ac173e8d8a6b3d90ce6dc3a1941e",
    "e4d8399ac3d66363a6950ab4a0267e42564d4400db773850a377c0fab1013bac",
    "f38552188d19ee4a71eae7cfd0f30c91e8c86f4df69b342d00cc613aa5a07e3b",
    "7c3defc563aba99ec747cc74176fb6ee017c707a0150d8357d22399645b910a6",
]


@pytest.mark.parametrize("case", range(len(SEARCH_CONFIGS)))
def test_search_t2_r15_golden(case):
    cfg = SEARCH_CONFIGS[case]
    release = "r15-ps" if "p_csirs" in cfg else "r15-type2"
    config = cli.build_release_config(release, cfg)
    model = channel_sim.ChannelModel(n_paths=4, n_subcarriers=12, seed=case)
    geom = ArrayGeometry(**_ARRAY)
    reports = []
    for trial in range(8):
        h = channel_sim.draw_channel(model, geom, nr=2, trial=trial).flat
        pmi = type2_r15.search_t2_r15(h, config)
        reports.append(json.dumps(cli.pmi_to_fields(pmi)))
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == SEARCH_SHA256[case]


# UE-side Enhanced Type II searches over drawn channels: regular, the i15
# window (N3 = 24) and port selection (r16), the beam-domain r17 search,
# and r18 with N4 = 4 and the degenerate N4 = 1
ENHANCED_SEARCH_CONFIGS = [
    ("r16", {**_ARRAY, "param_combination": 4, "r": 1, "n3": 18}),
    ("r16", {**_ARRAY, "param_combination": 4, "r": 1, "n3": 24}),
    ("r16-ps", {"p_csirs": 16, "param_combination": 2, "r": 1, "n3": 8,
                "d": 1}),
    ("r17-ps", {"p_csirs": 16, "param_combination": 6, "n3": 12,
                "n_threshold": 4}),
    ("r18", {**_ARRAY, "param_combination": 2, "r": 1, "n3": 12, "n4": 4}),
    ("r18", {**_ARRAY, "param_combination": 4, "r": 1, "n3": 12, "n4": 1}),
]
ENHANCED_SEARCHES = {"r16": "search_r16", "r16-ps": "search_r16",
                     "r17-ps": "search_r17", "r18": "search_r18"}

ENHANCED_SEARCH_SHA256 = [
    "b68c01702d83db2d409e032ec0991c844b45780fd13f74b9b34e51ead164f7b1",
    "bb6df03614dde121afcb4fbec02b0160abd8f9f1062cb016d64ca3d27486e977",
    "9757c0f04f3ba70f1212d71658effffdc967e4f675747b0839f5c7e6f56d904a",
    "bc0f0999f6d23d3b0126276357872d7fe52a804c5d96714e2338f41660cc92f5",
    "0739d1911271909d7b4dc3073502fcfd6905a84d38044a04919be549fe4f3368",
    "d61b63ca53476487793df1030ba0cc9051d77b8f9da6d39a6f94d78dafe6cbb3",
]


@pytest.mark.parametrize("case", range(len(ENHANCED_SEARCH_CONFIGS)))
def test_enhanced_search_golden(case):
    release, cfg = ENHANCED_SEARCH_CONFIGS[case]
    search = getattr(channel_sim, ENHANCED_SEARCHES[release])
    n4 = cfg.get("n4", 1)
    model = channel_sim.ChannelModel(n_paths=4, n_subcarriers=cfg["n3"],
                                     doppler_max=200.0, seed=case)
    geom = ArrayGeometry(**_ARRAY)
    reports = []
    for rank in (1, 2):
        config = cli.build_release_config(release, {**cfg, "rank": rank})
        for trial in range(6):
            ch = channel_sim.draw_channel(model, geom, nr=2, trial=trial,
                                          n4=n4)
            pmi = search(ch, config)
            reports.append(json.dumps(cli.pmi_to_fields(pmi), default=int))
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == ENHANCED_SEARCH_SHA256[case]


SIMULATE_SHA256 = (
    "fdea20b79435b65d52da1408d3a990bdfdd1f189186889c49be965a047062b99")


def test_simulate_golden(tmp_path, capsys):
    """Both single-polarization searches of the spectral-efficiency CSV."""
    out = tmp_path / "simulate.csv"
    assert cli.main(["simulate", "--trials", "50", "--seed", "0",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256


OVERHEAD_SHA256 = (
    "84dbc0827fe63265ab91de9f8ac76f39f4fb1ef06e8bbf7523c954edd546b583")
BASELINES_SHA256 = (
    "8d19e303815b6c098bdd18643c7b14438008bd02a1158b980825b034db368d5a")


def test_overhead_golden(tmp_path, capsys):
    """The feedback bit table of every release in ``nrpmi overhead``."""
    out = tmp_path / "overhead.csv"
    assert cli.main(["overhead", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OVERHEAD_SHA256


# ``nrpmi overhead --release X``: the port-selection rows and their 0-bit
# i15/i16l/i110l entries appear only here
OVERHEAD_RELEASE_SHA256 = {
    "r15-type2": "97cae610f2b32d50039396a7eb7b3d737c1bc30b8d4267382d55ea5ce694ead5",
    "r15-ps": "d6517897318a050e52a09cb5e52a1ac623143180a4257ede3b35b51f6c341854",
    "r16": "794e4071734fa9e5391ede372d90ce28c1a91a7f93b846f219d7bedb7efb7556",
    "r16-ps": "301d7874be00fa30d4582e89c800c31aaf92657742080bfb42de506d3a57e3bf",
    "r17-ps": "5a766117579b097cb4afc7f1a63c4e69fbbd19b121eb83467096f4c9ce054667",
    "r18": "9f1f11c7f853af2c545c88f277930fb9d8e579409bdfcafbc6e94be1876d794b",
}


@pytest.mark.parametrize("release", list(OVERHEAD_RELEASE_SHA256))
def test_overhead_release_golden(tmp_path, capsys, release):
    out = tmp_path / "overhead.csv"
    assert cli.main(["overhead", "--release", release, "--out",
                     str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == OVERHEAD_RELEASE_SHA256[release]


def test_baselines_golden(tmp_path, capsys):
    """The multi-user beamforming sum rates of ``nrpmi baselines``."""
    out = tmp_path / "baselines.csv"
    assert cli.main(["baselines", "--trials", "5", "--seed", "0",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BASELINES_SHA256
