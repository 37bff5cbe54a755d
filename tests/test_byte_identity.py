"""Byte identity of what users run: the `verify` reports and every
config's output files at seed 0, pinned by sha256.

A change that moves one of these bytes is an exception to byte identity and
must say so, with the new hash and the reason, before it is re-pinned.
"""

import hashlib
from pathlib import Path

import pytest

import tadlab.cli as cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VERIFY_STDOUT_SHA256 = {
    "1": "93d39c57bb5c101ee83aae3d7d7e676b08f4bbb6e3f88a5ab9db36aa803a5479",
    "2": "960ad9c270660a77e2995987fb9a6001707457f4bde64838f7ff124c5a024207",
    "3": "1575ec840fe80c69256d09ccdb5074a41d91c9745c2dfd36c653d29c9e4e8d08",
    "4": "777302d70558751218b93d56d215ad7ab203d032b052f1ef6cab38607c947332",
}

CONFIG_OUTPUT_SHA256 = {
    "matgame2_duplex_counterexample": {
        "policy.json": "ac736f7ac109fc38d2df6eaed8311af18f10a8553732ffc3e2cfb872f626be00",
        "summary.json": "5e91edfde6b2fdd88da9a0bb41ee84d6d230d035949809fcbcf96a55d90d4038",
        "trace.csv": "dc3339057abbf52509da389929642c07715bb5ea40a44d4db853f5d315b89e31",
    },
    "matgame2_vdn": {
        "policy.json": "ac736f7ac109fc38d2df6eaed8311af18f10a8553732ffc3e2cfb872f626be00",
        "summary.json": "fef556221351a9a078856b7bbddc81e0cf0281257157a1c8ab36e98c34efe396",
        "trace.csv": "afa4948d169892b726630ccb9fc8e2be258a70a26bab30713d8e1ba3d3dc4908",
    },
    "multitask_tad_vi": {
        "policy.json": "57dbf9c1f82b53d23e5ee866e5117f505e4d5d3d1695ad6a9ad491369d89aea4",
        "summary.json": "ad04c35752e0ca1e8bfbcda56fa160f5942b5a099bf55ef089ad4716a4cd818a",
        "trace.csv": "a8a1e9c6781acc47f0b2d86e17044e22b365ea28e8c0def5ca6292609e66ab6c",
    },
    "table1_mapg_trap": {
        "policy.json": "2a61144bc1c83a58527a264d6a28b555eb57d6a670843c18b279aa66ea8b91a2",
        "summary.json": "4607419915b6fabb1da7d337dcc445f214e24caddbb0329c33a996005c84e74c",
        "trace.csv": "637d3c0718248d083fa8a1df081d513c0a98e8a6f080f228e1708f2037c6bb53",
    },
    "table1_mapg_uniform": {
        "policy.json": "3fac0f1c55d9e1026fa1008b7083e094cbf2210bbfcf2854c758bb2f1ef2db9f",
        "summary.json": "ca29f893c349c9a44f3a7e3c337a3fe0bddb60bd3588dc213c2b425814537159",
        "trace.csv": "18e1652d224ca37a43bccdc408f768e0c450e0d98b63cd57c012d2cbba7a44cc",
    },
    "table1_tad_pg": {
        "policy.json": "bed61b2c23a033f40b65612ba6fc0dc5e27c97c6e26fb75d86f10625a6ac6813",
        "summary.json": "19fdf9b2e549da3cfdd58b003a8655b727bdf88c7bffcaa2072cc1207cb9d247",
        "trace.csv": "79a394aa6f9042b804014bb9703d2a20aacae30535ebec9e147678061a89295b",
    },
    "table1_tad_ppo": {
        "policy.json": "bed61b2c23a033f40b65612ba6fc0dc5e27c97c6e26fb75d86f10625a6ac6813",
        "summary.json": "d64e9928997ce2f1bbdddc2e4e09953943eb13cd37f949deb097de2dac77788e",
        "trace.csv": "b50b7c2a27b80816e7a716bed92590ac9e40d32c5b16d67209c9ba71df47954e",
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("claim", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_byte_identical(claim, capsys):
    assert cli.main(["verify", claim, "--seed", "0"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_STDOUT_SHA256[claim]


@pytest.mark.parametrize("stem", sorted(CONFIG_OUTPUT_SHA256))
def test_config_outputs_are_byte_identical(stem, tmp_path):
    out = tmp_path / stem
    assert cli.main(["run", str(CONFIGS / f"{stem}.json"), "--seed", "0",
                     "--out", str(out)]) == 0
    got = {name: sha256((out / name).read_bytes()) for name in CONFIG_OUTPUT_SHA256[stem]}
    assert got == CONFIG_OUTPUT_SHA256[stem]


def test_every_shipped_config_is_pinned():
    # a config added to configs/ must bring its three output hashes along
    stems = {path.stem for path in CONFIGS.glob("*.json")}
    assert stems == set(CONFIG_OUTPUT_SHA256)
    assert all(set(pins) == {"policy.json", "summary.json", "trace.csv"}
               for pins in CONFIG_OUTPUT_SHA256.values())
