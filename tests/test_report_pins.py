"""Standing byte-identity gate: the timing-free JSON report of every fixture,
segments(2) and a 4-function call chain under `analyze`, `protect` and
`pipeline` (which verifies) must hash to the digests pinned here. A refactor
that claims identical output keeps these; a change that means to alter reports
updates them and says why."""

import hashlib
import json

import pytest

from declassiflow import cli

from conftest import FIXTURES
from generators import call_chain, segments

GENERATED = {"segments(2)": lambda: segments(2), "call_chain(4)": lambda: call_chain(4)}

PINS = {
    ("aes_analog", "analyze"):
        "f2792ed2f4c0a9d8ea21cc76171568c368a601c28feacdf91d2e67e6195fc59d",
    ("aes_analog", "protect"):
        "4e84e9a11d2580e2e70dae4d7b76621f05ddfa1f008cab654d2df006256e1bf7",
    ("aes_analog", "pipeline"):
        "40130627a39c3e773216cfeec4f39466b52d7a8f113ac2c1c2911c79c5344f32",
    ("anticorrelated", "analyze"):
        "9189d2882516fd43ea05cae401ccec0d824c8472c46451c28866ffe52990c265",
    ("anticorrelated", "protect"):
        "686e6f20a09d26123962ca2d539e7dc06703d282001d11e4342759e4d5762383",
    ("anticorrelated", "pipeline"):
        "074814361b728c4e8ee1c4ec46ee95bc08d9b9b6d4515991d3a1e8436d91bca6",
    ("chacha_analog", "analyze"):
        "dc29809e143ab7ce1c7aa765fc506bacb5ca076fb4d219ae7121c035d3400898",
    ("chacha_analog", "protect"):
        "b63187a580f585fb82f92ac7cd152422301579c827c08eac93b95fafd4c4c8fa",
    ("chacha_analog", "pipeline"):
        "44df05adf17a2573f7b13b12ed4baf831eacea6b9d202a2db890be7dcf5b8454",
    ("chain", "analyze"):
        "4f3e5229631d29c0922699ca08f648d0542726d3ad3927ab28a9c0d6bbe7dac3",
    ("chain", "protect"):
        "cde1e5c00158a9d05eeadc5bfe88d0dd65b38d10dfc5cb4f6e32af7196b52856",
    ("chain", "pipeline"):
        "7e23d43a18f68a028fb95629e64ead3299f5e9da4a80baf1a61edafde42df6d8",
    ("diamond_linked", "analyze"):
        "5081c1a1174286ccee93fac21f826446baa9018176e6be58935e5a8bc0b3656d",
    ("diamond_linked", "protect"):
        "8a57d5bba113b9914f34224f0f6de218cac2663d8c5febc61257f7e0e45cc564",
    ("diamond_linked", "pipeline"):
        "7d3b9e6ad0473e0114ccd256de5dc08678af920b7489a981d45e5683c98d750d",
    ("diamond_opaque", "analyze"):
        "8b253c009e9d04ac64ac635df3d51678079ec1ca6a5167412e50bded9421433c",
    ("diamond_opaque", "protect"):
        "39e0b38d0d95c44ab1f2fed06cad79d71fbf2296d0344915f4c88af843fbbd37",
    ("diamond_opaque", "pipeline"):
        "1f2b3ef3b1ad7a652e588328966c1ad672d8e5d780c6f22d84dbce496ba6dc95",
    ("djbsort_analog", "analyze"):
        "193fcfb02fd54ca745c8f22f4c0f100020272037dc6d985d967156b89e524549",
    ("djbsort_analog", "protect"):
        "4fff09eab6afe1ce57fb20ed1f7a88e9b05a4aec395434cdd5f74e98af5453cc",
    ("djbsort_analog", "pipeline"):
        "360d6c0c3810b56a3d91e136a650ba0acd69ecbf4c9a511a8acf06e2da3b4f89",
    ("hoistable_loop", "analyze"):
        "c1662301290bbd2bc7a2f0316018ec43abf5d0a94d23c3c525105f6676b18eba",
    ("hoistable_loop", "protect"):
        "3c1181e702f574c9d44d64c092656e75dd48c5dce8d2657ab52032e7ddc1cbbc",
    ("hoistable_loop", "pipeline"):
        "59e1bc723c79d50d69c5bcca81e2f2fb3290a0c587cd61ea1315a79ddad964b3",
    ("nested_loops", "analyze"):
        "adc96b028d5a8362c85ad6b3e1caaec6853e236a33f3c5d9348d326225c64228",
    ("nested_loops", "protect"):
        "bb776265c3631d08c9aa5f564a5975f7cd3efc537f66cc5111841cde95412deb",
    ("nested_loops", "pipeline"):
        "d08adb8acd510655c9687a46b1ceecf2295033baae71819f9dd6a9cdf8e064c0",
    ("phi_frontier", "analyze"):
        "68022de16d8d2d5ec5903dfd1a58b11fa5d0fdd59f88762faab431d9f1814f41",
    ("phi_frontier", "protect"):
        "f32745ccd2cdcc1793f801eb031d282a3b961dd8609325150ee9ddc330dd6a15",
    ("phi_frontier", "pipeline"):
        "be1afd8e8a13a8d8eb366f6dba9736d1360c62f1b14293ac6a292976fccb43b2",
    ("self_loop_linked", "analyze"):
        "5275784475ba6a6c86cf75483f9fd358e312739964d3b2773c9aba01681427f4",
    ("self_loop_linked", "protect"):
        "7eb339a88b88e44d4758d6def541672c874afdf32977e3d7da1c7743d36f57d0",
    ("self_loop_linked", "pipeline"):
        "9ce62aaaaed40f12f8109d33f5a49569f555577ecbd76708c1d7044cc150761a",
    ("self_loop_opaque", "analyze"):
        "b7fb1d940d147226b8330f88337c886a0c4921b160fa3e9fc2bd2e66cff7a088",
    ("self_loop_opaque", "protect"):
        "4cde2fedba43e7d64a7b794413cb916e3bcd50e17ef9709b3e0d158dafa187f1",
    ("self_loop_opaque", "pipeline"):
        "d195e167609e6705bfb4a9fa8a23b63b56ac4f293a498d083af5e7df36070fe0",
    ("two_latch", "analyze"):
        "192429a034e176c3af12d6f616c52404018b41f1ffa48f1cef059ba40f443acf",
    ("two_latch", "protect"):
        "4799127aa4786ba36c0e7355a6cef7e30f6836c0575a51e978bb8a185db37b0b",
    ("two_latch", "pipeline"):
        "203493cbfedb35e45259ed71d5dcce1e87cd1cce2fa7b5fadddc8ffa754f3de1",
    ("segments(2)", "analyze"):
        "34d95589fc6d49e5d74643f17c3442b3b79681c093fdd9444247b53a10791c1a",
    ("segments(2)", "protect"):
        "f366927d972c99d4a1849768fa30b9327532e870a6243d5bb2418481b8d45bb9",
    ("segments(2)", "pipeline"):
        "6943c442e430c625b980d54826faa7ca038f73d5ff5c4d775383b1d622c2a19a",
    ("call_chain(4)", "analyze"):
        "cd122f6de2362cba6bb8ecc17d219a2bd1c1435d6805a7eb7e20bdae235bb650",
    ("call_chain(4)", "protect"):
        "fef2cf042897d77fbce20b95f34101d6298e6022f1e9208c9f19a0614029ba33",
    ("call_chain(4)", "pipeline"):
        "cd68543d2486b52e656618aaaa92a8da4a9714786c09f4e4865418d617f3a03d",
}


def _source(tmp_path, name):
    if name in GENERATED:
        path = tmp_path / "program.mir"
        path.write_text(GENERATED[name]())
        return path
    return FIXTURES / f"{name}.mir"


@pytest.mark.parametrize("name,command", sorted(PINS), ids=lambda v: v)
def test_report_digest_pinned(tmp_path, capsys, name, command):
    out = tmp_path / "report.json"
    cli.main([command, str(_source(tmp_path, name)), "--out", str(out)])
    report = json.loads(out.read_text())
    report.pop("timing")
    digest = hashlib.sha256(cli.emit_report(report)).hexdigest()
    assert digest == PINS[(name, command)], \
        f"{command} report of {name} changed: sha256 {digest}"
