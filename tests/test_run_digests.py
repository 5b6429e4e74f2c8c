"""Whole-run digests: every shipped run, pinned byte for byte.

Each row runs one scenario at one seed and digests its report files, its
message log (label, payload and `disclosed` per message) and its final
keys. A change that moves output on purpose updates the rows it moves and
says why; a row that moves unexpectedly is a failure. numpy does not
promise `Generator` streams across versions (NEP 19), so a mismatch names
the numpy version it was seen on.
"""
import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qkdkit.scenario import load_scenario, run_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]
REPORT_FILES = ("report.json", "rounds.csv", "summary.txt", "network.csv")

# The inline configs of the CI scenario smoke.
CI_CONFIGS = {
    "ci-exit3": {"master_seed": 1, "rounds": 1, "protocol": {"n_pulses": 16384}, "channel": {"transmittance": 0.9, "misalignment_error": 0.35}, "postproc": {"threshold": 0.45}},
    "ci-noisy": {"master_seed": 1, "rounds": 1, "protocol": {"n_pulses": 40000}, "channel": {"transmittance": 0.9, "misalignment_error": 0.03}},
}

# row -> SHA-256. Rows are `<config>@<seed>` for configs/*.json ("own" is the
# file's master_seed), the CI inline configs, and `<workload>@<seed>` for
# bench/workloads.py (noisy-bulk seed 20 ends in a zero-padded tail block).
RUN_DIGESTS = {
    "clean_channel@own": "87c66262725fa00f71a08059a70609fcce925d8dafc2056f3403c61884fb2985",
    "clean_channel@3": "2c05dfc917e070d786e0453651209e72c32de3a4a53f31f53df6ceec652e70de",
    "clean_channel@11": "cba74dcb07f14ff642b6f3d0b7b9d45bec4fee6f38dbb3411dba8c66a685c91f",
    "full_intercept@own": "dae00ae0e12cfa73cd0fb66565ff3b43003518b99edc7230a773b5054ee58304",
    "full_intercept@3": "eda4aa3f6fd8750db22652726bdae65cf22d30ca5ac2dfebf66d118430bec141",
    "full_intercept@11": "b6e8328f30a6e73cf83bac4607102447e4083b2e4404fc9643c8ca7e61d65e66",
    "relay_network@own": "37c9326175357399d7a67751ce81fa8734e5cb32e37389fa6e7824251e8b1d21",
    "relay_network@3": "3bc21cef3aaaf14ffec07c379897858937b51baf34055a0bf712b233828940ef",
    "relay_network@11": "5ad64884c047fadfcb313e6de4b3a8b1246b32081fb2697130b762abd6a2e014",
    "ci-exit3": "a7fc70cf3e3e340a522773ddf855a5101228d58e1ec1638db9e074943cfd388f",
    "ci-noisy": "9389e05139a71ec2b76d5089a092a0cd717f135f9afe4986b18bd57ba22e900c",
    "clean-chain@3": "2dd792274869d22896fa75118ee1cfc235acd17c717cff1bf811b29ce9bb6b46",
    "noisy-bulk@3": "bd978ad4e96209de7d671815a4908b1ebdd43378dbbf6bea1c57463381ffbba3",
    "noisy-bulk@20": "0cb751ecb3fb2f0400fe6db0206850a920c6eb76c6c5ef61ea102e0bfec023da",
    "relay-mesh@3": "edacab0ebd3e1accb78f0a179c279b1025d6e6039e233ca879af0136f9ab7a61",
}


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scenario(row: str, tmp_path: Path):
    """The scenario a row runs and the directory its topology file is in."""
    if row in CI_CONFIGS:
        return scenario_from_dict(CI_CONFIGS[row]), tmp_path
    name, seed = row.split("@")
    config = ROOT / "configs" / f"{name}.json"
    if config.exists():
        scenario = load_scenario(config)
        if seed != "own":
            scenario = replace(scenario, master_seed=int(seed))
        return scenario, config.parent
    workloads = _bench_workloads()
    raw, topology = workloads.build(name, int(seed))
    if topology is not None:
        (tmp_path / workloads.MESH_TOPOLOGY).write_text(topology)
    return scenario_from_dict(raw), tmp_path


def _run_digest(row: str, tmp_path: Path) -> str:
    scenario, config_dir = _scenario(row, tmp_path)
    out_dir = tmp_path / "out"
    result = run_scenario(scenario, out_dir=out_dir, config_dir=config_dir)
    digest = hashlib.sha256()

    def feed(data: bytes) -> None:
        digest.update(len(data).to_bytes(8, "big") + data)

    for name in REPORT_FILES:
        path = out_dir / name
        feed(path.read_bytes() if path.exists() else b"")
    for message in result.messages:
        feed(message.label.encode())
        feed(message.payload)
        feed(json.dumps(message.disclosed, sort_keys=True).encode())
    for key_a, key_b in result.final_keys:
        feed(key_a.astype(np.uint8).tobytes())
        feed(key_b.astype(np.uint8).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("row", sorted(RUN_DIGESTS))
def test_run_digest(row, tmp_path):
    got = _run_digest(row, tmp_path)
    assert got == RUN_DIGESTS[row], f"{row} moved to {got} (numpy {np.__version__})"


def test_every_config_has_rows():
    for config in sorted((ROOT / "configs").glob("*.json")):
        assert {f"{config.stem}@{seed}" for seed in ("own", 3, 11)} <= set(RUN_DIGESTS), config.name
