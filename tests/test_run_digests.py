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
    "clean_channel@own": "ce40735c4b5fe2a5aa5926c1873c52a5de3b35240a694dcc6449f33e17cf6d0b",
    "clean_channel@3": "949262fe70cb24b9dab11fe16a35482bad60a79b23f46b699c6243f195deddd1",
    "clean_channel@11": "bda51829434d714db078aae71a15834301fbc2832eac4dbdb39d4d46f17294a1",
    "full_intercept@own": "0302d61ed756c7850d51b09496d7ed4e155369953fa32bab69a1d11b4ed884a5",
    "full_intercept@3": "c97a3328a3942143bfa5ca77e6201815a0752aa71f4ab305887053b061423945",
    "full_intercept@11": "09d6bb17f01707ab786f63b56faced909c06da8205f1f334999be33855820bb1",
    "relay_network@own": "efcff7fe09ace597f62dfe3d75b3ff8bb5864bcbe7279eb6000654f710fa8755",
    "relay_network@3": "ca9d51acdf3f446d7195ec1ba43cfd99fc14f1df6c76ecaad24b6f2d34d4735d",
    "relay_network@11": "95ec06ec0977dbaf19d8953d03d3c2f7b34f369320a34ec97c9366c226495dcc",
    "ci-exit3": "5415f595eb310b5049f9c03e03594633319e9bb58cf4bd94bffd3a9c5981b702",
    "ci-noisy": "52617a69efc2d63ceab2cebb08e4a2593728ed3d1716963220cdf8e7eaf6da20",
    "clean-chain@3": "72b9d73876b2643b6437e6cc00db989a714cb03e6df873acd99b34a81d0bea46",
    "noisy-bulk@3": "9b5456d072e5782e50df1cc326a2ff3cee26b5909fc8c6cd025ffe966f3ea45b",
    "noisy-bulk@20": "affa553893be93faac681db2699c4353ddde5e8196325c270608ed6f03561845",
    "relay-mesh@3": "ff89a407e0742066b6f6a6709f2466ba73c7238dadf76c51f02bb8c7dec79dc8",
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
