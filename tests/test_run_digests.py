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
    "clean_channel@own": "eea86b3e5bf8c5a6aa8d5e452e5fa14561ef6dc4e44f71636689c021d0ca8e3d",
    "clean_channel@3": "caa2af7034881f19b71f79f6ddf46006f02bbc8b35a133a46d44bddced3ef0d0",
    "clean_channel@11": "10d62455e102b0e8012209c70ff46a1d1bde0d2a09c1358c3f5f3ea6398a0a26",
    "full_intercept@own": "68f26d1eaa91b07f0485d5701a76d5ec8434a8abcf7cca6b29383de1da7bb77d",
    "full_intercept@3": "b3aeb4ba6016d62089138cc9ef153b090d4a56eafb74c92c2ab63123c8a52c98",
    "full_intercept@11": "518a98675e579f888bdd5c9458779e6a4bc58018758ab8ee12fd895eba144ee0",
    "relay_network@own": "9d3006e6c241e96278d4dece2be88e53c1a24e1cfd499aa981acea0fe965c790",
    "relay_network@3": "5f611bbedc6befeca956dea9adbbeeeda7178437d830b9f5b2a1cd908d6b8c12",
    "relay_network@11": "6a6c1ee38bce35df193a7b528424de7e570a42cf39233b33178c54cb12de535c",
    "ci-exit3": "32ff216055a0e8e990c9d0b18ac291abb24b14ec4a3cefa828449502d86e4d50",
    "ci-noisy": "061456a392d7ab11b36d4e84199c620a3cff77429680e10632cc094b7ed2301f",
    "clean-chain@3": "ee6eeca39d0e83c64cea86ccaa56053e2756267aefb4102a160566f6ad76d3e2",
    "noisy-bulk@3": "63f21e5e1923c9d5f20db25af176cb4f0f78942ddcea1bd8abfee75adbfe2754",
    "noisy-bulk@20": "07deefc08416840dbd4270b020584205485620f6310c9522c00f23ec29d09bdb",
    "relay-mesh@3": "d7cf86145933917cb28172a76246094cd72c30a1244b94c386832da455c0d1d0",
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
