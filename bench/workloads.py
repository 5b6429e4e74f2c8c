"""Seeded scenario generators for the three benchmark workloads.

Each generator maps a workload seed to a scenario dict in the schema of
`qkdkit run --config` plus, for relay-mesh, the text of its topology file.
The same seed always gives the same inputs; different workloads draw from
independent streams of the same seed.
"""
from __future__ import annotations

import hashlib
import random

WORKLOADS = ("clean-chain", "noisy-bulk", "relay-mesh")

POLICIES = ("qkd_only", "hybrid_xor", "pqc_only")
MESH_RELAYS = 8
MESH_USERS_PER_RELAY = 3
MESH_REQUESTS = 200
MESH_EXTRA_PQC_LINKS = 16
MESH_KEY_LENS = (128, 256, 512)
MESH_TOPOLOGY = "mesh.topo"


def master_seed(workload: str, seed: int) -> int:
    """Scenario master seed for one workload, derived from the workload seed."""
    digest = hashlib.sha256(f"qkdkit-bench|{workload}|{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def clean_chain(seed: int) -> dict:
    """configs/clean_channel.json with a seed-derived master seed."""
    return {
        "name": "clean-chain",
        "master_seed": master_seed("clean-chain", seed),
        "rounds": 10,
        "protocol": {
            "n_pulses": 16384,
            "decoy_probability": 0.1,
            "strategy": {"mode": "symmetric"},
        },
        "channel": {"transmittance": 0.9, "misalignment_error": 0.0, "decoy_detect_scale": 1.0},
        "eve": {"kind": "none", "fraction": 0.0},
        "postproc": {"threshold": 0.11, "verify_tag_bits": 64, "security_margin": 32},
        "auth": {"mode": "ots_bootstrap", "reserve_bits": 2048, "ots_keypairs": 12},
    }


def noisy_bulk(seed: int) -> dict:
    """One large round with misalignment and a partial intercept-resend attack."""
    return {
        "name": "noisy-bulk",
        "master_seed": master_seed("noisy-bulk", seed),
        "rounds": 1,
        "protocol": {
            "n_pulses": 100_000,
            "decoy_probability": 0.1,
            "strategy": {"mode": "symmetric"},
        },
        "channel": {"transmittance": 0.9, "misalignment_error": 0.01, "decoy_detect_scale": 1.0},
        "eve": {"kind": "intercept_resend", "fraction": 0.08},
        "postproc": {"threshold": 0.11, "verify_tag_bits": 64, "security_margin": 32},
        "auth": {"mode": "preshared_pool", "preshared_pool_bits": 8192, "reserve_bits": 2048},
    }


def relay_mesh(seed: int) -> tuple[dict, str]:
    """A ring of trusted relays with end users, random PQC links and requests.

    Every request is satisfiable by construction:
    - end users hang off exactly one relay, so every QKD path between two
      users has only trusted relays inside it;
    - the PQC links contain a random spanning tree over all nodes, so every
      PQC route exists;
    - each QKD link's budget is the total key length of all requests that
      use QKD, and a shortest path charges a link at most once per request.
    """
    rng = random.Random(master_seed("relay-mesh", seed))
    relays = [f"r{i}" for i in range(MESH_RELAYS)]
    users = [f"u{i}_{j}" for i in range(MESH_RELAYS) for j in range(MESH_USERS_PER_RELAY)]
    nodes = relays + users

    policies = [POLICIES[i % len(POLICIES)] for i in range(MESH_REQUESTS)]
    rng.shuffle(policies)
    requests = []
    for policy in policies:
        src, dst = rng.sample(users, 2)
        requests.append(
            {"src": src, "dst": dst, "policy": policy, "key_len": rng.choice(MESH_KEY_LENS)}
        )
    budget = sum(r["key_len"] for r in requests if r["policy"] != "pqc_only")

    qkd_links = [(relays[i], relays[(i + 1) % MESH_RELAYS]) for i in range(MESH_RELAYS)]
    qkd_links += [(f"r{i}", f"u{i}_{j}") for i in range(MESH_RELAYS) for j in range(MESH_USERS_PER_RELAY)]

    order = nodes[:]
    rng.shuffle(order)
    pqc_links = {tuple(sorted((node, rng.choice(order[:k])))) for k, node in enumerate(order) if k}
    while len(pqc_links) < len(nodes) - 1 + MESH_EXTRA_PQC_LINKS:
        pqc_links.add(tuple(sorted(rng.sample(nodes, 2))))

    lines = [f"node {r} trusted_relay" for r in relays] + [f"node {u} end_user" for u in users]
    lines += [f"link {a} {b} qkd {budget}" for a, b in qkd_links]
    lines += [f"link {a} {b} pqc" for a, b in sorted(pqc_links)]
    topology = "\n".join(lines) + "\n"

    # 16384 pulses, not fewer: at 4096 one LDPC block more or less moves the
    # key yield by ~12%, so it spread by up to 15% across ten seeds.
    scenario = {
        "name": "relay-mesh",
        "master_seed": master_seed("relay-mesh", seed),
        "rounds": 1,
        "protocol": {
            "n_pulses": 16384,
            "decoy_probability": 0.1,
            "strategy": {"mode": "symmetric"},
        },
        "channel": {"transmittance": 0.9, "misalignment_error": 0.0, "decoy_detect_scale": 1.0},
        "eve": {"kind": "none", "fraction": 0.0},
        "postproc": {"threshold": 0.11, "verify_tag_bits": 64, "security_margin": 32},
        "auth": {"mode": "preshared_pool", "preshared_pool_bits": 8192, "reserve_bits": 2048},
        "network": {"topology_file": MESH_TOPOLOGY, "requests": requests},
    }
    return scenario, topology


def build(workload: str, seed: int) -> tuple[dict, str | None]:
    """Scenario dict and topology text (None unless relay-mesh) for a workload."""
    if workload == "clean-chain":
        return clean_chain(seed), None
    if workload == "noisy-bulk":
        return noisy_bulk(seed), None
    if workload == "relay-mesh":
        return relay_mesh(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
