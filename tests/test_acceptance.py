"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

from oracles import (
    intercept_resend_error_probability,
    random_topology,
    replay_exposed,
    toeplitz_matrix,
)
from qkdkit.apps import MoscaParams, RiskStatus, grover_adjusted_length, mosca_check
from qkdkit.auth import (
    AuthKeyPool,
    AuthMode,
    KeyReuseError,
    ots_keygen,
    ots_sign,
    ots_verify,
    pool_cost_per_tag,
    wc_tag,
)
from qkdkit.bits import int_to_bits
from qkdkit.channel import ChannelParams, EveModel
from qkdkit.keys import KeyMaterial, KeyStage
from qkdkit.network import (
    BudgetExceededError,
    HybridPolicy,
    NetworkState,
    NoPathError,
    PolicyUnsatisfiableError,
    PqcDouble,
    UntrustedInteriorError,
    compromise_node,
    hybrid_establish,
    parse_topology,
    preshared_pairs_count,
)
from qkdkit.postproc import (
    ReconcileParams,
    ToeplitzSeed,
    amplify_privacy,
    announce_and_sift,
    binary_entropy,
    compute_final_length,
    correct_errors,
    toeplitz_apply,
)
from qkdkit.postproc.reconcile import choose_code
from qkdkit.protocol import (
    PresharedSequence,
    ProtocolConfig,
    SessionSeeds,
    SymmetricRandom,
    run_quantum_phase,
)
from qkdkit.scenario import (
    STATUS_ABORTED,
    STATUS_OK,
    run_scenario,
    run_session,
    scenario_from_dict,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nFAIL: criterion {number} - {description}")
        raise
    print(f"\nPASS: criterion {number} - {description}")


def clean_config(**overrides) -> dict:
    cfg = {
        "name": "acceptance",
        "master_seed": 2024,
        "rounds": 1,
        "protocol": {"n_pulses": 16384, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
        "channel": {"transmittance": 0.9},
        "eve": {"kind": "none"},
        "postproc": {},
        "auth": {"mode": "ots_bootstrap", "reserve_bits": 2048},
    }
    cfg.update(overrides)
    return cfg


def test_criterion_1_intercept_resend_signature():
    with criterion(1, "intercept-resend signature: e_x = f/4, abort on full interception"):
        started = time.monotonic()
        # enumeration oracle pins f/4 before anything is simulated
        assert intercept_resend_error_probability(Fraction(1)) == Fraction(1, 4)

        cfg = clean_config(
            protocol={"n_pulses": 100_000, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
            eve={"kind": "intercept_resend", "fraction": 1.0},
        )
        result = run_session(scenario_from_dict(cfg))
        report = result.rounds[0]
        assert result.status == STATUS_ABORTED
        assert report.e_x == pytest.approx(0.25, abs=0.01)

        # the estimate precedes any abort decision, so every grid point
        # reports its measured e_x even when the session then aborts
        for fraction in (0.0, 0.25, 0.5, 0.75):
            cfg = clean_config(
                protocol={
                    "n_pulses": 100_000,
                    "decoy_probability": 0.1,
                    "strategy": {"mode": "symmetric"},
                },
                eve={
                    "kind": "intercept_resend" if fraction else "none",
                    "fraction": fraction,
                },
            )
            report = run_session(scenario_from_dict(cfg)).rounds[0]
            expected = float(intercept_resend_error_probability(Fraction(fraction).limit_denominator()))
            se = math.sqrt(max(expected * (1 - expected), 1e-12) / report.x_sample_size)
            assert abs(report.e_x - expected) <= max(3 * se, 1e-9), (fraction, report.e_x)
        elapsed = time.monotonic() - started
        assert elapsed <= 30.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_2_sifting_arithmetic():
    with criterion(2, "sifted fraction 0.25 of detected signal pulses; preshared mismatch 0"):
        cfg = ProtocolConfig(n_pulses=100_000, strategy=SymmetricRandom(), decoy_probability=0.1)
        t = run_quantum_phase(
            cfg, ChannelParams(transmittance=0.9), EveModel(), SessionSeeds.from_master(31337)
        )
        sifted_a, _, _, _, _ = announce_and_sift(t)
        detected_signal = int(np.count_nonzero(t.detected & ~t.decoy))
        assert abs(sifted_a.length / detected_signal - 0.25) < 0.01

        cfg = ProtocolConfig(
            n_pulses=50_000, strategy=PresharedSequence(b"shared-basis-secret"), decoy_probability=0.1
        )
        t = run_quantum_phase(
            cfg, ChannelParams(transmittance=0.9), EveModel(), SessionSeeds.from_master(31338)
        )
        mismatches = int(np.count_nonzero((t.basis != t.measured_basis) & t.detected))
        assert mismatches == 0


def test_criterion_3_clean_channel_chained_rounds():
    with criterion(3, "ten chained rounds: equal keys, pool sustained, OTS only in round 1"):
        started = time.monotonic()
        result = run_session(scenario_from_dict(clean_config(rounds=10)))
        assert result.status == STATUS_OK
        assert len(result.rounds) == 10
        assert len(result.final_keys) == 10
        for report, (bits_a, bits_b) in zip(result.rounds, result.final_keys):
            assert np.array_equal(bits_a, bits_b), f"round {report.round_no} keys differ"
            assert report.verified and report.keys_equal
            assert report.sustainable, f"round {report.round_no} could not fund the next round"
        modes = [r.auth_mode for r in result.rounds]
        assert modes[0] == AuthMode.OTS.value
        assert all(m == AuthMode.WEGMAN_CARTER.value for m in modes[1:])
        elapsed = time.monotonic() - started
        assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_4_reconciliation_at_design_rate():
    with criterion(4, "4096-bit blocks at 5% error: 99/100 exact, leakage shortens the key"):
        rng = np.random.default_rng(404)
        params = ReconcileParams(est_qber=0.05)
        assert choose_code(params, 4096) == "r050_n4096"
        successes = 0
        leaks = []
        for _ in range(100):
            reference_bits = rng.integers(0, 2, 4096, dtype=np.uint8)
            noisy_bits = reference_bits ^ (rng.random(4096) < 0.05).astype(np.uint8)
            reference = KeyMaterial(reference_bits, KeyStage.SIFTED)
            noisy = KeyMaterial(noisy_bits, KeyStage.SIFTED)
            corrected, leak = correct_errors(reference, noisy, params)
            leaks.append(leak)
            # bitwise oracle against the reference key
            successes += bool(np.array_equal(corrected.bits, reference_bits))
        assert successes >= 99, f"only {successes}/100 reconciled exactly"

        with_leak = compute_final_length(4096, 0.05, leaks[0], 0)
        without_leak = compute_final_length(4096, 0.05, 0, 0)
        assert without_leak - with_leak == leaks[0]
        assert with_leak == math.floor(4096 * (1 - binary_entropy(0.05))) - leaks[0]


def test_criterion_5_privacy_amplification_correctness():
    with criterion(5, "Toeplitz hashing matches brute force; linearity at length 64"):
        rng = np.random.default_rng(505)
        seeds_checked = 0
        for in_len in range(1, 33):
            for _ in range(32):
                out_len = int(rng.integers(1, in_len + 1))
                seed = ToeplitzSeed.random(in_len, out_len, rng)
                key_bits = rng.integers(0, 2, in_len, dtype=np.uint8)
                brute = toeplitz_matrix(seed.bits, in_len, out_len) @ key_bits % 2
                key = KeyMaterial(key_bits, KeyStage.VERIFIED)
                fast = amplify_privacy(key, seed, out_len)
                assert np.array_equal(fast.bits, brute)
                seeds_checked += 1
        assert seeds_checked >= 1000

        for _ in range(1000):
            seed = ToeplitzSeed.random(64, 24, rng)
            a = rng.integers(0, 2, 64, dtype=np.uint8)
            b = rng.integers(0, 2, 64, dtype=np.uint8)
            assert np.array_equal(
                toeplitz_apply(seed, a ^ b, 24),
                toeplitz_apply(seed, a, 24) ^ toeplitz_apply(seed, b, 24),
            )


def test_criterion_6_mac_and_signature_bounds():
    with criterion(6, "forgery acceptance <= 2^-t; one-time keys cannot be reused"):
        t = w = 4
        cost = pool_cost_per_tag(t, w)
        message, forged = b"\x30", b"\x3c"
        delta_counts: dict[tuple, int] = {}
        total = 1 << cost
        for value in range(total):
            segment = int_to_bits(value, cost)
            tag = wc_tag(message, AuthKeyPool(segment), tag_bits=t, word_bits=w)
            forged_tag = wc_tag(forged, AuthKeyPool(segment), tag_bits=t, word_bits=w)
            delta = tuple(np.bitwise_xor(tag.tag, forged_tag.tag).tolist())
            delta_counts[delta] = delta_counts.get(delta, 0) + 1
        worst_acceptance = max(delta_counts.values()) / total
        assert worst_acceptance <= 2**-t + 2**-9

        keypair = ots_keygen(np.random.default_rng(606), security_bits=64, digest_bits=64)
        signature = ots_sign(b"round-1 bootstrap", keypair)
        assert ots_verify(b"round-1 bootstrap", signature, keypair.public)
        with pytest.raises(KeyReuseError):
            ots_sign(b"second message", keypair)

        rng = np.random.default_rng(607)
        keypair2 = ots_keygen(rng, security_bits=64, digest_bits=64)
        base = bytearray(b"the exact transcript that was signed")
        signature2 = ots_sign(bytes(base), keypair2)
        rejected = 0
        for _ in range(1000):
            tampered = bytearray(base)
            pos = int(rng.integers(0, len(tampered)))
            tampered[pos] ^= 1 << int(rng.integers(0, 8))
            rejected += not ots_verify(bytes(tampered), signature2, keypair2.public)
        assert rejected == 1000


def test_criterion_7_network_accounting():
    with criterion(7, "pair counts, exposure equals replay, hybrids survive single loss"):
        assert [preshared_pairs_count(n) for n in (2, 4, 10)] == [1, 6, 45]

        rng = np.random.default_rng(707)
        nodes_checked = 0
        for trial in range(40):
            topo = random_topology(rng, max_nodes=6)
            state = NetworkState(
                topo,
                master_seed=trial,
                pqc=PqcDouble(adversary_knows=bool(rng.random() < 0.3)),
            )
            names = sorted(topo.nodes)
            for _ in range(6):
                src, dst = rng.choice(names, size=2, replace=False).tolist()
                policy = [
                    HybridPolicy.QKD_ONLY,
                    HybridPolicy.PQC_ONLY,
                    HybridPolicy.HYBRID_XOR,
                ][int(rng.integers(0, 3))]
                try:
                    hybrid_establish(state, src, dst, policy, int(rng.integers(16, 64)))
                except (
                    NoPathError,
                    UntrustedInteriorError,
                    BudgetExceededError,
                    PolicyUnsatisfiableError,
                ):
                    continue
            for node in names:
                assert compromise_node(state, node) == replay_exposed(state, node)
                nodes_checked += 1
        assert nodes_checked >= 100

        topo = parse_topology(
            "node A end_user\nnode R trusted_relay\nnode B end_user\n"
            "link A R qkd 100000\nlink R B qkd 100000\nlink A B pqc\n"
        )
        # relay compromise alone (post-quantum layer intact) never reaches a
        # hybrid key: the replay oracle lacks the second ingredient
        for trial in range(50):
            state = NetworkState(topo, master_seed=trial)
            record = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 32)
            assert record.key_id not in compromise_node(state, "R")
            assert record.key_id not in replay_exposed(state, "R")
        # with the post-quantum ingredient handed to the adversary, the final
        # key still looks like coin flips next to what the adversary knows
        agree = total = 0
        for trial in range(1000):
            state = NetworkState(topo, master_seed=trial, pqc=PqcDouble(adversary_knows=True))
            record = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 32)
            known_pqc = state.keystore[record.components[1]].bits
            agree += int(np.count_nonzero(record.bits == known_pqc))
            total += 32
        assert binomtest(agree, total, 0.5).pvalue > 1e-3


def test_criterion_8_risk_arithmetic():
    with criterion(8, "migration-urgency truth table, monotonicity, doubled key length"):
        at_risk = mosca_check(MoscaParams(shelf_life=10, migration=5, quantum_arrival=12))
        assert at_risk.status is RiskStatus.AT_RISK and at_risk.slack == -3
        safe = mosca_check(MoscaParams(shelf_life=1, migration=1, quantum_arrival=10))
        assert safe.status is RiskStatus.SAFE and safe.slack == 8
        boundary = mosca_check(MoscaParams(shelf_life=5, migration=5, quantum_arrival=10))
        assert boundary.status is RiskStatus.SAFE

        grid = np.linspace(0, 20, 9)
        for x in grid:
            for y in grid:
                for z in grid:
                    base = mosca_check(MoscaParams(x, y, z)).status
                    if base is RiskStatus.SAFE:
                        assert mosca_check(MoscaParams(x, y, z + 5)).status is RiskStatus.SAFE
                    else:
                        assert mosca_check(MoscaParams(x + 5, y, z)).status is RiskStatus.AT_RISK

        assert grover_adjusted_length(128) == 256
        assert grover_adjusted_length(256) == 512


def test_criterion_9_byte_identical_reports(tmp_path):
    with criterion(9, "same seed reproduces byte-identical reports"):
        topo = tmp_path / "topo.txt"
        topo.write_text(
            "node A end_user\nnode B end_user\nnode R trusted_relay\n"
            "link A R qkd 4096\nlink R B qkd 4096\nlink A B pqc\n"
        )
        cfg = clean_config(
            rounds=2,
            network={
                "topology_file": "topo.txt",
                "requests": [
                    {"src": "A", "dst": "B", "policy": "hybrid_xor", "key_len": 128},
                    {"src": "A", "dst": "R", "policy": "qkd_only", "key_len": 64},
                ],
            },
        )
        scenario = scenario_from_dict(cfg)
        out1, out2 = tmp_path / "first", tmp_path / "second"
        run_scenario(scenario, out_dir=out1, config_dir=tmp_path, write_transcripts=True)
        run_scenario(scenario, out_dir=out2, config_dir=tmp_path, write_transcripts=True)
        compared = 0
        for path in sorted(out1.iterdir()):
            twin = out2 / path.name
            assert twin.exists(), f"missing {path.name} on rerun"
            assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs between runs"
            compared += 1
        assert compared >= 5  # report, csv, summary, network, transcripts
        report = json.loads((out1 / "report.json").read_text())
        assert report["status"] == STATUS_OK
