import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qkdkit.auth import AuthMode
from qkdkit.cli import main
from qkdkit.network import HybridPolicy, NetworkRequestError, NetworkState, hybrid_establish, parse_topology
from qkdkit.postproc import load_code
from qkdkit.protocol import ProtocolConfig, SymmetricRandom
from qkdkit.scenario import (
    ConfigError,
    DisclosureMismatchError,
    EXIT_ABORTED,
    EXIT_CONFIG_ERROR,
    EXIT_DECODE_FAILURE,
    EXIT_OK,
    EXIT_POOL_EXHAUSTED,
    STATUS_ABORTED,
    STATUS_DECODE_FAILURE,
    STATUS_OK,
    STATUS_POOL_EXHAUSTED,
    RoundReport,
    SessionResult,
    load_scenario,
    run_scenario,
    run_session,
    scenario_from_dict,
    scenario_to_dict,
    sweep,
    write_reports,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_config(**overrides) -> dict:
    cfg = {
        "name": "test",
        "master_seed": 101,
        "rounds": 1,
        "protocol": {"n_pulses": 16384, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
        "channel": {"transmittance": 0.9},
        "eve": {"kind": "none"},
        "postproc": {},
        "auth": {"mode": "ots_bootstrap", "reserve_bits": 2048},
    }
    cfg.update(overrides)
    return cfg


def test_config_validation_reports_field_paths():
    with pytest.raises(ConfigError, match="rounds"):
        scenario_from_dict(base_config(rounds=0))
    with pytest.raises(ConfigError, match="protocol"):
        scenario_from_dict(base_config(protocol={"n_pulses": "many"}))
    with pytest.raises(ConfigError):
        scenario_from_dict(base_config(extra_field=1))
    with pytest.raises(ConfigError, match="p_z"):
        scenario_from_dict(
            base_config(protocol={"n_pulses": 10, "strategy": {"mode": "asymmetric"}})
        )


def test_config_file_parse_errors_are_line_precise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "rounds": 1,\n  broken\n}')
    with pytest.raises(ConfigError, match=r"bad\.json:3"):
        load_scenario(bad)


# base_config() in canonical form, every default written out
CANONICAL_BASE = {
    "name": "test",
    "master_seed": 101,
    "rounds": 1,
    "protocol": {"n_pulses": 16384, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
    "channel": {"transmittance": 0.9, "misalignment_error": 0.0, "decoy_detect_scale": 1.0},
    "eve": {"kind": "none", "fraction": 0.0},
    "postproc": {"threshold": 0.11, "verify_tag_bits": 64, "security_margin": 32},
    "auth": {
        "mode": "ots_bootstrap", "reserve_bits": 2048, "preshared_pool_bits": 0,
        "ots_keypairs": 12,
    },
}
NETWORK_SECTION = {
    "topology_file": "metro.topo",
    "requests": [
        {"src": "alice", "dst": "bob", "policy": "hybrid_xor", "key_len": 256},
        {"src": "carol", "dst": "bob", "policy": "pqc_only", "key_len": 128},
    ],
}


@pytest.mark.parametrize(
    "overrides, expected_sections",
    [
        ({}, {}),
        (
            {"protocol": {"n_pulses": 64, "strategy": {"mode": "asymmetric", "p_z": 0.7}}},
            {"protocol": {"n_pulses": 64, "decoy_probability": 0.1,
                          "strategy": {"mode": "asymmetric", "p_z": 0.7}}},
        ),
        (
            {"protocol": {"n_pulses": 64, "strategy": {"mode": "preshared", "shared_seed_hex": "00FF13a7"}}},
            {"protocol": {"n_pulses": 64, "decoy_probability": 0.1,
                          "strategy": {"mode": "preshared", "shared_seed_hex": "00ff13a7"}}},
        ),
        (
            {"eve": {"kind": "intercept_resend", "fraction": 0.25}},
            {"eve": {"kind": "intercept_resend", "fraction": 0.25}},
        ),
        ({"network": NETWORK_SECTION}, {"network": NETWORK_SECTION}),
    ],
    ids=["symmetric", "asymmetric", "preshared", "intercept-resend", "network"],
)
def test_round_trip_through_canonical_dict(overrides, expected_sections):
    scenario = scenario_from_dict(base_config(**overrides))
    canonical = scenario_to_dict(scenario)
    assert canonical == {**CANONICAL_BASE, **expected_sections}
    again = scenario_from_dict(canonical)
    assert again == scenario
    assert scenario_to_dict(again) == canonical


DELETE = object()
ASYMMETRIC = {"mode": "asymmetric", "p_z": 0.5}
PRESHARED = {"mode": "preshared", "shared_seed_hex": "00ff"}


def rejected(path, value, within=None):
    """A config that writes `value` at `path` (DELETE removes the field) and
    must be rejected naming that path; `within`, if given, first replaces the
    object that holds the field."""
    written = "<missing>" if value is DELETE else repr(value)
    in_mode = "" if within is None else f"[{within['mode']}]"
    return pytest.param(path, value, within, id=f"{path}{in_mode}={written}")


REJECTED_CONFIGS = [
    # unknown keys, at every level
    *(rejected(f"{section}extra", 1) for section in (
        "", "protocol/", "protocol/strategy/", "channel/", "eve/", "postproc/", "auth/",
        "network/", "network/requests/0/",
    )),
    # the code-choice overrides that reconciliation no longer takes
    rejected("postproc/code_rate", "auto"),
    rejected("postproc/ldpc_block_len", 0),
    # the authentication sizes and scheme that every run now fixes
    *(rejected(f"auth/{key}", value) for key, value in (
        ("ots_security_bits", 128), ("ots_digest_bits", 128), ("ots_scheme", "lamport"),
        ("mac_tag_bits", 64), ("mac_word_bits", 64),
    )),
    rejected("protocol/strategy/extra", 1, ASYMMETRIC),
    rejected("protocol/strategy/extra", 1, PRESHARED),
    # required fields
    *(rejected(path, DELETE) for path in (
        "master_seed", "rounds", "protocol", "channel", "protocol/n_pulses", "protocol/strategy/mode",
        "network/topology_file", "network/requests", "network/requests/0/src",
        "network/requests/0/dst", "network/requests/0/policy", "network/requests/0/key_len",
    )),
    # wrong types: strings, bools for ints, bools for floats, non-objects
    *(rejected(path, "1") for path in (
        "master_seed", "rounds", "protocol/n_pulses", "protocol/decoy_probability",
        "channel/transmittance", "channel/misalignment_error", "channel/decoy_detect_scale",
        "eve/fraction", "postproc/threshold", "postproc/verify_tag_bits",
        "postproc/security_margin", "auth/reserve_bits",
        "auth/preshared_pool_bits", "auth/ots_keypairs", "network/requests/0/key_len",
    )),
    rejected("protocol/strategy/p_z", "0.5", ASYMMETRIC),
    *(rejected(path, 1) for path in (
        "name", "protocol/strategy/mode", "eve/kind", "auth/mode",
        "network/topology_file", "network/requests/0/src",
        "network/requests/0/dst", "network/requests/0/policy",
    )),
    rejected("protocol/strategy/shared_seed_hex", 255, PRESHARED),
    *(rejected(path, True) for path in (
        "master_seed", "rounds", "protocol/n_pulses", "postproc/verify_tag_bits",
        "postproc/security_margin", "auth/reserve_bits",
        "auth/preshared_pool_bits", "auth/ots_keypairs",
        "network/requests/0/key_len", "protocol/decoy_probability", "channel/transmittance",
        "channel/misalignment_error", "channel/decoy_detect_scale", "eve/fraction",
        "postproc/threshold",
    )),
    rejected("protocol/strategy/p_z", True, ASYMMETRIC),
    *(rejected(path, value) for path, value in (
        ("protocol", "symmetric"), ("protocol/strategy", "symmetric"), ("channel", []),
        ("eve", None), ("postproc", 0), ("auth", "ots_bootstrap"), ("network", []),
        ("network/requests", {}), ("network/requests/0", "alice->bob"),
    )),
    # out of range, or outside a closed set
    *(rejected(path, value) for path, value in (
        ("master_seed", -1), ("rounds", 0), ("protocol/n_pulses", 0),
        ("protocol/decoy_probability", -0.1), ("protocol/decoy_probability", 1.0),
        ("protocol/strategy/mode", "random"),
        ("channel/transmittance", -0.1), ("channel/transmittance", 1.5),
        ("channel/misalignment_error", 1.01), ("channel/decoy_detect_scale", -1),
        ("eve/kind", "active"), ("eve/fraction", 1.5),
        ("postproc/threshold", 0), ("postproc/threshold", 0.5),
        ("postproc/verify_tag_bits", 0), ("postproc/security_margin", -1),
        ("auth/mode", "none"), ("auth/reserve_bits", -1), ("auth/preshared_pool_bits", -1),
        ("auth/ots_keypairs", 0),
        ("network/requests/0/policy", "quantum"), ("network/requests/0/key_len", 0),
    )),
    rejected("protocol/strategy/p_z", 0, ASYMMETRIC),
    rejected("protocol/strategy/p_z", 1, ASYMMETRIC),
    *(rejected("protocol/strategy/shared_seed_hex", text, PRESHARED) for text in ("", "ab cd", "xyz0")),
    # accepted by the JSON schema that used to check configs, then failing at
    # run time, or at load without naming the field
    *(rejected(path, value) for path, value in (
        ("master_seed", 7.0), ("rounds", 2.0), ("protocol/n_pulses", 4096.0),
        ("postproc/verify_tag_bits", 64.0), ("postproc/security_margin", 32.0),
        ("auth/reserve_bits", 2048.0),
        ("auth/preshared_pool_bits", 0.0), ("auth/ots_keypairs", 12.0),
        ("network/requests/0/key_len", 256.0),
    )),
    rejected("auth/preshared_pool_bits", 0, {"mode": "preshared_pool", "preshared_pool_bits": 4096}),
    # ots_bootstrap mode never reads a pre-shared pool
    rejected("auth/preshared_pool_bits", 4096),
    rejected("protocol/strategy/p_z", DELETE, ASYMMETRIC),
    rejected("protocol/strategy/shared_seed_hex", DELETE, PRESHARED),
    rejected("protocol/strategy/shared_seed_hex", "abc", PRESHARED),
    rejected("protocol/strategy/p_z", 0.5),
]


@pytest.mark.parametrize("path, value, within", REJECTED_CONFIGS)
def test_invalid_config_is_rejected_naming_the_field(tmp_path, capsys, path, value, within):
    cfg = base_config(network=copy.deepcopy(NETWORK_SECTION))
    *parents, last = path.split("/")
    node = cfg
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    if within is not None:
        node.clear()
        node.update(within)
    last = int(last) if isinstance(node, list) else last
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    # the message names the field path exactly, as the config writes it
    names_path = f"config field {re.escape(path)}: "
    with pytest.raises(ConfigError, match=names_path):
        scenario_from_dict(cfg)

    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert re.match(f"error: {names_path}", capsys.readouterr().err)


def test_clean_session_produces_equal_verified_keys():
    result = run_session(scenario_from_dict(base_config(rounds=2)))
    assert result.status == STATUS_OK
    assert len(result.rounds) == 2
    for report, (bits_a, bits_b) in zip(result.rounds, result.final_keys):
        assert report.keys_equal and report.verified
        assert np.array_equal(bits_a, bits_b)
        assert report.e_x == 0.0
        assert report.final_length > 0
        # no error seen: the keys are verified before any syndrome is sent
        assert (report.syndrome_bits, report.verification_bits) == (0, 64)
    assert _reconcile_codes(result, 1) == ["none"]
    assert result.rounds[0].auth_mode == AuthMode.OTS.value
    assert result.rounds[1].auth_mode == AuthMode.WEGMAN_CARTER.value


def _reconcile_codes(result, round_no):
    """The code each reconcile message of a round names, in order."""
    return [
        json.loads(m.payload)["code"]
        for m in result.messages
        if m.round_no == round_no and m.label == "reconcile"
    ]


def _assert_log_matches_report(result):
    for report in result.rounds:
        audited = {"sifting": 0, "syndrome": 0, "verification": 0}
        for msg in result.messages:
            if msg.round_no == report.round_no:
                for category, count in msg.disclosed.items():
                    audited[category] += count
        assert audited["sifting"] == report.sifting_disclosed
        assert audited["syndrome"] == report.syndrome_bits
        assert audited["verification"] == report.verification_bits


def _r090_syndrome_bits(n_sifted):
    code = load_code("r090_n1024")
    return code.m * -(-n_sifted // code.n)


def test_leakage_ledger_matches_public_channel_audit():
    _assert_log_matches_report(run_session(scenario_from_dict(base_config(rounds=2))))


def test_run_session_audits_disclosures(monkeypatch):
    import qkdkit.scenario

    real_send = qkdkit.scenario._Messenger.send

    def send_overcounting_the_tag(self, round_no, sender, label, fields, disclosed=None):
        if label == "verify":
            disclosed = {"verification": disclosed["verification"] + 1}
        real_send(self, round_no, sender, label, fields, disclosed)

    monkeypatch.setattr(qkdkit.scenario._Messenger, "send", send_overcounting_the_tag)
    with pytest.raises(DisclosureMismatchError, match="^round 1: "):
        run_session(scenario_from_dict(base_config()))


def test_error_unseen_by_the_estimate_falls_back_to_the_syndrome(monkeypatch):
    # e_x = 0, but Bob's key has one error: the tags differ, so the round
    # reconciles with the rate-0.9 code and verifies again with a new seed
    _flip_one_sifted_bit(monkeypatch)
    result = run_session(scenario_from_dict(base_config()))
    assert result.status == STATUS_OK
    (row,) = result.rounds
    assert row.e_x == 0.0 and row.verified and row.keys_equal
    assert row.syndrome_bits == _r090_syndrome_bits(row.n_sifted) == 408
    assert row.verification_bits == 2 * 64
    labels = [m.label for m in result.messages[3:]]
    assert labels == ["reconcile", "verify", "verify-ack"] * 2 + ["amplify"]
    assert _reconcile_codes(result, 1) == ["none", "r090_n1024"]
    first, second = (json.loads(m.payload)["seed"] for m in result.messages if m.label == "verify")
    assert first != second
    _assert_log_matches_report(result)


def test_noisy_link_discloses_one_rate_065_syndrome_per_block():
    # the CI smoke step's noisy config
    cfg = {
        "master_seed": 1,
        "rounds": 1,
        "protocol": {"n_pulses": 40000},
        "channel": {"transmittance": 0.9, "misalignment_error": 0.03},
    }
    result = run_session(scenario_from_dict(cfg))
    assert result.status == STATUS_OK
    (row,) = result.rounds
    assert row.e_x > 0 and row.verified
    assert (row.n_sifted, row.syndrome_bits, row.verification_bits) == (8146, 2868, 64)
    assert _reconcile_codes(result, 1) == ["r065_n4096"]


def test_full_interception_aborts():
    cfg = base_config(eve={"kind": "intercept_resend", "fraction": 1.0})
    result = run_session(scenario_from_dict(cfg))
    assert result.status == STATUS_ABORTED
    assert result.exit_code == EXIT_ABORTED
    report = result.rounds[0]
    assert report.decision == "abort"
    assert report.e_x == pytest.approx(0.25, abs=0.01)
    assert report.final_length == 0


def test_preshared_pool_bootstrap_uses_mac_from_round_one():
    cfg = base_config(auth={"mode": "preshared_pool", "preshared_pool_bits": 4096, "reserve_bits": 2048})
    result = run_session(scenario_from_dict(cfg))
    assert result.status == STATUS_OK
    assert result.rounds[0].auth_mode == AuthMode.WEGMAN_CARTER.value


def test_underfunded_growth_exhausts_the_pool():
    # tiny sessions cannot refill the reserve; round 2 must fail closed
    cfg = base_config(rounds=3)
    cfg["protocol"] = {"n_pulses": 2048, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}}
    result = run_session(scenario_from_dict(cfg))
    assert result.status == STATUS_POOL_EXHAUSTED
    assert result.exit_code == EXIT_POOL_EXHAUSTED
    assert result.rounds and not result.rounds[-1].sustainable


def _flip_one_sifted_bit(monkeypatch):
    """Give Bob's sifted key one error outside the X-basis sample."""
    import qkdkit.scenario

    real_announce_and_sift = qkdkit.scenario.announce_and_sift

    def announce_and_sift_flipping_one_bit(transcript):
        sifted_a, sifted_b, x_sample, bundle, disclosed = real_announce_and_sift(transcript)
        bits = sifted_b.bits.copy()
        bits[0] ^= 1
        return sifted_a, sifted_b.with_bits(bits), x_sample, bundle, disclosed

    monkeypatch.setattr(qkdkit.scenario, "announce_and_sift", announce_and_sift_flipping_one_bit)


def _fail_both_verifications(monkeypatch):
    """An error the estimate does not see, which reconciliation then
    gets wrong: both the rate-1 and the syndrome attempt fail to verify."""
    _flip_one_sifted_bit(monkeypatch)
    _flip_one_corrected_bit(monkeypatch)


def _flip_one_corrected_bit(monkeypatch):
    """Make reconciliation hand Bob a key one bit off Alice's."""
    import qkdkit.scenario

    real_correct_errors = qkdkit.scenario.correct_errors

    def correct_errors_flipping_one_bit(reference, noisy, params):
        corrected, leak = real_correct_errors(reference, noisy, params)
        bits = corrected.bits.copy()
        bits[0] ^= 1
        return corrected.with_bits(bits), leak

    monkeypatch.setattr(qkdkit.scenario, "correct_errors", correct_errors_flipping_one_bit)


def test_verification_failure_discards_the_round(monkeypatch):
    _fail_both_verifications(monkeypatch)
    result = run_session(scenario_from_dict(base_config()))
    assert result.status == STATUS_DECODE_FAILURE and result.reason == "verification-failed"
    assert result.exit_code == EXIT_DECODE_FAILURE == 3
    (row,) = result.rounds
    assert row.verified is False and row.keys_equal is False
    # both attempts are charged: the syndrome and two tags
    assert row.syndrome_bits == _r090_syndrome_bits(row.n_sifted)
    assert row.verification_bits == 2 * 64
    assert row.final_length == row.reserve_bits == row.application_bits == 0
    assert not result.final_keys and not result.application_keys


_SMALL_ROUNDS = {"n_pulses": 2048, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}}


# (config, fail both verifications, status, reason, and the lengths of
# rounds / final_keys / application_keys / transcripts / messages)
@pytest.mark.parametrize(
    "cfg, fail_verify, status, reason, counts",
    [
        (base_config(rounds=2), False, STATUS_OK, None, (2, 2, 2, 2, 14)),
        (base_config(eve={"kind": "intercept_resend", "fraction": 1.0}), False,
         STATUS_ABORTED, "error-rate-above-threshold", (1, 0, 0, 1, 4)),
        (base_config(channel={"transmittance": 0.0}), False, STATUS_ABORTED, "empty-sample", (1, 0, 0, 1, 4)),
        (base_config(channel={"transmittance": 0.9, "misalignment_error": 0.35}, postproc={"threshold": 0.45}),
         False, STATUS_DECODE_FAILURE, "block 0 failed both BP decoding and parity bisection", (0, 0, 0, 1, 3)),
        (base_config(rounds=3, protocol=_SMALL_ROUNDS), False,
         STATUS_POOL_EXHAUSTED, "pool holds 79 bits, 255 requested for mac-tag", (1, 1, 0, 2, 8)),
        (base_config(), True, STATUS_DECODE_FAILURE, "verification-failed", (1, 0, 0, 1, 9)),
    ],
    ids=["ok", "intercept-resend", "empty-sample", "decode-failure", "pool-exhausted", "verification-failed"],
)
def test_session_result_on_every_stop_path(monkeypatch, cfg, fail_verify, status, reason, counts):
    if fail_verify:
        _fail_both_verifications(monkeypatch)
    result = run_session(scenario_from_dict(cfg), keep_transcripts=True)
    assert (result.status, result.reason) == (status, reason)
    lengths = (result.rounds, result.final_keys, result.application_keys, result.transcripts, result.messages)
    assert tuple(len(items) for items in lengths) == counts


def test_missing_decoy_probability_takes_the_protocol_default():
    cfg = base_config()
    del cfg["protocol"]["decoy_probability"]
    default = ProtocolConfig(n_pulses=1, strategy=SymmetricRandom()).decoy_probability
    assert default == 0.1
    assert scenario_from_dict(cfg).protocol.decoy_probability == default


def test_application_keys_feed_the_one_time_pad():
    from qkdkit.apps import otp_decrypt, otp_encrypt
    from qkdkit.keys import KeyMaterial, KeyStage

    result = run_session(scenario_from_dict(base_config()))
    assert result.status == STATUS_OK and result.application_keys
    app_bits = result.application_keys[0]
    rng = np.random.default_rng(0)
    message = rng.integers(0, 2, app_bits.size, dtype=np.uint8)
    alice_pad = KeyMaterial(app_bits.copy(), KeyStage.FINAL)
    bob_pad = KeyMaterial(app_bits.copy(), KeyStage.FINAL)
    ciphertext = otp_encrypt(message, alice_pad)
    assert np.array_equal(otp_decrypt(ciphertext, bob_pad), message)


def test_session_trace_one_time_discipline():
    # no pool segment and no signature keypair is ever consumed twice
    cfg = base_config(rounds=3)
    result = run_session(scenario_from_dict(cfg))
    assert result.status == STATUS_OK
    wc_messages = [m for m in result.messages if m.auth_mode == "wegman-carter"]
    ots_messages = [m for m in result.messages if m.auth_mode == "ots"]
    assert wc_messages and ots_messages
    # 7 protocol messages per round, each signed with a fresh keypair in round 1
    assert len(ots_messages) == 7


def test_session_is_deterministic():
    cfg = base_config(rounds=2)
    first = run_session(scenario_from_dict(cfg))
    second = run_session(scenario_from_dict(cfg))
    assert first.rounds == second.rounds
    assert [m.payload for m in first.messages] == [m.payload for m in second.messages]
    third = run_session(scenario_from_dict(base_config(rounds=2, master_seed=999)))
    assert [m.payload for m in third.messages] != [m.payload for m in first.messages]


def test_sweep_rows_and_ordering():
    scenario = scenario_from_dict(base_config())
    rows = sweep(scenario, "eve_fraction", [1.0, 0.0, 0.5])
    assert [row["value"] for row in rows] == [0.0, 0.5, 1.0]
    e_x = [float(row["e_x"]) for row in rows]
    assert e_x[0] == 0.0
    assert e_x[1] == pytest.approx(0.125, abs=0.015)
    assert e_x[2] == pytest.approx(0.25, abs=0.015)
    assert rows[0]["decision"] == "proceed"
    assert rows[1]["decision"] == rows[2]["decision"] == "abort"


def test_sweep_unknown_parameter():
    scenario = scenario_from_dict(base_config())
    with pytest.raises(ConfigError):
        sweep(scenario, "bogus", [1.0])
    with pytest.raises(ConfigError):
        sweep(scenario, "bogus", [])


def test_network_rows_written_with_reports(tmp_path):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "node A end_user\nnode B end_user\nnode R trusted_relay\n"
        "link A R qkd 4096\nlink R B qkd 4096\nlink A B pqc\n"
    )
    cfg = base_config(
        network={
            "topology_file": "topo.txt",
            "requests": [{"src": "A", "dst": "B", "policy": "hybrid_xor", "key_len": 64}],
        }
    )
    scenario = scenario_from_dict(cfg)
    out = tmp_path / "out"
    result = run_scenario(scenario, out_dir=out, config_dir=tmp_path)
    assert result.exit_code == EXIT_OK
    rows = (out / "network.csv").read_text().splitlines()
    assert rows[0] == "src,dst,policy,path,key_len,exposed_by"
    assert rows[1] == "A,B,hybrid_xor,A->R->B,64,A;B"
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == STATUS_OK
    assert (out / "rounds.csv").exists() and (out / "summary.txt").exists()


def test_unsatisfiable_network_request_is_a_config_error(tmp_path):
    topo = tmp_path / "topo.txt"
    topo.write_text("node A end_user\nnode B end_user\n")  # no links at all
    cfg = base_config(
        network={
            "topology_file": "topo.txt",
            "requests": [{"src": "A", "dst": "B", "policy": "qkd_only", "key_len": 64}],
        }
    )
    with pytest.raises(ConfigError, match="network request A->B"):
        run_scenario(scenario_from_dict(cfg), config_dir=tmp_path)


@pytest.mark.parametrize("policy", [policy.value for policy in HybridPolicy])
def test_self_addressed_request_is_rejected_under_every_policy(tmp_path, capsys, policy):
    state = NetworkState(parse_topology((CONFIGS / "metro.topo").read_text()))
    with pytest.raises(NetworkRequestError, match="^source and destination coincide$"):
        hybrid_establish(state, "alice", "alice", HybridPolicy(policy), 128)

    request = {"src": "alice", "dst": "alice", "policy": policy, "key_len": 128}
    network = {"topology_file": str(CONFIGS / "metro.topo"), "requests": [request]}
    config = tmp_path / "self.json"
    config.write_text(json.dumps(base_config(network=network)))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert "source and destination coincide" in capsys.readouterr().err


def test_transcript_files_roundtrip(tmp_path):
    from qkdkit.protocol import parse_transcript

    cfg = base_config()
    cfg["protocol"] = {"n_pulses": 64, "decoy_probability": 0.2, "strategy": {"mode": "symmetric"}}
    cfg["postproc"] = {"threshold": 0.11}
    scenario = scenario_from_dict(cfg)
    out = tmp_path / "out"
    result = run_scenario(scenario, out_dir=out, write_transcripts=True)
    alice = parse_transcript((out / "round_01_alice.transcript").read_text())
    bob = parse_transcript((out / "round_01_bob.transcript").read_text())
    assert alice.n_pulses == bob.n_pulses == 64
    assert alice.bit is not None and alice.measured_bit is None
    assert bob.bit is None and np.array_equal(bob.detected, alice.detected)
    (t,) = result.transcripts
    assert np.array_equal(alice.bit, t.bit) and np.array_equal(bob.measured_bit, t.measured_bit)


def test_zero_transmittance_aborts_on_empty_sample():
    result = run_session(scenario_from_dict(base_config(channel={"transmittance": 0.0})))
    assert result.status == STATUS_ABORTED and result.reason == "empty-sample"
    assert result.exit_code == EXIT_ABORTED
    (report,) = result.rounds
    assert report.n_detected == report.n_sifted == report.x_sample_size == 0


@pytest.mark.parametrize("seed", range(8))
def test_single_pulse_session_runs(seed):
    cfg = base_config(master_seed=seed)
    cfg["protocol"] = {"n_pulses": 1, "decoy_probability": 0.0, "strategy": {"mode": "symmetric"}}
    result = run_session(scenario_from_dict(cfg))
    (report,) = result.rounds
    assert report.n_pulses == 1 and report.n_detected <= 1
    assert result.status in (STATUS_OK, STATUS_ABORTED)


ROUNDS_HEADER = (
    "round,auth_mode,n_pulses,n_detected,n_sifted,x_sample_size,e_x,decision,reason,"
    "sifting_disclosed,syndrome_bits,verification_bits,final_length,reserve_bits,"
    "application_bits,sustainable\n"
)


def _hand_built_result(rounds: list[RoundReport], network=None, **kwargs) -> SessionResult:
    cfg = base_config(rounds=3) if network is None else base_config(rounds=3, network=network)
    return SessionResult(
        scenario=scenario_from_dict(cfg),
        rounds=rounds,
        messages=[],
        application_keys=[],
        final_keys=[],
        transcripts=[],
        **kwargs,
    )


def test_write_reports_formats(tmp_path):
    ok = RoundReport(
        round_no=1, auth_mode="ots", n_pulses=100, n_detected=90, n_sifted=45,
        x_sample_size=9, e_x=0.0123456789, decision="proceed", reason=None,
        sifting_disclosed=18, syndrome_bits=12, verification_bits=4, final_length=7,
        reserve_bits=5, application_bits=2, sustainable=True, keys_equal=True, verified=True,
    )
    aborted = RoundReport(
        round_no=2, auth_mode="wegman-carter", n_pulses=100, n_detected=0, n_sifted=0,
        x_sample_size=0, e_x=None, decision="abort", reason="empty-sample", sifting_disclosed=0,
    )
    network_row = {
        "src": "A", "dst": "B", "policy": "hybrid_xor", "path": "A->R->B",
        "key_len": 64, "exposed_by": "A;B",
    }
    result = _hand_built_result(
        [ok, aborted], NETWORK_SECTION, status=STATUS_ABORTED, reason="empty-sample",
        network_rows=[network_row],
    )
    written = write_reports(result, tmp_path)
    assert [path.name for path in written] == ["report.json", "rounds.csv", "summary.txt", "network.csv"]

    assert (tmp_path / "rounds.csv").read_text() == ROUNDS_HEADER + (
        "1,ots,100,90,45,9,0.012346,proceed,,18,12,4,7,5,2,1\n"
        "2,wegman-carter,100,0,0,0,,abort,empty-sample,0,0,0,0,0,0,0\n"
    )
    assert (tmp_path / "summary.txt").read_text() == (
        "scenario: test\n"
        "status: aborted (empty-sample)\n"
        "rounds completed: 2 of 3\n"
        "  round 1: auth=ots sifted=45 e_x=0.0123 decision=proceed "
        "leakage(sift/synd/verif)=18/12/4 final=7 app=2\n"
        "  round 2: auth=wegman-carter sifted=0 e_x=n/a decision=abort "
        "leakage(sift/synd/verif)=0/0/0 final=0 app=0\n"
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rounds"] == [
        {
            "round": 1, "auth_mode": "ots", "n_pulses": 100, "n_detected": 90, "n_sifted": 45,
            "x_sample_size": 9, "e_x": "0.012346", "decision": "proceed", "reason": "",
            "sifting_disclosed": 18, "syndrome_bits": 12, "verification_bits": 4,
            "final_length": 7, "reserve_bits": 5, "application_bits": 2, "sustainable": 1,
        },
        {
            "round": 2, "auth_mode": "wegman-carter", "n_pulses": 100, "n_detected": 0,
            "n_sifted": 0, "x_sample_size": 0, "e_x": "", "decision": "abort",
            "reason": "empty-sample", "sifting_disclosed": 0, "syndrome_bits": 0,
            "verification_bits": 0, "final_length": 0, "reserve_bits": 0,
            "application_bits": 0, "sustainable": 0,
        },
    ]
    assert (report["status"], report["reason"], report["exit_code"]) == (
        STATUS_ABORTED, "empty-sample", EXIT_ABORTED
    )
    assert report["scenario"] == CANONICAL_BASE | {"rounds": 3, "network": NETWORK_SECTION}
    assert (tmp_path / "network.csv").read_text() == (
        "src,dst,policy,path,key_len,exposed_by\nA,B,hybrid_xor,A->R->B,64,A;B\n"
    )


def test_write_reports_without_rounds(tmp_path):
    result = _hand_built_result([], status=STATUS_POOL_EXHAUSTED, reason="pool holds 0 bits")
    written = write_reports(result, tmp_path)
    assert [path.name for path in written] == ["report.json", "rounds.csv", "summary.txt"]
    assert (tmp_path / "rounds.csv").read_text() == ROUNDS_HEADER
    assert json.loads((tmp_path / "report.json").read_text())["rounds"] == []


def test_network_section_without_requests_writes_a_header_only_csv(tmp_path):
    # network.csv is written whenever the scenario has a network section
    network = {"topology_file": str(CONFIGS / "metro.topo"), "requests": []}
    out = tmp_path / "out"
    result = run_scenario(scenario_from_dict(base_config(network=network)), out_dir=out)
    assert result.exit_code == EXIT_OK and result.network_rows == []
    assert (out / "network.csv").read_text() == "src,dst,policy,path,key_len,exposed_by\n"
