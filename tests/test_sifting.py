import numpy as np
import pytest

from qkdkit.channel import Basis, ChannelParams, EveKind, EveModel, IntensityClass
from qkdkit.keys import KeyStage
from qkdkit.postproc.sifting import (
    Decision,
    REASON_EMPTY_SAMPLE,
    REASON_THRESHOLD,
    PairedBits,
    announce_and_sift,
    estimate_eavesdropping,
)
from qkdkit.protocol import (
    ProtocolConfig,
    ProtocolError,
    SessionSeeds,
    SymmetricRandom,
    Transcript,
    run_quantum_phase,
)

S, D = IntensityClass.SIGNAL, IntensityClass.DECOY
Z, X = Basis.Z, Basis.X


def build_transcript(rows) -> Transcript:
    """rows: (detected, intensity, alice_basis, bob_basis, alice_bit, bob_bit)"""
    det, intensity, a_basis, b_basis, a_bit, b_bit = zip(*rows)
    detected = np.array(det, dtype=bool)
    return Transcript(
        detected=detected,
        bit=np.array(a_bit, dtype=np.uint8),
        basis=np.array(a_basis, dtype=np.uint8),
        decoy=np.array(intensity) == D,
        measured_basis=np.array(b_basis, dtype=np.uint8) * detected,
        measured_bit=np.array([b or 0 for b in b_bit], dtype=np.uint8),
    )


def test_hand_applied_sift_rule():
    # six positions: keep only detected, signal-intensity, both-Z
    rows = [
        (True, S, Z, Z, 1, 1),
        (True, D, Z, Z, 0, 0),
        (False, S, Z, Z, 1, None),
        (True, S, X, X, 1, 0),
        (True, S, Z, X, 0, 1),
        (True, S, Z, Z, 0, 0),
    ]
    sifted_a, sifted_b, x_sample, bundle, disclosed = announce_and_sift(build_transcript(rows))
    assert sifted_a.bits.tolist() == [1, 0]  # indices 0 and 5
    assert sifted_b.bits.tolist() == [1, 0]
    assert sifted_a.stage is KeyStage.SIFTED
    assert x_sample.indices.tolist() == [3]
    assert x_sample.alice.tolist() == [1] and x_sample.bob.tolist() == [0]
    assert bundle.detected_indices.tolist() == [0, 1, 3, 4, 5]
    assert disclosed == 2  # both parties disclosed one X bit


def test_decoy_matched_x_positions_stay_out_of_the_estimate():
    rows = [
        (True, S, X, X, 1, 1),
        (True, D, X, X, 0, 1),  # decoy: announced, never estimated
        (True, S, X, X, 0, 0),
    ]
    _, _, x_sample, bundle, disclosed = announce_and_sift(build_transcript(rows))
    assert x_sample.indices.tolist() == [0, 2]
    assert bundle.detected_indices.size == 3
    assert disclosed == 4


def test_nothing_sifted_out():
    rows = [(True, S, Z, Z, b, b) for b in (0, 1, 1, 0, 1)]
    sifted_a, sifted_b, x_sample, bundle, _ = announce_and_sift(build_transcript(rows))
    assert sifted_a.length == len(rows) == bundle.detected_indices.size
    assert x_sample.size == 0


def test_empty_input_sifts_to_nothing():
    rows = [(False, S, Z, Z, 0, None)] * 4
    sifted_a, sifted_b, x_sample, bundle, disclosed = announce_and_sift(build_transcript(rows))
    assert sifted_a.length == sifted_b.length == 0
    assert x_sample.size == 0 and bundle.detected_indices.size == 0
    assert disclosed == 0


def test_one_party_view_cannot_be_sifted():
    t = build_transcript([(True, S, Z, Z, 1, 1)])
    for party in ("alice", "bob"):
        with pytest.raises(ProtocolError):
            announce_and_sift(t.held_by(party))


def sample_of(mismatches: int, size: int) -> PairedBits:
    alice = np.zeros(size, dtype=np.uint8)
    bob = np.zeros(size, dtype=np.uint8)
    bob[:mismatches] = 1
    return PairedBits(indices=np.arange(size), alice=alice, bob=bob)


def test_estimation_zero_errors_proceeds():
    result = estimate_eavesdropping(sample_of(0, 50), threshold=0.11)
    assert result.decision is Decision.PROCEED and result.e_x == 0.0


def test_estimation_above_threshold_aborts():
    result = estimate_eavesdropping(sample_of(25, 100), threshold=0.11)
    assert result.e_x == 0.25
    assert result.decision is Decision.ABORT and result.reason == REASON_THRESHOLD


def test_estimation_empty_sample_aborts_with_distinct_reason():
    result = estimate_eavesdropping(sample_of(0, 0), threshold=0.11)
    assert result.decision is Decision.ABORT
    assert result.reason == REASON_EMPTY_SAMPLE and result.e_x is None


def test_abort_is_a_pure_threshold_function():
    threshold = 0.2
    for mismatches in range(0, 21):
        result = estimate_eavesdropping(sample_of(mismatches, 100), threshold)
        expected = Decision.ABORT if mismatches / 100 > threshold else Decision.PROCEED
        assert result.decision is expected
    # boundary: e_x == threshold proceeds
    assert estimate_eavesdropping(sample_of(20, 100), 0.2).decision is Decision.PROCEED


def test_threshold_domain_is_validated():
    for bad in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            estimate_eavesdropping(sample_of(0, 10), bad)


def test_full_intercept_session_aborts_at_one_quarter():
    cfg = ProtocolConfig(n_pulses=100_000, strategy=SymmetricRandom(), decoy_probability=0.1)
    eve = EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=1.0)
    t = run_quantum_phase(cfg, ChannelParams(transmittance=1.0), eve, SessionSeeds.from_master(13))
    _, _, x_sample, _, _ = announce_and_sift(t)
    result = estimate_eavesdropping(x_sample, threshold=0.11)
    assert result.e_x == pytest.approx(0.25, abs=0.01)
    assert result.decision is Decision.ABORT
