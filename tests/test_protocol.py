import numpy as np
import pytest

from oracles import preshared_bit
from qkdkit.channel import Basis, ChannelParams, EveKind, EveModel
from qkdkit.protocol import (
    AsymmetricRandom,
    PresharedSequence,
    ProtocolConfig,
    ProtocolError,
    SessionSeeds,
    SymmetricRandom,
    Transcript,
    draw_bases,
    dump_transcript,
    parse_transcript,
    run_quantum_phase,
)

NOISELESS = ChannelParams(transmittance=1.0)
NO_EVE = EveModel()
COLUMNS = ("detected", "bit", "basis", "decoy", "measured_basis", "measured_bit")


def columns(t: Transcript) -> dict:
    return {name: None if getattr(t, name) is None else getattr(t, name).tolist() for name in COLUMNS}


def test_preshared_sequence_agrees_between_parties():
    strategy = PresharedSequence(shared_seed=b"\x12\x34\x56")
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(999)
    assert np.array_equal(draw_bases(strategy, 4000, rng_a), draw_bases(strategy, 4000, rng_b))


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_preshared_bulk_expansion_matches_per_position_oracle(n):
    seed = b"\x12\x34\x56"
    bases = draw_bases(PresharedSequence(shared_seed=seed), n, np.random.default_rng(0))
    assert bases.dtype == np.uint8
    assert bases.tolist() == [preshared_bit(seed, i) for i in range(n)]


def test_symmetric_basis_fraction():
    rng = np.random.default_rng(2)
    n = 100_000
    z = np.count_nonzero(draw_bases(SymmetricRandom(), n, rng) == Basis.Z)
    assert abs(z / n - 0.5) < 0.01


def test_asymmetric_basis_fraction():
    rng = np.random.default_rng(3)
    n = 100_000
    z = np.count_nonzero(draw_bases(AsymmetricRandom(p_z=0.9), n, rng) == Basis.Z)
    assert abs(z / n - 0.9) < 0.01


def test_single_noiseless_pulse_preshared():
    cfg = ProtocolConfig(n_pulses=1, strategy=PresharedSequence(b"k"), decoy_probability=0.0)
    t = run_quantum_phase(cfg, NOISELESS, NO_EVE, SessionSeeds.from_master(5))
    assert t.n_pulses == 1
    assert t.detected[0]
    assert t.measured_bit[0] == t.bit[0]
    assert t.measured_basis[0] == t.basis[0]


def test_transcripts_are_aligned_and_consistent():
    cfg = ProtocolConfig(n_pulses=3000, strategy=SymmetricRandom(), decoy_probability=0.2)
    ch = ChannelParams(transmittance=0.5)
    t = run_quantum_phase(cfg, ch, NO_EVE, SessionSeeds.from_master(6))
    for name in COLUMNS:
        assert getattr(t, name).shape == (3000,), name
    for name in ("bit", "basis", "measured_basis", "measured_bit"):
        assert set(np.unique(getattr(t, name)).tolist()) <= {0, 1}, name
    assert t.detected.dtype == t.decoy.dtype == bool
    # measured columns hold nothing where the pulse was lost
    assert not t.measured_bit[~t.detected].any() and not t.measured_basis[~t.detected].any()
    assert 0 < np.count_nonzero(t.detected) < 3000


def test_symmetric_basis_match_fraction():
    cfg = ProtocolConfig(n_pulses=100_000, strategy=SymmetricRandom(), decoy_probability=0.0)
    t = run_quantum_phase(cfg, NOISELESS, NO_EVE, SessionSeeds.from_master(7))
    matches = np.count_nonzero((t.basis == t.measured_basis)[t.detected])
    assert abs(matches / np.count_nonzero(t.detected) - 0.5) < 0.01


def test_asymmetric_basis_match_fraction():
    # independent oracle: P(match) = p_z^2 + (1 - p_z)^2
    p_z = 0.9
    expected = p_z**2 + (1 - p_z) ** 2
    assert expected == pytest.approx(0.82)

    cfg = ProtocolConfig(n_pulses=100_000, strategy=AsymmetricRandom(p_z=p_z), decoy_probability=0.0)
    t = run_quantum_phase(cfg, NOISELESS, NO_EVE, SessionSeeds.from_master(8))
    matches = np.count_nonzero((t.basis == t.measured_basis)[t.detected])
    assert abs(matches / np.count_nonzero(t.detected) - expected) < 0.01


def test_preshared_strategy_never_mismatches():
    for master in (1, 2, 3):
        cfg = ProtocolConfig(
            n_pulses=5000, strategy=PresharedSequence(b"shared"), decoy_probability=0.1
        )
        ch = ChannelParams(transmittance=0.7)
        t = run_quantum_phase(cfg, ch, NO_EVE, SessionSeeds.from_master(master))
        assert np.array_equal(t.basis[t.detected], t.measured_basis[t.detected])


def test_raw_keys_agree_on_matched_positions_without_noise():
    cfg = ProtocolConfig(n_pulses=20_000, strategy=SymmetricRandom(), decoy_probability=0.1)
    t = run_quantum_phase(cfg, NOISELESS, NO_EVE, SessionSeeds.from_master(9))
    matched = t.detected & (t.basis == t.measured_basis)
    assert matched.any()
    assert np.array_equal(t.bit[matched], t.measured_bit[matched])


def test_identical_seeds_give_identical_transcripts():
    cfg = ProtocolConfig(n_pulses=4000, strategy=SymmetricRandom(), decoy_probability=0.15)
    ch = ChannelParams(transmittance=0.6, misalignment_error=0.02)
    eve = EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=0.4)
    first = run_quantum_phase(cfg, ch, eve, SessionSeeds.from_master(10))
    second = run_quantum_phase(cfg, ch, eve, SessionSeeds.from_master(10))
    assert columns(first) == columns(second)
    third = run_quantum_phase(cfg, ch, eve, SessionSeeds.from_master(11))
    assert columns(first) != columns(third)


def test_transcript_dump_and_parse_roundtrip():
    cfg = ProtocolConfig(n_pulses=200, strategy=SymmetricRandom(), decoy_probability=0.3)
    ch = ChannelParams(transmittance=0.5)
    t = run_quantum_phase(cfg, ch, NO_EVE, SessionSeeds.from_master(12))
    for party in ("alice", "bob"):
        view = t.held_by(party)
        text = dump_transcript(view)
        assert columns(parse_transcript(text)) == columns(view)
        assert dump_transcript(parse_transcript(text)) == text
    line = dump_transcript(t.held_by("alice")).splitlines()[0]
    assert line.count(",") == 6 and line.startswith("0,")


def test_transcript_golden_text():
    # positions: detected Z signal, lost pulse, detected decoy, detected X signal
    t = Transcript(
        detected=np.array([True, False, True, True]),
        bit=np.array([1, 0, 0, 1], dtype=np.uint8),
        basis=np.array([Basis.Z, Basis.X, Basis.Z, Basis.X], dtype=np.uint8),
        decoy=np.array([False, False, True, False]),
        measured_basis=np.array([Basis.Z, 0, Basis.X, Basis.X], dtype=np.uint8),
        measured_bit=np.array([1, 0, 1, 0], dtype=np.uint8),
    )
    alice = "0,Z,1,signal,1,,\n1,X,0,signal,0,,\n2,Z,0,decoy,1,,\n3,X,1,signal,1,,\n"
    bob = "0,,,,1,Z,1\n1,,,,0,,\n2,,,,1,X,1\n3,,,,1,X,0\n"
    assert dump_transcript(t.held_by("alice")) == alice
    assert dump_transcript(t.held_by("bob")) == bob
    assert columns(parse_transcript(alice)) == columns(t.held_by("alice"))
    assert columns(parse_transcript(bob)) == columns(t.held_by("bob"))


def test_record_and_config_validation():
    with pytest.raises(ProtocolError):
        parse_transcript("0,,,,1,Z,\n")  # measured basis without its bit
    with pytest.raises(ProtocolError):
        parse_transcript("0,,,,0,Z,1\n")  # measured fields on a lost pulse
    with pytest.raises(ProtocolError):
        parse_transcript("0,Q,1,signal,1,,\n")
    with pytest.raises(ProtocolError):
        parse_transcript("0,Z,1,signal,1,,\n0,Z,1,signal,1,,\n")  # index out of order
    with pytest.raises(ProtocolError):
        parse_transcript("0,Z,1,signal,1\n")
    with pytest.raises(ValueError):
        ProtocolConfig(n_pulses=0, strategy=SymmetricRandom())
    with pytest.raises(ValueError):
        ProtocolConfig(n_pulses=10, strategy=SymmetricRandom(), decoy_probability=1.0)
    with pytest.raises(ValueError):
        AsymmetricRandom(p_z=1.0)
    with pytest.raises(ValueError):
        PresharedSequence(b"")
    # the length check that keeps the columns aligned
    with pytest.raises(ProtocolError):
        Transcript(detected=np.zeros(2, dtype=bool), bit=np.zeros(3, dtype=np.uint8))
