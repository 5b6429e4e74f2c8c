import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

from oracles import (
    ALL_STATES,
    Qubit,
    intercept_resend_error_probability,
    measure as oracle_measure,
    prepare_pulse,
    transmit,
)
from qkdkit.channel import (
    Basis,
    ChannelParams,
    EveKind,
    EveModel,
    IntensityClass,
    measure,
    propagate,
)


def states(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(bit, basis) columns cycling through the four states."""
    bit = np.array([ALL_STATES[i % 4][0] for i in range(n)], dtype=np.uint8)
    basis = np.array([ALL_STATES[i % 4][1] for i in range(n)], dtype=np.uint8)
    return bit, basis


def signal(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def test_prepare_pulse_encodes_all_four_states():
    p = prepare_pulse(0, Basis.Z, IntensityClass.SIGNAL)
    assert p.qubit == Qubit(0, Basis.Z) and p.intensity is IntensityClass.SIGNAL
    p = prepare_pulse(1, Basis.X, IntensityClass.SIGNAL)
    assert p.qubit == Qubit(1, Basis.X)
    p = prepare_pulse(0, Basis.X, IntensityClass.DECOY)
    assert p.qubit == Qubit(0, Basis.X) and p.intensity is IntensityClass.DECOY
    with pytest.raises(ValueError):
        Qubit(2, Basis.Z)
    # the column kernel carries every state through a lossless, quiet channel
    bit, basis = states(4)
    detected, out_bit, out_basis, flip = propagate(
        bit, basis, signal(4), ChannelParams(), EveModel(), np.random.default_rng(0)
    )
    assert detected.all() and not flip.any()
    assert out_bit.tolist() == [0, 0, 1, 1] and out_basis.tolist() == [Basis.Z, Basis.X] * 2


def test_matched_basis_measurement_is_deterministic():
    rng = np.random.default_rng(1)
    bit, basis = states(4 * 200)
    assert np.array_equal(measure(bit, basis, basis, rng), bit)


def test_mismatched_basis_measurement_is_uniform():
    rng = np.random.default_rng(2)
    n = 100_000
    outcomes = measure(
        np.zeros(n, np.uint8), np.full(n, Basis.X, np.uint8), np.full(n, Basis.Z, np.uint8), rng
    )
    zeros = int(np.count_nonzero(outcomes == 0))
    assert abs(zeros / n - 0.5) < 0.01
    # two-sided binomial test for p = 1/2 at significance 1e-3
    assert binomtest(zeros, n, 0.5).pvalue > 1e-3


def test_zero_transmittance_never_detects():
    rng = np.random.default_rng(3)
    ch = ChannelParams(transmittance=0.0)
    n = 1000
    bit, basis = np.ones(n, np.uint8), np.full(n, Basis.Z, np.uint8)
    detected, *_ = propagate(bit, basis, signal(n), ch, EveModel(), rng)
    assert not detected.any()


def test_noiseless_matched_transmission_is_error_free():
    rng = np.random.default_rng(4)
    ch = ChannelParams(transmittance=1.0)
    bit, basis = states(4 * 100)
    detected, out_bit, out_basis, flip = propagate(bit, basis, signal(bit.size), ch, EveModel(), rng)
    assert detected.all() and not flip.any()
    assert np.array_equal(measure(out_bit, out_basis, basis, rng), bit)


def test_decoy_detect_scale_reduces_detections():
    rng = np.random.default_rng(5)
    ch = ChannelParams(transmittance=1.0, decoy_detect_scale=0.4)
    n = 50_000
    bit, basis = np.zeros(n, np.uint8), np.full(n, Basis.Z, np.uint8)
    detected, *_ = propagate(bit, basis, np.ones(n, dtype=bool), ch, EveModel(), rng)
    assert abs(np.count_nonzero(detected) / n - 0.4) < 0.01


def test_detection_rate_per_intensity_class():
    rng = np.random.default_rng(14)
    ch = ChannelParams(transmittance=0.6, decoy_detect_scale=0.5)
    n = 100_000
    bit, basis = states(n)
    decoy = np.arange(n) % 3 == 0
    detected, *_ = propagate(bit, basis, decoy, ch, EveModel(), rng)
    for mask, expected in ((~decoy, 0.6), (decoy, 0.3)):
        hits, trials = int(np.count_nonzero(detected & mask)), int(np.count_nonzero(mask))
        assert abs(hits / trials - expected) < 0.01
        assert binomtest(hits, trials, expected).pvalue > 1e-3


def test_full_intercept_resend_gives_quarter_error_rate():
    # independent oracle first: exact enumeration gives 1/4
    assert intercept_resend_error_probability() == Fraction(1, 4)

    rng = np.random.default_rng(6)
    ch = ChannelParams(transmittance=1.0)
    eve = EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=1.0)
    n = 100_000
    bit, basis = states(n)
    detected, out_bit, out_basis, _ = propagate(bit, basis, signal(n), ch, eve, rng)
    assert detected.all()
    errors = np.count_nonzero(measure(out_bit, out_basis, basis, rng) != bit)
    assert abs(errors / n - 0.25) < 0.01


def test_partial_interception_scales_linearly():
    rng = np.random.default_rng(7)
    ch = ChannelParams(transmittance=1.0)
    n = 60_000
    bit, basis = states(n)
    for fraction in (0.0, 0.5, 1.0):
        kind = EveKind.INTERCEPT_RESEND if fraction else EveKind.NONE
        eve = EveModel(kind=kind, fraction=fraction)
        _, out_bit, out_basis, _ = propagate(bit, basis, signal(n), ch, eve, rng)
        errors = np.count_nonzero(measure(out_bit, out_basis, basis, rng) != bit)
        expected = fraction / 4
        se = (max(expected * (1 - expected), 1e-9) / n) ** 0.5
        assert abs(errors / n - expected) <= max(3 * se, 1e-9)


def test_misalignment_flips_matched_outcomes():
    rng = np.random.default_rng(8)
    ch = ChannelParams(transmittance=1.0, misalignment_error=1.0)
    bit, basis = states(4)
    *_, flip = propagate(bit, basis, signal(4), ch, EveModel(), rng)
    assert flip.all()


def test_misalignment_flip_rate():
    rng = np.random.default_rng(15)
    ch = ChannelParams(transmittance=1.0, misalignment_error=0.05)
    n = 100_000
    bit, basis = states(n)
    _, out_bit, out_basis, flip = propagate(bit, basis, signal(n), ch, EveModel(), rng)
    errors = int(np.count_nonzero((measure(out_bit, out_basis, basis, rng) ^ flip) != bit))
    assert errors == np.count_nonzero(flip)
    assert abs(errors / n - 0.05) < 0.01
    assert binomtest(errors, n, 0.05).pvalue > 1e-3


def test_kernel_matches_scalar_oracle_rates():
    # detection and matched-basis error rates of the column kernel against
    # the one-pulse-at-a-time reference, under loss, decoys, attack and noise
    ch = ChannelParams(transmittance=0.6, misalignment_error=0.05, decoy_detect_scale=0.5)
    eve = EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=0.4)
    n = 40_000
    bit, basis = states(n)
    decoy = np.arange(n) % 5 == 0

    rng = random.Random(16)
    oracle_detected = oracle_errors = 0
    for i in range(n):
        intensity = IntensityClass.DECOY if decoy[i] else IntensityClass.SIGNAL
        event = transmit(prepare_pulse(int(bit[i]), Basis(basis[i]), intensity), ch, eve, rng)
        if event is not None:
            oracle_detected += 1
            outcome = oracle_measure(event.qubit, Basis(basis[i]), rng) ^ event.flip
            oracle_errors += outcome != bit[i]

    rng = np.random.default_rng(16)
    detected, out_bit, out_basis, flip = propagate(bit, basis, decoy, ch, eve, rng)
    wrong = (measure(out_bit, out_basis, basis, rng) ^ flip) != bit
    kernel_detected = int(np.count_nonzero(detected))
    kernel_errors = int(np.count_nonzero(wrong & detected))

    p_detect = 0.8 * 0.6 + 0.2 * 0.3
    p_error = 0.4 / 4 * (1 - 0.05) + (1 - 0.4 / 4) * 0.05
    for count, trials, p in (
        (oracle_detected, n, p_detect),
        (kernel_detected, n, p_detect),
        (oracle_errors, oracle_detected, p_error),
        (kernel_errors, kernel_detected, p_error),
    ):
        assert binomtest(count, trials, p).pvalue > 1e-3, (count, trials, p)


def test_identical_seeds_reproduce_transmission():
    ch = ChannelParams(transmittance=0.6, misalignment_error=0.05)
    eve = EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=0.3)
    bit, basis = states(2000)

    def run(seed):
        rng = np.random.default_rng(seed)
        return [column.tolist() for column in propagate(bit, basis, signal(2000), ch, eve, rng)]

    assert run(99) == run(99)
    assert run(99) != run(100)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ChannelParams(transmittance=1.5)
    with pytest.raises(ValueError):
        ChannelParams(misalignment_error=-0.1)
    with pytest.raises(ValueError):
        EveModel(kind=EveKind.NONE, fraction=0.2)
    with pytest.raises(ValueError):
        EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=1.2)
    # intercept-resend with fraction 0 is legal and behaves as no attack
    assert EveModel(kind=EveKind.INTERCEPT_RESEND, fraction=0.0).fraction == 0.0
