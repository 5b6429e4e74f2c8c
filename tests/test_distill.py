import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit.keys import KeyMaterial, KeyStage
from qkdkit.postproc.distill import (
    ToeplitzSeed,
    amplify_privacy,
    binary_entropy,
    compute_final_length,
    toeplitz_apply,
    verify_keys,
)
from oracles import toeplitz_apply_direct, toeplitz_matrix


def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # direct evaluation of the formula as the oracle
    direct = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    assert binary_entropy(0.11) == pytest.approx(direct)
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_final_length_formula():
    assert compute_final_length(500, 0.0, 0, 0) == 500
    assert compute_final_length(500, 0.5, 0, 0) == 0
    assert compute_final_length(500, 0.5, 10_000, 123) == 0
    expected = math.floor(10_000 * (1 - binary_entropy(0.05))) - 1200 - 64 - 100
    got = compute_final_length(10_000, 0.05, 1200 + 64, 100)
    assert got == expected == 5772
    for n, leak, margin in ((-1, 0, 0), (500, -1, 0), (500, 0, -1)):
        with pytest.raises(ValueError):
            compute_final_length(n, 0.0, leak, margin)


@settings(max_examples=200)
@given(
    n=st.integers(0, 20_000),
    e1=st.floats(0, 0.5),
    e2=st.floats(0, 0.5),
    leak=st.integers(0, 5000),
    extra=st.integers(0, 2000),
    margin=st.integers(0, 500),
)
def test_final_length_monotonicity(n, e1, e2, leak, extra, margin):
    lo, hi = sorted((e1, e2))
    base = compute_final_length(n, lo, leak, margin)
    assert compute_final_length(n, hi, leak, margin) <= base
    assert compute_final_length(n, lo, leak + extra, margin) <= base
    assert compute_final_length(n, lo, leak, margin + extra) <= base


def test_toeplitz_worked_example():
    # 2x3 matrix with first column [1, 0] and first row [1, 1, 0]:
    # T = [[1, 1, 0], [0, 1, 1]], input [1, 0, 1] -> [1, 1]
    seed = ToeplitzSeed(np.array([0, 1, 1, 0], dtype=np.uint8))
    T = toeplitz_matrix(seed.bits, in_len=3, out_len=2)
    assert T.tolist() == [[1, 1, 0], [0, 1, 1]]
    x = np.array([1, 0, 1], dtype=np.uint8)
    assert (T @ x % 2).tolist() == [1, 1]
    assert toeplitz_apply(seed, x, 2).tolist() == [1, 1]


def test_toeplitz_matches_bruteforce_for_short_keys():
    rng = np.random.default_rng(20)
    for in_len in range(1, 33):
        for _ in range(8):
            out_len = int(rng.integers(1, in_len + 1))
            seed = ToeplitzSeed.random(in_len, out_len, rng)
            x = rng.integers(0, 2, in_len, dtype=np.uint8)
            expected = toeplitz_matrix(seed.bits, in_len, out_len) @ x % 2
            assert np.array_equal(toeplitz_apply(seed, x, out_len), expected)


def test_toeplitz_linearity():
    rng = np.random.default_rng(21)
    seed = ToeplitzSeed.random(64, 32, rng)
    for _ in range(1000):
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = rng.integers(0, 2, 64, dtype=np.uint8)
        left = toeplitz_apply(seed, a ^ b, 32)
        right = toeplitz_apply(seed, a, 32) ^ toeplitz_apply(seed, b, 32)
        assert np.array_equal(left, right)


def test_toeplitz_matches_direct_convolution():
    rng = np.random.default_rng(23)
    # edge shapes, then random ones; the all-ones pair gives the largest sums
    shapes = [(1, 1), (1, 9), (9, 1), (4096, 1), (1, 4096), (33, 33), (1000, 1000), (20_000, 20_000)]
    shapes += [(int(n), int(rng.integers(1, n + 1))) for n in rng.integers(2, 5000, 20)]
    for in_len, out_len in shapes:
        seeds = [ToeplitzSeed.random(in_len, out_len, rng), ToeplitzSeed(np.ones(in_len + out_len - 1))]
        inputs = [rng.integers(0, 2, in_len, dtype=np.uint8), np.ones(in_len, dtype=np.uint8)]
        for seed, x in zip(seeds, inputs):
            expected = toeplitz_apply_direct(seed.bits, x, out_len)
            assert np.array_equal(toeplitz_apply(seed, x, out_len), expected), (in_len, out_len)


def test_toeplitz_rejects_inexact_fft(monkeypatch):
    rng = np.random.default_rng(24)
    seed = ToeplitzSeed.random(100, 40, rng)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    with pytest.raises(FloatingPointError):
        toeplitz_apply(seed, rng.integers(0, 2, 100, dtype=np.uint8), 40)


def test_toeplitz_golden_at_noisy_bulk_size():
    # SHA-256 of the output bytes at the bench noisy-bulk shape
    rng = np.random.default_rng(20_300)
    seed = ToeplitzSeed.random(20_300, 5_900, rng)
    x = rng.integers(0, 2, 20_300, dtype=np.uint8)
    out = toeplitz_apply(seed, x, 5_900)
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "aade284f589e168c8e8a5bacf3d863fadcdcc2e61b37d0e37f63b0c6b427e0d2"
    )


def test_all_zero_key_hashes_to_zero():
    rng = np.random.default_rng(22)
    key = KeyMaterial(np.zeros(40, dtype=np.uint8), KeyStage.VERIFIED)
    for _ in range(20):
        seed = ToeplitzSeed.random(40, 16, rng)
        assert not amplify_privacy(key, seed, 16).bits.any()


def test_verify_keys_identical_always_true():
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, 100, dtype=np.uint8)
    k = KeyMaterial(bits, KeyStage.SIFTED)
    for _ in range(50):
        seed = ToeplitzSeed.random(100, 32, rng)
        assert verify_keys(k, KeyMaterial(bits.copy(), KeyStage.SIFTED), seed, 32)


def test_verify_keys_exhaustive_collision_fraction():
    # 8-bit keys, 8-bit tags: enumerate the full 2^15 seed space
    k_a = KeyMaterial(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), KeyStage.SIFTED)
    k_b = KeyMaterial(np.array([1, 0, 0, 1, 0, 0, 1, 0], dtype=np.uint8), KeyStage.SIFTED)
    seed_len = ToeplitzSeed.required_length(8, 8)
    assert seed_len == 15
    collisions = 0
    for value in range(1 << seed_len):
        bits = np.array([(value >> i) & 1 for i in range(seed_len)], dtype=np.uint8)
        collisions += verify_keys(k_a, k_b, ToeplitzSeed(bits), 8)
    # pairwise independence makes the collision fraction exactly 2^-8
    assert collisions / (1 << seed_len) <= 2**-8 + 1e-9


def test_verify_keys_catches_single_bit_flips():
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2, 64, dtype=np.uint8)
    flipped = bits.copy()
    flipped[17] ^= 1
    k_a = KeyMaterial(bits, KeyStage.SIFTED)
    k_b = KeyMaterial(flipped, KeyStage.SIFTED)
    rejections = sum(
        not verify_keys(k_a, k_b, ToeplitzSeed.random(64, 16, rng), 16) for _ in range(100)
    )
    assert rejections >= 99


def test_amplify_privacy_contract():
    rng = np.random.default_rng(26)
    key = KeyMaterial(rng.integers(0, 2, 50, dtype=np.uint8), KeyStage.VERIFIED)
    seed = ToeplitzSeed.random(50, 20, rng)
    final = amplify_privacy(key, seed, 20)
    assert final.stage is KeyStage.FINAL and final.length == 20
    # deterministic in (key, seed)
    again = amplify_privacy(KeyMaterial(key.bits.copy(), KeyStage.VERIFIED), seed, 20)
    assert np.array_equal(final.bits, again.bits)
    with pytest.raises(ValueError):
        amplify_privacy(KeyMaterial(key.bits.copy(), KeyStage.SIFTED), seed, 20)
    with pytest.raises(ValueError):
        amplify_privacy(KeyMaterial(key.bits.copy(), KeyStage.VERIFIED), seed, 51)
    with pytest.raises(ValueError):
        amplify_privacy(KeyMaterial(key.bits.copy(), KeyStage.VERIFIED), ToeplitzSeed.random(49, 20, rng), 20)
    empty = amplify_privacy(key, ToeplitzSeed(np.zeros(49, np.uint8)), 0)
    assert empty.length == 0 and empty.stage is KeyStage.FINAL


def test_key_material_lifecycle():
    key = KeyMaterial(np.array([1, 0, 1], dtype=np.uint8))
    assert key.stage is KeyStage.RAW
    sifted = key.advanced(KeyStage.SIFTED)
    assert sifted.stage is KeyStage.SIFTED
    with pytest.raises(ValueError):
        sifted.advanced(KeyStage.RAW)
    with pytest.raises(ValueError):
        sifted.advanced(KeyStage.SIFTED)
    final = sifted.advanced(KeyStage.FINAL)
    final.consume()
    from qkdkit.keys import KeyReuseError

    with pytest.raises(KeyReuseError):
        final.consume()
