"""Key verification and privacy amplification via Toeplitz hashing.

A Toeplitz matrix over GF(2) is parameterized by a single seed of
in_len + out_len - 1 bits: entry T[i, j] = seed[i - j + in_len - 1], so the
first row is seed[in_len-1 .. 0] and the first column seed[in_len-1 ..].
Applying T to a bit vector is a window of the integer convolution of seed
and input, taken mod 2. It is computed with a real FFT in O(N log N), as
in high-speed privacy amplification (Tang et al., Sci. Rep. 9, 15733,
2019); `toeplitz_apply` states why float64 rounding gives exact bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bits import as_bits, random_bits
from ..keys import KeyMaterial, KeyStage


def binary_entropy(e: float) -> float:
    """Shannon entropy of a Bernoulli(e) bit, in bits; h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def compute_final_length(n_sifted: int, e_x: float, leak: int, security_margin: int) -> int:
    """Asymptotic estimate of the extractable key length after compression.

    `leak` is every key bit disclosed about the sifted key: the syndrome
    and parity bits of reconciliation plus the verification tag.
    out = max(0, floor(n_sifted * (1 - h(e_x))) - leak - margin); the result
    never grows when the error rate or the leak grows. Zero means the round
    yields no key.
    """
    if n_sifted < 0 or leak < 0 or security_margin < 0:
        raise ValueError("inputs must be non-negative")
    usable = math.floor(n_sifted * (1.0 - binary_entropy(e_x)))
    return max(0, usable - leak - security_margin)


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits defining one Toeplitz matrix; length = in_len + out_len - 1."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", as_bits(self.bits))

    @property
    def length(self) -> int:
        return int(self.bits.size)

    @staticmethod
    def required_length(in_len: int, out_len: int) -> int:
        return max(in_len + out_len - 1, 0)

    @classmethod
    def random(cls, in_len: int, out_len: int, rng: np.random.Generator) -> "ToeplitzSeed":
        return cls(bits=random_bits(cls.required_length(in_len, out_len), rng))


def toeplitz_apply(seed: ToeplitzSeed, x: np.ndarray, out_len: int) -> np.ndarray:
    """Multiply the seeded out_len x len(x) Toeplitz matrix by x over GF(2).

    Output i is bit 0 of entry i + in_len - 1 of the integer convolution
    seed * x, which a circular convolution of size N >= len(seed) (the next
    power of two) computes without wrap-around. Those entries are integers
    in [0, in_len], and float64 FFT convolution of 0/1 vectors errs by a
    small multiple of eps * N * log2(N) (~5e-9 at N = 2^21; 5.8e-11 measured
    at in_len = 10^6), far inside the 0.5 that rounding tolerates. An entry
    further than 0.25 from an integer raises FloatingPointError.
    """
    x = as_bits(x)
    in_len = int(x.size)
    if out_len < 0:
        raise ValueError("out_len must be non-negative")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if seed.length != ToeplitzSeed.required_length(in_len, out_len):
        raise ValueError(
            f"seed length {seed.length} does not match dimensions "
            f"{out_len}x{in_len} (need {ToeplitzSeed.required_length(in_len, out_len)})"
        )
    if in_len == 0:
        return np.zeros(out_len, dtype=np.uint8)
    n = 1 << (seed.length - 1).bit_length()
    spectrum = np.fft.rfft(seed.bits, n) * np.fft.rfft(x, n)
    conv = np.fft.irfft(spectrum, n)[in_len - 1 : in_len - 1 + out_len]
    counts = np.rint(conv)
    if np.abs(conv - counts).max() > 0.25:
        raise FloatingPointError("FFT convolution lost integer precision")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def verify_keys(
    k_a: KeyMaterial,
    k_b: KeyMaterial,
    hash_seed: ToeplitzSeed,
    tag_bits: int,
) -> bool:
    """Compare short hashes of the two keys under a fresh public seed.

    Equal keys always verify; unequal keys collide with probability 2^-tag_bits
    over the seed choice. The published tag discloses tag_bits key bits.
    """
    if k_a.length != k_b.length:
        raise ValueError(f"key lengths differ: {k_a.length} vs {k_b.length}")
    if tag_bits < 1:
        raise ValueError("tag_bits must be positive")
    tag_a = toeplitz_apply(hash_seed, k_a.bits, tag_bits)
    tag_b = toeplitz_apply(hash_seed, k_b.bits, tag_bits)
    return bool(np.array_equal(tag_a, tag_b))


def amplify_privacy(key: KeyMaterial, seed: ToeplitzSeed, out_len: int) -> KeyMaterial:
    """Compress a verified key into its final form with a seeded Toeplitz hash."""
    if key.stage is not KeyStage.VERIFIED:
        raise ValueError(f"privacy amplification requires a verified key, got {key.stage.name}")
    if out_len > key.length:
        raise ValueError(f"out_len {out_len} exceeds key length {key.length}")
    final_bits = toeplitz_apply(seed, key.bits, out_len)
    return KeyMaterial(bits=final_bits, stage=KeyStage.FINAL)
