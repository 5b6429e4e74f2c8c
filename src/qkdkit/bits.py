"""Bit-array helpers shared across the package.

Keys, pads, seeds and syndromes are all represented as numpy uint8 arrays
holding one bit (0/1) per element. These helpers cover conversion,
deterministic seed derivation and random generation, plus the field check
that every config dataclass runs in `__post_init__`.
"""
from __future__ import annotations

import hashlib

import numpy as np


class FieldError(ValueError):
    """A dataclass field holds a value it may not; `field` is its name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_field(obj, name: str, ok: bool, allowed: str) -> None:
    """Reject the value of obj's field `name` unless `ok`."""
    if not ok:
        raise FieldError(name, f"{name} must be {allowed}, got {getattr(obj, name)!r}")


def as_bits(values) -> np.ndarray:
    """Coerce a sequence of 0/1 values into a uint8 bit array."""
    bits = np.asarray(values, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError(f"bit array must be one-dimensional, got shape {bits.shape}")
    if bits.size and bits.max() > 1:
        raise ValueError("bit array may only contain 0 and 1")
    return bits


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n uniform bits from a numpy generator."""
    if n < 0:
        raise ValueError("bit count must be non-negative")
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def bits_from_bytes(data: bytes, n_bits: int | None = None) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits is not None:
        if n_bits > bits.size:
            raise ValueError("not enough bytes for requested bit count")
        bits = bits[:n_bits]
    return bits.astype(np.uint8)


def bytes_from_bits(bits: np.ndarray) -> bytes:
    """Pack a bit array into bytes, zero-padding the final byte."""
    bits = as_bits(bits)
    return np.packbits(bits).tobytes()


def bits_to_string(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in as_bits(bits))


def bits_from_string(text: str) -> np.ndarray:
    if any(c not in "01" for c in text):
        raise ValueError("bit string may only contain '0' and '1'")
    return np.fromiter((1 if c == "1" else 0 for c in text), dtype=np.uint8, count=len(text))


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a bit array as a big-endian integer."""
    value = 0
    for b in as_bits(bits):
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value does not fit in {width} bits")
    return np.fromiter(((value >> (width - 1 - i)) & 1 for i in range(width)), dtype=np.uint8, count=width)


def xor_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_bits(a), as_bits(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return np.bitwise_xor(a, b)


def parity(bits: np.ndarray) -> int:
    bits = as_bits(bits)
    return int(bits.sum() & 1) if bits.size else 0


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 63-bit stream seed from a master seed and labels.

    The derivation is a SHA-256 of the decimal master seed plus the label
    path, so every (master, labels) pair maps to the same seed on every
    platform and run.
    """
    tag = ":".join([str(master)] + [str(label) for label in labels])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
