"""Authentication of the public channel and the key-growing lifecycle.

Every classical message is tagged individually. The workhorse is a
Wegman-Carter MAC fed from a pool of pre-shared (or quantum-grown) secret
bits: the message is first compressed to one word with a polynomial hash
over GF(2^w) keyed by a pool-drawn point, the word is mapped to the tag
length by a pool-seeded Toeplitz matrix, and the result is one-time-padded
with fresh pool bits. Each tag therefore costs 2w + 2t - 1 pool bits
regardless of message size, which is what lets a session's final key fund
the next round's authentication. The forgery probability is bounded by
2^-t plus L * 2^-w for an L-block message.

The very first round, which has no shared secret yet, is authenticated
with hash-based one-time signatures (Lamport keypairs over SHA-256); once
a final key exists, part of it refills the pool and the MAC takes over.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bits import as_bits, bits_from_bytes, bits_to_int, int_to_bits
from .keys import KeyMaterial, KeyStage
from .postproc.distill import ToeplitzSeed, toeplitz_apply

# Verified-irreducible moduli for GF(2^w); value includes the x^w term.
_GF_MODULI = {
    4: (1 << 4) | 0b11,  # x^4 + x + 1
    8: (1 << 8) | 0x1B,  # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | 0x2B,  # x^16 + x^5 + x^3 + x + 1
    32: (1 << 32) | 0x8D,  # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | 0x1B,  # x^64 + x^4 + x^3 + x + 1
}


def gf_mul(a: int, b: int, word_bits: int) -> int:
    """Carry-less multiply modulo the fixed irreducible polynomial."""
    modulus = _GF_MODULI[word_bits]
    top = 1 << word_bits
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return result


def poly_compress(message: bytes, alpha: int, word_bits: int) -> int:
    """Polynomial hash of a byte string into one GF(2^w) word.

    Horner evaluation over the block sequence [bit_length, m_1, ..., m_L]
    (big-endian w-bit blocks, the last zero-padded). Two distinct
    equal-length messages collide with probability at most (L-1) * 2^-w
    over alpha; single-block messages never collide.
    """
    if word_bits not in _GF_MODULI:
        raise ValueError(f"word_bits must be one of {sorted(_GF_MODULI)}")
    word_bytes = word_bits // 8 if word_bits >= 8 else 1
    acc = (8 * len(message)) % (1 << word_bits)
    if word_bits >= 8:
        for off in range(0, len(message), word_bytes):
            block = int.from_bytes(message[off : off + word_bytes].ljust(word_bytes, b"\0"), "big")
            acc = gf_mul(acc, alpha, word_bits) ^ block
    else:
        # sub-byte words: consume the message bit by bit in w-bit groups
        bits = bits_from_bytes(message)
        for off in range(0, bits.size, word_bits):
            group = bits[off : off + word_bits]
            block = 0
            for bit in group:
                block = (block << 1) | int(bit)
            block <<= word_bits - group.size
            acc = gf_mul(acc, alpha, word_bits) ^ block
    return acc


class PoolExhaustedError(Exception):
    """The secret-bit reserve cannot cover the requested segment."""


@dataclass(frozen=True)
class SegmentHandle:
    """Reference to a consumed pool segment (offset and length in bits)."""

    start: int
    length: int


class AuthKeyPool:
    """Partitioned one-time reserve of secret bits for MAC seeds and pads.

    Bits are issued strictly in order and never twice; every consumption is
    logged so one-time discipline can be audited after the fact. Both
    parties hold mirrored copies and must consume in lockstep.
    """

    def __init__(self, bits: np.ndarray | None = None):
        self._bits = as_bits(bits if bits is not None else np.zeros(0, dtype=np.uint8)).copy()
        self._offset = 0
        self.consumption_log: list[tuple[int, int, str]] = []

    @property
    def available_bits(self) -> int:
        return int(self._bits.size - self._offset)

    @property
    def next_offset(self) -> int:
        return self._offset

    def consume(self, n_bits: int, purpose: str) -> tuple[np.ndarray, SegmentHandle]:
        if n_bits < 0:
            raise ValueError("segment length must be non-negative")
        if n_bits > self.available_bits:
            raise PoolExhaustedError(
                f"pool holds {self.available_bits} bits, {n_bits} requested for {purpose}"
            )
        handle = SegmentHandle(start=self._offset, length=n_bits)
        segment = self._bits[self._offset : self._offset + n_bits].copy()
        self._offset += n_bits
        self.consumption_log.append((handle.start, n_bits, purpose))
        return segment, handle

    def refill(self, bits: np.ndarray) -> None:
        """Append freshly grown secret bits for the following rounds."""
        self._bits = np.concatenate([self._bits, as_bits(bits)])


@dataclass(frozen=True)
class MacTag:
    """A Wegman-Carter tag plus the pool segment that produced it."""

    tag: np.ndarray
    seed_handle: SegmentHandle
    tag_bits: int
    word_bits: int


def pool_cost_per_tag(tag_bits: int, word_bits: int) -> int:
    """Secret bits consumed per message: hash seeds plus the one-time pad."""
    return 2 * word_bits + 2 * tag_bits - 1


def _tag_from_segment(message: bytes, segment: np.ndarray, tag_bits: int, word_bits: int) -> np.ndarray:
    alpha = bits_to_int(segment[:word_bits])
    toeplitz_bits = segment[word_bits : 2 * word_bits + tag_bits - 1]
    pad = segment[2 * word_bits + tag_bits - 1 :]
    word = poly_compress(message, alpha, word_bits)
    word_vec = int_to_bits(word, word_bits)
    hashed = toeplitz_apply(ToeplitzSeed(toeplitz_bits), word_vec, tag_bits)
    return np.bitwise_xor(hashed, pad)


def wc_tag(message: bytes, pool: AuthKeyPool, tag_bits: int = 64, word_bits: int = 64) -> MacTag:
    """Authenticate a message, consuming fresh seed and pad bits from the pool.

    Raises PoolExhaustedError when the reserve cannot fund the tag, which
    signals that key growing failed to set aside enough material.
    """
    if tag_bits < 1:
        raise ValueError("tag_bits must be positive")
    segment, handle = pool.consume(pool_cost_per_tag(tag_bits, word_bits), "mac-tag")
    tag = _tag_from_segment(message, segment, tag_bits, word_bits)
    return MacTag(tag=tag, seed_handle=handle, tag_bits=tag_bits, word_bits=word_bits)


REJECT_POOL_DESYNC = "pool-desync"
REJECT_TAG_MISMATCH = "tag-mismatch"


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None


def wc_verify(message: bytes, tag: MacTag, pool: AuthKeyPool) -> VerifyResult:
    """Recompute the tag from the mirrored pool segment and compare.

    The peer pool must be positioned at the same segment the sender
    consumed; a mismatch is reported as pool desynchronization without
    consuming anything.
    """
    expected_cost = pool_cost_per_tag(tag.tag_bits, tag.word_bits)
    if pool.next_offset != tag.seed_handle.start or tag.seed_handle.length != expected_cost:
        return VerifyResult(accepted=False, reason=REJECT_POOL_DESYNC)
    segment, _ = pool.consume(expected_cost, "mac-verify")
    recomputed = _tag_from_segment(message, segment, tag.tag_bits, tag.word_bits)
    if np.array_equal(recomputed, tag.tag):
        return VerifyResult(accepted=True)
    return VerifyResult(accepted=False, reason=REJECT_TAG_MISMATCH)


# ---------------------------------------------------------------------------
# Hash-based one-time signatures over SHA-256. Lamport is the concrete
# default; a Winternitz variant (shorter signatures, hash chains with a
# checksum) sits behind the same keygen/sign/verify interface.

SCHEME_LAMPORT = "lamport"
SCHEME_WINTERNITZ = "winternitz"


class KeyReuseError(Exception):
    """A one-time signing key was asked to sign a second message."""


def _ots_hash(data: bytes, out_bits: int) -> bytes:
    return hashlib.sha256(data).digest()[: (out_bits + 7) // 8]


def _message_digest_bits(message: bytes, digest_bits: int) -> list[int]:
    digest = hashlib.sha256(message).digest()
    bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
    return [int(b) for b in bits[:digest_bits]]


def _wots_chunks(message: bytes, digest_bits: int, window: int) -> list[int]:
    """Digest chunks plus checksum chunks, each in [0, 2^window - 1].

    The checksum sum(top - chunk) forces any digest tampering to lower at
    least one chunk, which a forger cannot do without inverting a chain.
    """
    bits = _message_digest_bits(message, digest_bits)
    chunks = []
    for off in range(0, digest_bits, window):
        group = bits[off : off + window]
        value = 0
        for b in group:
            value = (value << 1) | b
        value <<= window - len(group)
        chunks.append(value)
    top = (1 << window) - 1
    checksum = sum(top - c for c in chunks)
    n_checksum = 1
    while (1 << (window * n_checksum)) <= len(chunks) * top:
        n_checksum += 1
    for i in range(n_checksum - 1, -1, -1):
        chunks.append((checksum >> (window * i)) & top)
    return chunks


def _chain(value: bytes, steps: int, security_bits: int) -> bytes:
    for _ in range(steps):
        value = _ots_hash(value, security_bits)
    return value


@dataclass
class OtsKeypair:
    """One one-time keypair, usable exactly once.

    Lamport: secret/public hold 2 values per digest bit as (for-0, for-1)
    pairs. Winternitz: one hash-chain start/end per chunk, with `window`
    bits consumed per chain.
    """

    secret: list
    public: list
    security_bits: int
    digest_bits: int
    scheme: str = SCHEME_LAMPORT
    window: int = 0
    used: bool = False


@dataclass(frozen=True)
class OtsSignature:
    revealed: list[bytes]
    digest_bits: int
    scheme: str = SCHEME_LAMPORT
    window: int = 0


def ots_keygen(
    rng: np.random.Generator,
    security_bits: int = 128,
    digest_bits: int = 128,
    scheme: str = SCHEME_LAMPORT,
    window: int = 4,
) -> OtsKeypair:
    """Generate a one-time keypair; the public half is exportable."""
    if security_bits < 8 or security_bits > 256 or security_bits % 8:
        raise ValueError("security_bits must be a multiple of 8 in [8, 256]")
    if digest_bits < 1 or digest_bits > 256:
        raise ValueError("digest_bits must lie in [1, 256]")
    n_bytes = security_bits // 8
    if scheme == SCHEME_LAMPORT:
        secret = []
        public = []
        for _ in range(digest_bits):
            pre0 = rng.bytes(n_bytes)
            pre1 = rng.bytes(n_bytes)
            secret.append((pre0, pre1))
            public.append((_ots_hash(pre0, security_bits), _ots_hash(pre1, security_bits)))
        return OtsKeypair(
            secret=secret, public=public, security_bits=security_bits, digest_bits=digest_bits
        )
    if scheme == SCHEME_WINTERNITZ:
        if not 1 <= window <= 8:
            raise ValueError("window must lie in [1, 8]")
        n_chains = len(_wots_chunks(b"", digest_bits, window))
        top = (1 << window) - 1
        secret = [rng.bytes(n_bytes) for _ in range(n_chains)]
        public = [_chain(s, top, security_bits) for s in secret]
        return OtsKeypair(
            secret=secret,
            public=public,
            security_bits=security_bits,
            digest_bits=digest_bits,
            scheme=scheme,
            window=window,
        )
    raise ValueError(f"unknown signature scheme {scheme!r}")


def ots_sign(message: bytes, keypair: OtsKeypair) -> OtsSignature:
    """Reveal the per-chunk secrets or chain values; marks the key used."""
    if keypair.used:
        raise KeyReuseError("one-time signing key has already signed a message")
    keypair.used = True
    if keypair.scheme == SCHEME_LAMPORT:
        bits = _message_digest_bits(message, keypair.digest_bits)
        revealed = [keypair.secret[i][bit] for i, bit in enumerate(bits)]
    else:
        chunks = _wots_chunks(message, keypair.digest_bits, keypair.window)
        revealed = [
            _chain(keypair.secret[i], chunk, keypair.security_bits)
            for i, chunk in enumerate(chunks)
        ]
    return OtsSignature(
        revealed=revealed,
        digest_bits=keypair.digest_bits,
        scheme=keypair.scheme,
        window=keypair.window,
    )


def ots_verify(message: bytes, sig: OtsSignature, public: list) -> bool:
    """Check revealed values against the public images."""
    if not public or len(sig.revealed) != len(public):
        return False
    if sig.scheme == SCHEME_LAMPORT:
        if sig.digest_bits != len(public):
            return False
        bits = _message_digest_bits(message, sig.digest_bits)
        security_bits = 8 * len(public[0][0])
        for i, bit in enumerate(bits):
            revealed = sig.revealed[i]
            if len(revealed) != len(public[i][bit]):
                return False
            if _ots_hash(revealed, security_bits) != public[i][bit]:
                return False
        return True
    if sig.scheme == SCHEME_WINTERNITZ:
        chunks = _wots_chunks(message, sig.digest_bits, sig.window)
        if len(chunks) != len(public):
            return False
        top = (1 << sig.window) - 1
        security_bits = 8 * len(public[0])
        for i, chunk in enumerate(chunks):
            revealed = sig.revealed[i]
            if len(revealed) != len(public[i]):
                return False
            if _chain(revealed, top - chunk, security_bits) != public[i]:
                return False
        return True
    return False


_OTS_MAGIC = b"OTP1"
_WOTS_MAGIC = b"OTW1"


def export_ots_public(keypair: OtsKeypair) -> bytes:
    """Serialize the public key.

    Lamport: `OTP1`, lambda and L as uint32 BE, then the 2L hash images in
    (bit, value) order. Winternitz: `OTW1`, lambda, L and window as uint32
    BE, then one chain-end image per chunk.
    """
    if keypair.scheme == SCHEME_LAMPORT:
        blob = bytearray(_OTS_MAGIC)
        blob += keypair.security_bits.to_bytes(4, "big")
        blob += keypair.digest_bits.to_bytes(4, "big")
        for img0, img1 in keypair.public:
            blob += img0
            blob += img1
        return bytes(blob)
    blob = bytearray(_WOTS_MAGIC)
    blob += keypair.security_bits.to_bytes(4, "big")
    blob += keypair.digest_bits.to_bytes(4, "big")
    blob += keypair.window.to_bytes(4, "big")
    for img in keypair.public:
        blob += img
    return bytes(blob)


def import_ots_public(blob: bytes) -> tuple[list, int, int]:
    """Parse an exported public key; returns (images, security_bits, digest_bits)."""
    if len(blob) >= 12 and blob[:4] == _OTS_MAGIC:
        security_bits = int.from_bytes(blob[4:8], "big")
        digest_bits = int.from_bytes(blob[8:12], "big")
        n_bytes = security_bits // 8
        expected = 12 + 2 * digest_bits * n_bytes
        if not security_bits or security_bits % 8 or len(blob) != expected:
            raise ValueError(
                f"malformed public key blob: expected {expected} bytes, got {len(blob)}"
            )
        images = []
        off = 12
        for _ in range(digest_bits):
            images.append((blob[off : off + n_bytes], blob[off + n_bytes : off + 2 * n_bytes]))
            off += 2 * n_bytes
        return images, security_bits, digest_bits
    if len(blob) >= 16 and blob[:4] == _WOTS_MAGIC:
        security_bits = int.from_bytes(blob[4:8], "big")
        digest_bits = int.from_bytes(blob[8:12], "big")
        window = int.from_bytes(blob[12:16], "big")
        n_bytes = security_bits // 8
        if not security_bits or security_bits % 8 or not 1 <= window <= 8:
            raise ValueError("malformed public key blob header")
        n_chains = len(_wots_chunks(b"", digest_bits, window))
        expected = 16 + n_chains * n_bytes
        if len(blob) != expected:
            raise ValueError(
                f"malformed public key blob: expected {expected} bytes, got {len(blob)}"
            )
        images = [blob[16 + i * n_bytes : 16 + (i + 1) * n_bytes] for i in range(n_chains)]
        return images, security_bits, digest_bits
    raise ValueError("not a recognized one-time-signature public key blob")


# ---------------------------------------------------------------------------
# Key growing and per-round authentication mode


class InsufficientKeyError(Exception):
    """The final key cannot fund the requested authentication reserve."""


class CannotAuthenticateError(Exception):
    """No usable authentication material for this round."""


def grow_keys(final_key: KeyMaterial, auth_reserve_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a final key into (next-round pool bits, application bits).

    The reserve is the leading segment; the remainder feeds applications.
    Raises InsufficientKeyError when the key is shorter than the reserve,
    in which case the round sustains authentication but yields no
    application key.
    """
    if auth_reserve_len < 0:
        raise ValueError("auth_reserve_len must be non-negative")
    if final_key.stage is not KeyStage.FINAL:
        raise ValueError(f"key growing consumes final keys, got {final_key.stage.name}")
    if final_key.length < auth_reserve_len:
        raise InsufficientKeyError(
            f"final key of {final_key.length} bits cannot fund a {auth_reserve_len}-bit reserve"
        )
    bits = final_key.consume()
    return bits[:auth_reserve_len].copy(), bits[auth_reserve_len:].copy()


class AuthMode(enum.Enum):
    OTS = "ots"
    WEGMAN_CARTER = "wegman-carter"


@dataclass
class OtsContext:
    """Ordered batch of one-time keypairs plus the peer's public halves."""

    keypairs: list[OtsKeypair] = field(default_factory=list)
    peer_publics: list[list[tuple[bytes, bytes]]] = field(default_factory=list)
    next_index: int = 0

    def remaining(self) -> int:
        return len(self.keypairs) - self.next_index

    def take(self) -> tuple[int, OtsKeypair]:
        if self.next_index >= len(self.keypairs):
            raise CannotAuthenticateError("one-time signature keys exhausted")
        idx = self.next_index
        self.next_index += 1
        return idx, self.keypairs[idx]

    @classmethod
    def generate(
        cls,
        count: int,
        rng: np.random.Generator,
        security_bits: int = 128,
        digest_bits: int = 128,
        scheme: str = SCHEME_LAMPORT,
        window: int = 4,
    ) -> "OtsContext":
        return cls(
            keypairs=[
                ots_keygen(rng, security_bits, digest_bits, scheme, window) for _ in range(count)
            ]
        )


def bootstrap_round_auth(
    round_no: int, pool: AuthKeyPool, ots_context: OtsContext | None
) -> AuthMode:
    """Pick the authentication mode for a round.

    A funded pool always wins (pre-shared or grown from the previous
    round); an empty pool is acceptable only in round one, where one-time
    signatures bridge the gap until the first final key exists.
    """
    if round_no < 1:
        raise ValueError("round numbering starts at 1")
    if pool.available_bits > 0:
        return AuthMode.WEGMAN_CARTER
    if round_no == 1:
        if ots_context is not None and ots_context.remaining() > 0:
            return AuthMode.OTS
        raise CannotAuthenticateError("round 1 has neither a pre-shared pool nor signature keys")
    raise CannotAuthenticateError(
        f"round {round_no} has an empty pool; key growing failed to reserve material"
    )
