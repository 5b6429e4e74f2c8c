"""Authentication of the public channel and the key-growing lifecycle.

Every classical message is tagged individually. The workhorse is a
Wegman-Carter MAC fed from a pool of pre-shared (or quantum-grown) secret
bits: the message is first compressed to one word with a polynomial hash
over GF(2^w) keyed by a point alpha, the word is mapped to the tag length
by a Toeplitz matrix, and the result is one-time-padded with fresh pool
bits. The hash key (alpha and the Toeplitz seed, 2w + t - 1 bits) is drawn
once per round as a `MacKey`, which builds its multiplication tables and
its matrix once; each message then costs only its t-bit pad. At t = w = 64
a round of n messages spends 191 + 64n pool bits, which is what lets a
session's final key fund the next round's authentication.

A substituted message is accepted with probability at most
2^-t + L * 2^-w, L blocks being the longer of the two messages. Only the
pad has to be fresh for that bound to hold per message (Wegman and Carter,
JCSS 22(3), 1981): recycling the hash key over a round adds the messages'
bounds, so a round fails with probability at most their sum (Portmann,
IEEE TIT 60(7), 2014). A rejected message ends the session, so a recycled
key never authenticates anything after a failed verification.

The very first round, which has no shared secret yet, is authenticated
with hash-based Lamport one-time signatures over SHA-256; once a final key
exists, part of it refills the pool and the MAC takes over.
"""
from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .bits import as_bits, bits_to_int, int_to_bits
from .keys import KeyMaterial, KeyReuseError, KeyStage

# Verified-irreducible moduli for GF(2^w); value includes the x^w term.
_GF_MODULI = {
    4: (1 << 4) | 0b11,  # x^4 + x + 1
    8: (1 << 8) | 0x1B,  # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | 0x2B,  # x^16 + x^5 + x^3 + x + 1
    32: (1 << 32) | 0x8D,  # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | 0x1B,  # x^64 + x^4 + x^3 + x + 1
}


def _mul_tables(alpha: int, word_bits: int) -> list[tuple[int, list[int]]]:
    """(shift, table) per byte of a word: alpha * x is the xor over its bytes
    of table[(x >> shift) & 0xFF], since multiplying by alpha is GF(2)-linear.

    Entry b of the table at shift s is alpha * b * x^s, built by doubling
    from the products alpha * x^i; w = 4 has one 16-entry table.
    """
    modulus = _GF_MODULI[word_bits]
    top = 1 << word_bits
    power = alpha  # alpha * x^i for the next bit i
    tables = []
    for shift in range(0, word_bits, 8):
        table = [0]
        for _ in range(min(8, word_bits - shift)):
            table += [entry ^ power for entry in table]
            power <<= 1
            if power & top:
                power ^= modulus
        tables.append((shift, table))
    return tables


def _blocks(data: bytes, n_bits: int, width: int) -> Iterator[int]:
    """The first n_bits of data as big-endian width-bit integers.

    The last block is zero-padded. The data is read lcm(8, width) bits at a
    time, so no bit array of it is ever built.
    """
    step = math.lcm(8, width)
    n_bytes = step // 8
    mask = (1 << width) - 1
    shifts = range(step - width, -1, -width)
    full, tail = divmod(n_bits, step)
    for off in range(0, full * n_bytes, n_bytes):
        value = int.from_bytes(data[off : off + n_bytes], "big")
        for shift in shifts:
            yield (value >> shift) & mask
    if tail:
        # the tail bits, left-aligned in a zero-padded read
        raw = data[full * n_bytes : full * n_bytes + (tail + 7) // 8]
        value = (int.from_bytes(raw, "big") >> (8 * len(raw) - tail)) << (step - tail)
        for shift in shifts[: -(-tail // width)]:
            yield (value >> shift) & mask


def poly_compress(message: bytes, alpha: int, word_bits: int) -> int:
    """Polynomial hash of a byte string into one GF(2^w) word.

    Horner evaluation over the block sequence [bit_length, m_1, ..., m_L]
    (big-endian w-bit blocks, the last zero-padded). Two distinct
    equal-length messages collide with probability at most (L-1) * 2^-w
    over alpha; single-block messages never collide. Each multiplication
    by alpha is a few byte-table lookups (Shoup, CRYPTO 1996); that is the
    same field product as a bit-serial multiply, so hash and bound are
    unchanged.
    """
    if word_bits not in _GF_MODULI:
        raise ValueError(f"word_bits must be one of {sorted(_GF_MODULI)}")
    return _horner(message, _mul_tables(alpha, word_bits), word_bits)


def _horner(message: bytes, tables: list[tuple[int, list[int]]], word_bits: int) -> int:
    """poly_compress with alpha's tables already built."""
    acc = (8 * len(message)) % (1 << word_bits)
    for block in _blocks(message, 8 * len(message), word_bits):
        # acc <- alpha * acc ^ block
        for shift, table in tables:
            block ^= table[(acc >> shift) & 0xFF]
        acc = block
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


def mac_key_bits(tag_bits: int, word_bits: int) -> int:
    """Secret bits of one MAC hash key: alpha plus the Toeplitz seed."""
    return 2 * word_bits + tag_bits - 1


class MacKey:
    """A round's MAC hash key as one party holds it.

    It is alpha's multiplication tables and the t x w Toeplitz matrix, both
    built once from the pool segment [alpha | Toeplitz seed]. Every message
    of the round is hashed with them; only the pad is drawn per message.
    """

    def __init__(self, segment: np.ndarray, tag_bits: int, word_bits: int):
        self.tag_bits = tag_bits
        self.word_bits = word_bits
        self._tables = _mul_tables(bits_to_int(segment[:word_bits]), word_bits)
        # T[i, j] = seed[i - j + w - 1], as in postproc.distill.toeplitz_apply
        seed = segment[word_bits:]
        self._toeplitz = seed[np.arange(tag_bits)[:, None] - np.arange(word_bits) + word_bits - 1]

    @classmethod
    def draw(cls, pool: AuthKeyPool, tag_bits: int = 64, word_bits: int = 64) -> "MacKey":
        """Consume one hash key from the pool; sizes are checked first."""
        if tag_bits < 1:
            raise ValueError("tag_bits must be positive")
        if word_bits not in _GF_MODULI:
            raise ValueError(f"word_bits must be one of {sorted(_GF_MODULI)}")
        segment, _ = pool.consume(mac_key_bits(tag_bits, word_bits), "mac-key")
        return cls(segment, tag_bits, word_bits)

    def hash(self, message: bytes) -> np.ndarray:
        """The message's t hash bits, before the pad."""
        word = int_to_bits(_horner(message, self._tables, self.word_bits), self.word_bits)
        return (self._toeplitz @ word) & 1  # each sum is at most w, so uint8 holds it

    def _check_length(self, message: bytes) -> None:
        """Reject a message of 2^w bits or more: its length block would wrap,
        and at w = 4 b"" and b"\x00\x00" would get one tag under every key."""
        if 8 * len(message) >= 1 << self.word_bits:
            raise ValueError(f"a {self.word_bits}-bit MAC word takes messages under 2^{self.word_bits} bits")


@dataclass(frozen=True)
class MacTag:
    """A Wegman-Carter tag plus the pool segment of its pad."""

    tag: np.ndarray
    seed_handle: SegmentHandle


def wc_tag(message: bytes, pool: AuthKeyPool, key: MacKey) -> MacTag:
    """Authenticate a message with the round's hash key and a fresh pad.

    Raises ValueError for a message the key cannot hash and
    PoolExhaustedError when the reserve cannot fund the pad, which signals
    that key growing failed to set aside enough material; neither consumes
    anything.
    """
    key._check_length(message)
    pad, handle = pool.consume(key.tag_bits, "mac-pad")
    return MacTag(tag=key.hash(message) ^ pad, seed_handle=handle)


REJECT_POOL_DESYNC = "pool-desync"
REJECT_TAG_MISMATCH = "tag-mismatch"


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None


def wc_verify(message: bytes, tag: MacTag, pool: AuthKeyPool, key: MacKey) -> VerifyResult:
    """Recompute the tag from the round's key and the mirrored pad, and compare.

    The peer pool must be positioned at the pad the sender consumed; a
    mismatch is reported as pool desynchronization without consuming
    anything. A message the key cannot hash raises ValueError, as in wc_tag.
    """
    key._check_length(message)
    if pool.next_offset != tag.seed_handle.start or tag.seed_handle.length != key.tag_bits:
        return VerifyResult(accepted=False, reason=REJECT_POOL_DESYNC)
    pad, _ = pool.consume(key.tag_bits, "mac-verify")
    if np.array_equal(key.hash(message) ^ pad, tag.tag):
        return VerifyResult(accepted=True)
    return VerifyResult(accepted=False, reason=REJECT_TAG_MISMATCH)


# ---------------------------------------------------------------------------
# Lamport one-time signatures over SHA-256. A keypair has two secret values
# per digest bit, chain 2i for bit value 0 and chain 2i+1 for 1; the public
# key holds the SHA-256 image (the chain end) of each. A signature reveals
# the secret of the chain each digest bit selects, and the verifier hashes
# it once and compares it with that chain's end.

# accepted key sizes
OTS_SECURITY_BITS = range(8, 257, 8)
OTS_DIGEST_BITS = range(1, 257)


def _range_text(values: range) -> str:
    """The accepted values as error messages state them, e.g. 'in [1, 256]'."""
    step = f"a multiple of {values.step} " if values.step > 1 else ""
    return f"{step}in [{values.start}, {values[-1]}]"


def _ots_hash(data: bytes, out_bits: int) -> bytes:
    return hashlib.sha256(data).digest()[: (out_bits + 7) // 8]


@dataclass(frozen=True)
class OtsPublicKey:
    """Chain ends in chain order, with the sizes that fix how many chains
    there are and which ones a message selects. A verifier takes these from
    the key, never from the signature it checks."""

    ends: tuple[bytes, ...]
    security_bits: int
    digest_bits: int

    def __post_init__(self) -> None:
        if self.security_bits not in OTS_SECURITY_BITS:
            raise ValueError(f"security_bits must be {_range_text(OTS_SECURITY_BITS)}")
        if self.digest_bits not in OTS_DIGEST_BITS:
            raise ValueError(f"digest_bits must lie {_range_text(OTS_DIGEST_BITS)}")
        n_bytes = self.security_bits // 8
        if len(self.ends) != 2 * self.digest_bits or any(len(e) != n_bytes for e in self.ends):
            raise ValueError("chain ends do not match the key's parameters")

    def revealed_chains(self, message: bytes) -> list[int]:
        """The chain whose secret a signature reveals, per digest bit."""
        digest = hashlib.sha256(message).digest()
        return [2 * i + bit for i, bit in enumerate(_blocks(digest, self.digest_bits, 1))]


@dataclass
class OtsKeypair:
    """One one-time keypair, usable exactly once: chain starts (`secret`) in
    chain order and the public key."""

    secret: list[bytes]
    public: OtsPublicKey
    used: bool = False


@dataclass(frozen=True)
class OtsSignature:
    revealed: list[bytes]


def ots_keygen(rng: np.random.Generator, security_bits: int = 128, digest_bits: int = 128) -> OtsKeypair:
    """Generate a one-time keypair; the public half is exportable."""
    n_bytes = security_bits // 8
    # one draw of the words that 2 * digest_bits calls of rng.bytes(n_bytes) would take
    words = rng.integers(0, 2**32, size=(2 * digest_bits, -(-n_bytes // 4)), dtype=np.uint32)
    secret = [row.tobytes()[:n_bytes] for row in words.astype("<u4")]
    ends = tuple(_ots_hash(start, security_bits) for start in secret)
    return OtsKeypair(secret, OtsPublicKey(ends, security_bits, digest_bits))


def ots_sign(message: bytes, keypair: OtsKeypair) -> OtsSignature:
    """Reveal one chain start per digest bit; marks the key used."""
    if keypair.used:
        raise KeyReuseError("one-time signing key has already signed a message")
    keypair.used = True
    return OtsSignature([keypair.secret[c] for c in keypair.public.revealed_chains(message)])


def ots_verify(message: bytes, sig: OtsSignature, public: OtsPublicKey) -> bool:
    """Hash each revealed value once and compare it with its chain's end."""
    chains = public.revealed_chains(message)
    if len(sig.revealed) != len(chains):
        return False
    return all(
        len(value) == len(public.ends[c]) and _ots_hash(value, public.security_bits) == public.ends[c]
        for value, c in zip(sig.revealed, chains)
    )


_OTS_MAGIC = b"OTP1"
_OTS_HEADER_LEN = 12


def export_ots_public(keypair: OtsKeypair) -> bytes:
    """Serialize the public key: `OTP1`, lambda and L as uint32 BE, then the
    chain ends in chain order."""
    public = keypair.public
    fields = public.security_bits.to_bytes(4, "big") + public.digest_bits.to_bytes(4, "big")
    return _OTS_MAGIC + fields + b"".join(public.ends)


def import_ots_public(blob: bytes) -> OtsPublicKey:
    """Parse an exported public key, its parameters included."""
    if blob[:4] != _OTS_MAGIC or len(blob) < _OTS_HEADER_LEN:
        raise ValueError("not a recognized one-time-signature public key blob")
    security_bits = int.from_bytes(blob[4:8], "big")
    digest_bits = int.from_bytes(blob[8:12], "big")
    if not security_bits or security_bits % 8:
        raise ValueError("malformed public key blob header")
    if digest_bits not in OTS_DIGEST_BITS:
        raise ValueError(f"digest_bits must lie {_range_text(OTS_DIGEST_BITS)}")
    n_bytes = security_bits // 8
    expected = _OTS_HEADER_LEN + 2 * digest_bits * n_bytes
    if len(blob) != expected:
        raise ValueError(f"malformed public key blob: expected {expected} bytes, got {len(blob)}")
    ends = tuple(blob[off : off + n_bytes] for off in range(_OTS_HEADER_LEN, expected, n_bytes))
    return OtsPublicKey(ends, security_bits, digest_bits)


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
    peer_publics: list[OtsPublicKey] = field(default_factory=list)
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
        cls, count: int, rng: np.random.Generator, security_bits: int = 128, digest_bits: int = 128
    ) -> "OtsContext":
        return cls(keypairs=[ots_keygen(rng, security_bits, digest_bits) for _ in range(count)])


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
