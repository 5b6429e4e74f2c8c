import hashlib

import numpy as np
import pytest

from qkdkit.auth import (
    AuthKeyPool,
    AuthMode,
    CannotAuthenticateError,
    InsufficientKeyError,
    KeyReuseError,
    OtsContext,
    OtsPublicKey,
    OtsSignature,
    PoolExhaustedError,
    REJECT_POOL_DESYNC,
    REJECT_TAG_MISMATCH,
    _GF_MODULI,
    _blocks,
    bootstrap_round_auth,
    export_ots_public,
    grow_keys,
    import_ots_public,
    ots_keygen,
    ots_sign,
    ots_verify,
    poly_compress,
    pool_cost_per_tag,
    wc_tag,
    wc_verify,
)
from qkdkit.bits import int_to_bits, random_bits
from qkdkit.keys import KeyMaterial, KeyStage
from oracles import gf_mul, poly_compress_reference


def mirrored_pools(n_bits: int, seed: int = 40) -> tuple[AuthKeyPool, AuthKeyPool]:
    bits = random_bits(n_bits, np.random.default_rng(seed))
    return AuthKeyPool(bits.copy()), AuthKeyPool(bits.copy())


def gf_pow(a: int, e: int, w: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = gf_mul(result, a, w)
        a = gf_mul(a, a, w)
        e >>= 1
    return result


def test_gf_moduli_define_fields():
    # Fermat: a^(2^w - 1) = 1 for every nonzero a in a field
    rng = np.random.default_rng(41)
    for w in _GF_MODULI:
        samples = {1, 2, 3, (1 << w) - 1}
        samples |= {int.from_bytes(rng.bytes(8), "big") % ((1 << w) - 1) + 1 for _ in range(20)}
        for a in samples:
            assert gf_pow(a, (1 << w) - 1, w) == 1, (w, a)


def test_poly_compress_separates_equal_length_single_blocks():
    # single-block messages of equal length differ deterministically
    for alpha in range(16):
        assert poly_compress(b"\xa0", alpha, 8) != poly_compress(b"\xa1", alpha, 8)


def test_blocks_match_a_bit_string_oracle():
    rng = np.random.default_rng(57)
    for _ in range(500):
        data = rng.bytes(int(rng.integers(0, 20)))
        n_bits = int(rng.integers(0, 8 * len(data) + 1))
        width = int(rng.integers(1, 65))
        bits = "".join(f"{byte:08b}" for byte in data)[:n_bits]
        bits += "0" * (-len(bits) % width)
        expected = [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]
        assert list(_blocks(data, n_bits, width)) == expected, (data, n_bits, width)


# poly_compress of default_rng(9).bytes(n) for n = 0, 1, 9, 1001, 75_000, keyed by
# alpha = 0x9E3779B97F4A7C15 mod 2^w
POLY_COMPRESS_GOLDEN = {
    4: [0, 8, 12, 9, 2],
    8: [0, 137, 208, 149, 11],
    16: [0, 49621, 17240, 47021, 21250],
    32: [0, 3679707455, 372640788, 171513267, 2903366465],
    64: [0, 15040841656495759556, 14625162192204276622, 17871303646176066603, 1551186593175145589],
}


@pytest.mark.parametrize("word_bits", sorted(POLY_COMPRESS_GOLDEN))
def test_poly_compress_golden(word_bits):
    messages = [np.random.default_rng(9).bytes(n) for n in (0, 1, 9, 1001, 75_000)]
    alpha = 0x9E3779B97F4A7C15 % (1 << word_bits)
    got = [poly_compress(m, alpha, word_bits) for m in messages]
    assert got == POLY_COMPRESS_GOLDEN[word_bits]


@pytest.mark.parametrize("word_bits", sorted(_GF_MODULI))
def test_poly_compress_matches_bit_serial_horner(word_bits):
    rng = np.random.default_rng(58)
    block = word_bits // 8  # bytes per block; w = 4 has half a byte
    lengths = sorted({0, 1, max(block - 1, 0), block, block + 1, 1001, 8192})
    alphas = [0, 1, (1 << word_bits) - 1]
    alphas += [int.from_bytes(rng.bytes(8), "big") % (1 << word_bits) for _ in range(3)]
    cases = [(rng.bytes(n), alpha) for n in lengths for alpha in alphas]
    cases.append((rng.bytes(75_000), alphas[-1]))
    for message, alpha in cases:
        want = poly_compress_reference(message, alpha, word_bits)
        assert poly_compress(message, alpha, word_bits) == want, (len(message), alpha)


def test_mac_roundtrip_and_lockstep():
    alice, bob = mirrored_pools(4096)
    for i in range(5):
        message = f"message number {i}".encode()
        tag = wc_tag(message, alice, tag_bits=32)
        result = wc_verify(message, tag, bob)
        assert result.accepted and result.reason is None


def test_mac_rejects_tampered_message():
    alice, bob = mirrored_pools(2048)
    tag = wc_tag(b"original payload", alice)
    result = wc_verify(b"original paylosd", tag, bob)
    assert not result.accepted and result.reason == REJECT_TAG_MISMATCH


def test_mac_rejects_desynchronized_pool():
    alice, bob = mirrored_pools(4096)
    tag1 = wc_tag(b"first", alice)
    tag2 = wc_tag(b"second", alice)
    result = wc_verify(b"second", tag2, bob)  # bob never verified tag1
    assert not result.accepted and result.reason == REJECT_POOL_DESYNC
    # bob's pool was not consumed by the rejected attempt
    assert wc_verify(b"first", tag1, bob).accepted


def test_pool_sized_for_one_tag_exhausts_on_second():
    cost = pool_cost_per_tag(16, 16)
    pool = AuthKeyPool(random_bits(cost, np.random.default_rng(42)))
    wc_tag(b"only one", pool, tag_bits=16, word_bits=16)
    with pytest.raises(PoolExhaustedError):
        wc_tag(b"one too many", pool, tag_bits=16, word_bits=16)


@pytest.mark.parametrize("tag_bits,word_bits", [(16, 12), (16, 0), (16, 128), (0, 64), (-8, 64)])
def test_rejected_tag_size_leaves_the_pool_untouched(tag_bits, word_bits):
    # a rejected call must not move the pool ahead of its mirror
    pool = AuthKeyPool(np.ones(1000, np.uint8))
    with pytest.raises(ValueError):
        wc_tag(b"x", pool, tag_bits=tag_bits, word_bits=word_bits)
    assert pool.available_bits == 1000 and pool.consumption_log == []


@pytest.mark.parametrize("word_bits", sorted(_GF_MODULI))
def test_mac_at_every_word_width(word_bits):
    # runs tag at t = w = 64; the smaller fields serve the exhaustive tests
    cost = pool_cost_per_tag(word_bits, word_bits)
    alice, bob = mirrored_pools(3 * cost, seed=word_bits)
    tag = wc_tag(b"announcement", alice, tag_bits=word_bits, word_bits=word_bits)
    assert alice.available_bits == 2 * cost and tag.seed_handle.length == cost
    assert wc_verify(b"announcement", tag, bob).accepted
    tampered = wc_tag(b"announcement", alice, tag_bits=word_bits, word_bits=word_bits)
    result = wc_verify(b"announcemenu", tampered, bob)
    assert not result.accepted and result.reason == REJECT_TAG_MISMATCH
    assert alice.available_bits == bob.available_bits == cost


def test_pool_one_time_discipline_is_auditable():
    alice, bob = mirrored_pools(8192)
    for i in range(6):
        tag = wc_tag(f"m{i}".encode(), alice, tag_bits=48)
        assert wc_verify(f"m{i}".encode(), tag, bob).accepted
    for pool in (alice, bob):
        spans = sorted((start, start + length) for start, length, _ in pool.consumption_log)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start, "pool segments overlap"


def test_forgery_acceptance_bound_exhaustive():
    """Enumerate the full seed space at t = w = 4.

    For each seed segment, exactly one forged-tag offset is accepted, so
    the per-offset acceptance fraction must be 2^-t (plus nothing: the
    flipped single-block message always changes the hash input word).
    """
    t = w = 4
    cost = pool_cost_per_tag(t, w)
    assert cost == 2 * w + 2 * t - 1 == 15
    message, forged = b"\x50", b"\x51"
    counts = {}
    total = 1 << cost
    for value in range(total):
        segment = int_to_bits(value, cost)
        pool = AuthKeyPool(segment)
        tag = wc_tag(message, pool, tag_bits=t, word_bits=w)
        pool_again = AuthKeyPool(segment)
        forged_tag = wc_tag(forged, pool_again, tag_bits=t, word_bits=w)
        # the unique delta the adversary could append and win with
        delta = tuple(np.bitwise_xor(tag.tag, forged_tag.tag).tolist())
        counts[delta] = counts.get(delta, 0) + 1
    worst = max(counts.values()) / total
    assert worst <= 2**-t + 1e-9


def test_ots_keypair_shape():
    kp = ots_keygen(np.random.default_rng(43), security_bits=64, digest_bits=48)
    # Lamport: two chains per digest bit
    assert len(kp.public.ends) == 96 and len(kp.secret) == 96
    assert all(len(end) == 8 for end in kp.public.ends)


def test_ots_sign_verify_roundtrip():
    kp = ots_keygen(np.random.default_rng(44), security_bits=64, digest_bits=64)
    sig = ots_sign(b"authenticated announcement", kp)
    assert ots_verify(b"authenticated announcement", sig, kp.public)


def test_ots_rejects_perturbed_messages():
    rng = np.random.default_rng(45)
    kp = ots_keygen(rng, security_bits=64, digest_bits=64)
    message = bytearray(b"base message for perturbation tests!")
    sig = ots_sign(bytes(message), kp)
    rejected = 0
    for _ in range(1000):
        corrupted = bytearray(message)
        pos = int(rng.integers(0, len(corrupted)))
        corrupted[pos] ^= 1 << int(rng.integers(0, 8))
        rejected += not ots_verify(bytes(corrupted), sig, kp.public)
    assert rejected == 1000


def test_ots_key_reuse_is_a_hard_error():
    kp = ots_keygen(np.random.default_rng(46), security_bits=32, digest_bits=32)
    ots_sign(b"first", kp)
    with pytest.raises(KeyReuseError):
        ots_sign(b"second", kp)


def test_ots_truncated_signature_rejected():
    kp = ots_keygen(np.random.default_rng(47), security_bits=32, digest_bits=32)
    sig = ots_sign(b"msg", kp)
    truncated = OtsSignature(revealed=sig.revealed[:-1])
    assert not ots_verify(b"msg", truncated, kp.public)
    shortened = OtsSignature(revealed=[r[:-1] for r in sig.revealed])
    assert not ots_verify(b"msg", shortened, kp.public)


def test_ots_public_key_wire_format_roundtrip():
    kp = ots_keygen(np.random.default_rng(48), security_bits=128, digest_bits=96)
    blob = export_ots_public(kp)
    assert blob[:4] == b"OTP1"
    assert len(blob) == 12 + 2 * 96 * 16
    public = import_ots_public(blob)
    assert public == kp.public and public.security_bits == 128 and public.digest_bits == 96
    assert export_ots_public(kp) == blob  # bit-exact


def ots_blob(security_bits: int, digest_bits: int, n_bytes: int, magic: bytes = b"OTP1") -> bytes:
    """A public-key blob with the given header and 2 * digest_bits ends of n_bytes."""
    header = security_bits.to_bytes(4, "big") + digest_bits.to_bytes(4, "big")
    return magic + header + bytes(2 * digest_bits * n_bytes)


MALFORMED_OTS_BLOBS = {
    "empty": b"",
    "magic-only": b"OTP1",
    "short-header": ots_blob(64, 16, 8)[:11],
    "unknown-magic": ots_blob(64, 16, 8, magic=b"XXXX"),
    # the retired Winternitz key format
    "winternitz-magic": ots_blob(64, 16, 8, magic=b"OTW1"),
    "security-zero": ots_blob(0, 16, 0),
    "security-not-whole-bytes": ots_blob(12, 16, 1),
    "security-too-large": ots_blob(264, 16, 33),
    "digest-zero": ots_blob(64, 0, 8),
    "digest-too-large": ots_blob(64, 257, 8),
    "one-byte-short": ots_blob(64, 16, 8)[:-1],
    "one-byte-over": ots_blob(64, 16, 8) + b"\0",
}


def test_ots_blob_builds_a_valid_key():
    # so each malformed case below differs from a valid key only where it names
    assert import_ots_public(ots_blob(64, 16, 8)).ends == (bytes(8),) * 32


@pytest.mark.parametrize("blob", MALFORMED_OTS_BLOBS.values(), ids=MALFORMED_OTS_BLOBS.keys())
def test_import_ots_public_rejects_malformed_blobs(blob):
    with pytest.raises(ValueError):
        import_ots_public(blob)


def test_public_key_must_match_its_parameters():
    kp = ots_keygen(np.random.default_rng(57), security_bits=64, digest_bits=48)
    ends = kp.public.ends
    assert OtsPublicKey(ends, 64, 48) == kp.public
    with pytest.raises(ValueError):
        OtsPublicKey(ends[:-1], 64, 48)
    with pytest.raises(ValueError):
        OtsPublicKey(ends, 64, 47)
    with pytest.raises(ValueError):
        OtsPublicKey(tuple(end[:-1] for end in ends), 64, 48)
    with pytest.raises(ValueError):
        OtsPublicKey((), 64, 0)


def test_ots_keygen_draws_the_bytes_of_one_call_per_chain():
    # the one bulk draw must leave secrets and generator state as one
    # rng.bytes call per chain would
    for n_bytes in range(1, 33):
        rng, reference = np.random.default_rng(n_bytes), np.random.default_rng(n_bytes)
        kp = ots_keygen(rng, security_bits=8 * n_bytes, digest_bits=16)
        assert kp.secret == [reference.bytes(n_bytes) for _ in range(32)]
        assert rng.bytes(7) == reference.bytes(7)


# SHA-256 of the exported public key and of the joined revealed values of
# ots_sign(b"golden", kp), for ots_keygen(default_rng(7), security_bits, digest_bits);
# (128, 128) is the size every run signs with
OTS_GOLDEN = {
    (8, 1): (
        "836c978c57475f1f6038983d8dd3f4dfc0cc31a86748968c804de6d38667b3c6",
        "9e8e8c37a53bac77a653d590b783b2508e8ed2fed040a278bf4f4703bbd5d82d",
    ),
    (32, 32): (
        "79c501e3d90e3c73c0c7f2a8ea04e2aee171f81fb0463f6a3f83dcbebf9d7be0",
        "ca9011729893b323cd2dbf1fe82aba09a0896c420ad6fd8763aa22b3b70a10b4",
    ),
    (64, 48): (
        "05f24f1147a930952fc9dd2ea80b101d868eb0c23dc4c759b00ca397256ec30c",
        "7bf7613aea9930ef46f9f5ff501cfa8d1265a74d733d4787db0ec595c6fe7b8c",
    ),
    (128, 96): (
        "3cad768702de85d6654378f6db326572571d0a34abd925af3dd2f756d8225103",
        "2871d3e4ae066eca203b168ff44065fef44013c86e343e79d645e74a4cb1d223",
    ),
    (128, 128): (
        "d513a26fe9a5d862c3918c4cbd14613347141b51acc0f5ea77abf2341bcaf55e",
        "1c65b21b6308befe6617411a0c74396c9eba021684b34a11db6aa7a2517f62a2",
    ),
    (256, 256): (
        "48999a5170f9e4625f08758333257fc3c173f5b4e44188b7c3f00d72269c2aa0",
        "68f938d9c3879c9e883a1eeed57280454f9dee3956a115c20eb8e2dceafcab87",
    ),
}


@pytest.mark.parametrize("security_bits,digest_bits", sorted(OTS_GOLDEN))
def test_ots_golden(security_bits, digest_bits):
    kp = ots_keygen(np.random.default_rng(7), security_bits=security_bits, digest_bits=digest_bits)
    blob = export_ots_public(kp)
    sig = ots_sign(b"golden", kp)
    want_public, want_signature = OTS_GOLDEN[security_bits, digest_bits]
    assert hashlib.sha256(blob).hexdigest() == want_public
    assert hashlib.sha256(b"".join(sig.revealed)).hexdigest() == want_signature
    assert ots_verify(b"golden", sig, import_ots_public(blob))


def test_grow_keys_split_arithmetic():
    rng = np.random.default_rng(49)
    final = KeyMaterial(random_bits(1000, rng), KeyStage.FINAL)
    reserve, application = grow_keys(final, 200)
    assert reserve.size == 200 and application.size == 800
    assert np.array_equal(np.concatenate([reserve, application]), final.bits)
    assert final.consumed


def test_grow_keys_boundary_and_insufficiency():
    rng = np.random.default_rng(50)
    exact = KeyMaterial(random_bits(64, rng), KeyStage.FINAL)
    reserve, application = grow_keys(exact, 64)
    assert reserve.size == 64 and application.size == 0
    short = KeyMaterial(random_bits(10, rng), KeyStage.FINAL)
    with pytest.raises(InsufficientKeyError):
        grow_keys(short, 64)
    assert not short.consumed  # a failed split does not spend the key


def test_bootstrap_mode_selection():
    rng = np.random.default_rng(51)
    empty_pool = AuthKeyPool()
    ctx = OtsContext.generate(2, rng, security_bits=32, digest_bits=32)
    assert bootstrap_round_auth(1, empty_pool, ctx) is AuthMode.OTS
    funded = AuthKeyPool(random_bits(512, rng))
    assert bootstrap_round_auth(2, funded, ctx) is AuthMode.WEGMAN_CARTER
    assert bootstrap_round_auth(1, funded, ctx) is AuthMode.WEGMAN_CARTER
    with pytest.raises(CannotAuthenticateError):
        bootstrap_round_auth(1, empty_pool, None)
    with pytest.raises(CannotAuthenticateError):
        bootstrap_round_auth(2, empty_pool, ctx)
