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
    _chain,
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
    with pytest.raises(ValueError):
        import_ots_public(blob[:-1])
    with pytest.raises(ValueError):
        import_ots_public(b"XXXX" + blob[4:])


def test_winternitz_roundtrip_and_reuse():
    rng = np.random.default_rng(52)
    kp = ots_keygen(rng, security_bits=64, digest_bits=64, scheme="winternitz", window=4)
    # 16 digest chunks + 2 checksum chunks at window 4 (max checksum 240 < 2^8)
    assert len(kp.public.ends) == 18
    sig = ots_sign(b"chained announcement", kp)
    assert ots_verify(b"chained announcement", sig, kp.public)
    assert not ots_verify(b"chained announcemenu", sig, kp.public)
    with pytest.raises(KeyReuseError):
        ots_sign(b"again", kp)


def test_winternitz_rejects_perturbed_messages():
    rng = np.random.default_rng(53)
    kp = ots_keygen(rng, security_bits=64, digest_bits=64, scheme="winternitz", window=4)
    message = bytearray(b"checksum chains stop chunk inflation")
    sig = ots_sign(bytes(message), kp)
    rejected = 0
    for _ in range(300):
        tampered = bytearray(message)
        pos = int(rng.integers(0, len(tampered)))
        tampered[pos] ^= 1 << int(rng.integers(0, 8))
        rejected += not ots_verify(bytes(tampered), sig, kp.public)
    assert rejected == 300


def test_winternitz_wire_format_roundtrip():
    rng = np.random.default_rng(54)
    kp = ots_keygen(rng, security_bits=64, digest_bits=48, scheme="winternitz", window=4)
    blob = export_ots_public(kp)
    assert blob[:4] == b"OTW1"
    public = import_ots_public(blob)
    assert public == kp.public and public.security_bits == 64 and public.digest_bits == 48
    with pytest.raises(ValueError):
        import_ots_public(blob[:-1])


def test_signature_cannot_pick_the_chain_shape():
    # A Winternitz key at window 4 over a 64-bit digest has 18 chains, as many
    # as a Lamport key over a 9-bit digest. Hashing each revealed Winternitz
    # value forward to one step before its chain's end gives a valid Lamport
    # signature for any message whose 9 selected chains all had chunk < 15.
    rng = np.random.default_rng(56)
    kp = ots_keygen(rng, security_bits=64, digest_bits=64, scheme="winternitz", window=4)
    sig = ots_sign(b"signed once", kp)
    chunks = [steps for _, steps in kp.public.revealed_points(b"signed once")]
    as_lamport = OtsPublicKey(kp.public.ends, security_bits=64, digest_bits=9)
    forged = 0
    for n in range(40):
        message = b"forged %d" % n
        points = as_lamport.revealed_points(message)
        if any(chunks[c] == 15 for c, _ in points):
            continue
        revealed = [_chain(sig.revealed[c], 14 - chunks[c], 64) for c, _ in points]
        forgery = OtsSignature(revealed)
        # the forgery is genuine under the Lamport shape ...
        assert ots_verify(message, forgery, as_lamport)
        # ... and rejected under the key's own parameters, as sent on the wire
        assert not ots_verify(message, forgery, kp.public)
        assert not ots_verify(message, forgery, import_ots_public(export_ots_public(kp)))
        forged += 1
    assert forged >= 10


def test_public_key_must_match_its_parameters():
    kp = ots_keygen(np.random.default_rng(57), security_bits=64, digest_bits=48, scheme="winternitz", window=4)
    ends = kp.public.ends
    with pytest.raises(ValueError):
        OtsPublicKey(ends[:-1], 64, 48, "winternitz", 4)
    with pytest.raises(ValueError):
        OtsPublicKey(ends, 64, 48, "lamport", 4)
    with pytest.raises(ValueError):
        OtsPublicKey(tuple(end[:-1] for end in ends), 64, 48, "winternitz", 4)
    with pytest.raises(ValueError):
        OtsPublicKey((), 64, 0)
    assert ots_keygen(np.random.default_rng(57), 64, 48, "lamport", 4).public.window == 0


def test_ots_keygen_draws_the_bytes_of_one_call_per_chain():
    # the one bulk draw must leave secrets and generator state as one
    # rng.bytes call per chain would
    for n_bytes in range(1, 33):
        rng, reference = np.random.default_rng(n_bytes), np.random.default_rng(n_bytes)
        kp = ots_keygen(rng, security_bits=8 * n_bytes, digest_bits=16)
        assert kp.secret == [reference.bytes(n_bytes) for _ in range(32)]
        assert rng.bytes(7) == reference.bytes(7)


# SHA-256 of the exported public key and of the joined revealed values of
# ots_sign(b"golden", kp), for ots_keygen(default_rng(7), 64, 48, scheme, window)
OTS_GOLDEN = {
    ("lamport", 4): (
        "05f24f1147a930952fc9dd2ea80b101d868eb0c23dc4c759b00ca397256ec30c",
        "7bf7613aea9930ef46f9f5ff501cfa8d1265a74d733d4787db0ec595c6fe7b8c",
    ),
    ("winternitz", 1): (
        "8a6183595e35daefc3c223d6b773bb9e442c85f39ecd1112a3be2a4a1997a01a",
        "2dc3d9cba67411f1023f0af70322358516b0c628f14b4b9524b38c21b2551efa",
    ),
    ("winternitz", 3): (
        "5e543fa1c1298724c252bc57392bc4546d9f22f51d4d8782f0317ac38b7bb1d0",
        "2fbd0a9cbe4caf0bb58c61d13340702abc11be29e3b80c4f9f2a99951a95bf90",
    ),
    ("winternitz", 4): (
        "a30a1b2a0591442a3cfcf08a18422ef7e13247d0686dbc7bd0a49d153e214aa3",
        "a2289bb2464c2073040404f7eeb8d2d4f9e690c7dba452b945b5630909ac0a20",
    ),
    # 48 is not a multiple of 5: the last digest chunk is zero-padded
    ("winternitz", 5): (
        "f677ee4035eb119b4112361351961ccf1338facd59d0b60aa01bf16a819de9a8",
        "050ae1932e2edc850d3bb2c9d5775ec0a9943acc483c268b0fa839e1418a7e8f",
    ),
    ("winternitz", 8): (
        "6344b32a470c24b072f887201c36bf14f8d1fd215642fb63a215bbe8fe426929",
        "b4a09adda867fcaf2b545eb3fa982338997f43d7812ac6618fe8269242bbdef9",
    ),
}


@pytest.mark.parametrize("scheme,window", sorted(OTS_GOLDEN))
def test_ots_golden(scheme, window):
    kp = ots_keygen(np.random.default_rng(7), security_bits=64, digest_bits=48, scheme=scheme, window=window)
    blob = export_ots_public(kp)
    sig = ots_sign(b"golden", kp)
    want_public, want_signature = OTS_GOLDEN[scheme, window]
    assert hashlib.sha256(blob).hexdigest() == want_public
    assert hashlib.sha256(b"".join(sig.revealed)).hexdigest() == want_signature
    assert ots_verify(b"golden", sig, import_ots_public(blob))


def test_winternitz_sessions_bootstrap_like_lamport():
    from qkdkit.scenario import run_session, scenario_from_dict

    cfg = {
        "name": "wots",
        "master_seed": 55,
        "rounds": 2,
        "protocol": {"n_pulses": 16384, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
        "channel": {"transmittance": 0.9},
        "auth": {"mode": "ots_bootstrap", "reserve_bits": 2048, "ots_scheme": "winternitz"},
    }
    result = run_session(scenario_from_dict(cfg))
    assert result.status == "ok"
    assert result.rounds[0].auth_mode == "ots"
    assert result.rounds[1].auth_mode == "wegman-carter"


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
