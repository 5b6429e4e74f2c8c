import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import decode_syndrome_reference

from qkdkit.keys import KeyMaterial, KeyStage
from qkdkit.postproc.reconcile import (
    _RATE_CEILINGS,
    _posterior,
    DecodeFailureError,
    LengthMismatchError,
    ReconcileParams,
    available_codes,
    choose_code,
    code_name,
    correct_errors,
    decode_syndrome,
    load_code,
    parity_bisection,
    reconcile_codes,
)


def keypair(bits_a, bits_b):
    return (
        KeyMaterial(np.asarray(bits_a, dtype=np.uint8), KeyStage.SIFTED),
        KeyMaterial(np.asarray(bits_b, dtype=np.uint8), KeyStage.SIFTED),
    )


# SHA-256 over each code's row lengths, then its concatenated rows, both as
# little-endian int32: the matrices every earlier release decoded with.
LDPC_GOLDEN = {
    "r050_n256": "ec29ec17f1309149bc2d64f9e06dc64e0d6102cd724756153698a8d375c3b419",
    "r075_n256": "b7bdf4b848cc14c712a06a40e80d8dc5e5cc03e2573c0cb114013f188a085426",
    "r050_n1024": "be569cbbf52b1ef4f95e60f3bc89c5b5e1abc5cf540355ed5b3ce5c55b4c75bc",
    "r075_n1024": "21db3319b13e22728f9cf18489afaf5e05e4279b9ad7bf8c4ec0b7055788dd66",
    "r090_n1024": "c885afa27c2ea554d06007d63813d16516376f8c8223f31fe5a45fa944b19230",
    "r050_n4096": "9d62113a4a6a4ce92ae09b0c654a6c7bf9cbcc4496948c1f8511187ed7d423e6",
    "r065_n4096": "11d4a43e7b6245a6fa8ecaa4efd9cc565b5a15ede52f6c18b16f5edcbcbf3208",
    "r075_n4096": "2425da89d7f62e37b4d3415683294b76b29a21a228240cfb6d9203cefd85b89b",
    "r090_n4096": "8f4970263cd99ecb46e870449b25ceb18f5e3b35ede431e264f141c9151b1da6",
}


@pytest.mark.parametrize("name", sorted(available_codes()))
def test_code_golden(name):
    rows = load_code(name).rows
    digest = hashlib.sha256(np.array([len(r) for r in rows], dtype="<i4").tobytes())
    digest.update(np.concatenate(rows).astype("<i4").tobytes())
    assert digest.hexdigest() == LDPC_GOLDEN[name]


def test_shipped_codes_are_simple_and_column_regular():
    # the decoder's per-variable gather relies on equal column weights
    for name in sorted(available_codes()):
        code = load_code(name)
        col_weight = np.zeros(code.n, dtype=int)
        for row in code.rows:
            assert len(set(row.tolist())) == len(row), f"{name} has a duplicate edge"
            col_weight[row] += 1
        assert set(col_weight.tolist()) == {3}, f"{name} is not column-regular"
        # no two identical columns (no undetectable two-bit error patterns)
        signatures = set()
        membership = {j: [] for j in range(code.n)}
        for i, row in enumerate(code.rows):
            for j in row.tolist():
                membership[j].append(i)
        for j, checks in membership.items():
            signatures.add(tuple(checks))
        assert len(signatures) == code.n, f"{name} has duplicate columns"


def test_zero_error_keys_decode_immediately():
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2, 1024, dtype=np.uint8)
    ref, noisy = keypair(bits, bits.copy())
    corrected, leak = correct_errors(ref, noisy, ReconcileParams(est_qber=0.0))
    assert np.array_equal(corrected.bits, bits)
    code = load_code("r090_n1024")
    assert leak == code.m  # one block syndrome, nothing else


def test_single_flipped_bit_in_design_block():
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, 1024, dtype=np.uint8)
    noisy_bits = bits.copy()
    noisy_bits[400] ^= 1
    ref, noisy = keypair(bits, noisy_bits)
    params = ReconcileParams(est_qber=0.05)
    assert choose_code(params, 1024) == "r050_n1024"
    corrected, _ = correct_errors(ref, noisy, params)
    assert np.array_equal(corrected.bits, bits)  # oracle: direct bitwise comparison


def test_design_rate_blocks_reconcile_reliably():
    rng = np.random.default_rng(32)
    params = ReconcileParams(est_qber=0.05)
    assert choose_code(params, 4096) == "r050_n4096"
    successes = 0
    for _ in range(20):
        bits = rng.integers(0, 2, 4096, dtype=np.uint8)
        noisy_bits = bits ^ (rng.random(4096) < 0.05).astype(np.uint8)
        corrected, _ = correct_errors(*keypair(bits, noisy_bits), params)
        successes += np.array_equal(corrected.bits, bits)
    assert successes == 20


def test_r065_decodes_by_bp_at_its_ceiling():
    # criterion 4's check at the rate's QBER ceiling, which code choice
    # itself never reaches: min-sum alone returns every block's true error
    # pattern, so parity bisection would never run
    ceiling = next(c for name, c, _ in _RATE_CEILINGS if name == "r065")
    code = load_code("r065_n4096")
    rng = np.random.default_rng(39)
    for _ in range(100):
        errors = (rng.random(code.n) < ceiling).astype(np.uint8)
        e_hat, ok = decode_syndrome(code, code.syndrome(errors), ceiling)
        assert ok and np.array_equal(e_hat, errors)


# (params, key length) -> code, on both sides of every QBER ceiling and of
# every rate's smallest block size
@pytest.mark.parametrize("params, key_len, name", [
    (dict(est_qber=0.0), 1023, "r075_n256"),
    (dict(est_qber=0.0), 1024, "r090_n1024"),
    (dict(est_qber=0.0029), 4096, "r090_n4096"),
    (dict(est_qber=0.003), 4096, "r075_n4096"),
    (dict(est_qber=0.0149), 256, "r075_n256"),
    (dict(est_qber=0.015), 256, "r050_n256"),
    (dict(est_qber=0.015), 4095, "r050_n1024"),
    (dict(est_qber=0.015), 4096, "r065_n4096"),
    (dict(est_qber=0.0339), 20_000, "r065_n4096"),
    (dict(est_qber=0.034), 4095, "r050_n1024"),
    (dict(est_qber=0.034), 20_000, "r050_n4096"),
    (dict(est_qber=1.0), 4096, "r050_n4096"),
    # rate and size pairs that no estimate reaches fall to the next rate
    (dict(est_qber=0.03), 1024, "r050_n1024"),
    (dict(est_qber=0.0), 300, "r075_n256"),
    (dict(est_qber=0.03), 300, "r050_n256"),
])
def test_code_choice(params, key_len, name):
    assert choose_code(ReconcileParams(**params), key_len) == name


# Only a round with no error seen verifies first; any error estimate goes
# straight to its code.
@pytest.mark.parametrize("params, key_len, codes", [
    (dict(est_qber=0.0), 3306, ("none", "r090_n1024")),
    (dict(est_qber=0.0), 300, ("none", "r075_n256")),
    (dict(est_qber=0.0), 20_000, ("none", "r090_n4096")),
    (dict(est_qber=0.0), 0, ("none", "r075_n256")),
    (dict(est_qber=0.00005), 3306, ("r090_n1024",)),
    (dict(est_qber=0.03), 20_000, ("r065_n4096",)),
    (dict(est_qber=0.003), 3306, ("r075_n1024",)),
    (dict(est_qber=1.0), 0, ("r050_n256",)),
])
def test_reconcile_codes(params, key_len, codes):
    assert reconcile_codes(ReconcileParams(**params), key_len) == codes


def _ceiling(label: str) -> float:
    return next(c for name, c, _ in _RATE_CEILINGS if name == label)


# Every code that exists is the choice for a key of its own block length at
# an estimate just under its rate's ceiling.
@pytest.mark.parametrize("name", sorted(LDPC_GOLDEN))
def test_each_code_is_chosen_just_under_its_ceiling(name):
    label, n = name.split("_n")[0], int(name.split("_n")[1])
    params = ReconcileParams(est_qber=_ceiling(label) - 0.0001)
    assert choose_code(params, n) == name
    assert load_code(name).n == n


def test_code_choice_picks_exactly_the_available_codes():
    # estimates at 0 and on both sides of every ceiling, keys on both sides
    # of every block size
    estimates = {0.0} | {q for _, c, _ in _RATE_CEILINGS for q in (c - 0.0001, c)}
    key_lens = (0, 255, 256, 1023, 1024, 4095, 4096, 20_000)
    picked = {choose_code(ReconcileParams(est_qber=q), k) for q in estimates for k in key_lens}
    assert picked == set(available_codes())


# a rate below its smallest block size is never chosen, so it has no code
@pytest.mark.parametrize("name", ["r090_n256", "r065_n256", "r065_n1024"])
def test_codes_below_a_rates_smallest_block_do_not_exist(name):
    with pytest.raises(ValueError, match="unknown code"):
        load_code(name)


def test_reconcile_params_hold_only_the_estimate():
    assert [f.name for f in dataclasses.fields(ReconcileParams)] == ["est_qber"]
    with pytest.raises(TypeError):
        ReconcileParams(est_qber=0.05, block_len=4096)
    with pytest.raises(ValueError):
        ReconcileParams(est_qber=1.5)


def test_padding_and_multiple_chunks():
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 2, 1700, dtype=np.uint8)
    noisy_bits = bits ^ (rng.random(1700) < 0.02).astype(np.uint8)
    corrected, leak = correct_errors(
        *keypair(bits, noisy_bits), ReconcileParams(est_qber=0.02)
    )
    assert np.array_equal(corrected.bits, bits)
    assert leak >= 2 * load_code("r075_n1024").m  # two chunks


def test_length_mismatch_raises():
    ref, _ = keypair([0, 1], [0, 1])
    _, noisy = keypair([0, 1, 1], [0, 1, 1])
    with pytest.raises(LengthMismatchError):
        correct_errors(ref, noisy, ReconcileParams(est_qber=0.01))


def test_empty_keys_are_legal():
    ref, noisy = keypair([], [])
    corrected, leak = correct_errors(ref, noisy, ReconcileParams(est_qber=0.0))
    assert corrected.length == 0 and leak == 0


def test_decoder_declares_failure_honestly():
    # an adversarial syndrome from a 30% error pattern defeats min-sum on
    # the rate-0.5 code; the decoder must report non-convergence
    rng = np.random.default_rng(34)
    code = load_code("r050_n256")
    errors = (rng.random(256) < 0.3).astype(np.uint8)
    _, converged = decode_syndrome(code, code.syndrome(errors), 0.3, max_iterations=30)
    assert not converged


# SHA-256 over (packed e_hat, converged) of 14 seeded decodes per code, and
# how many of them converged: QBER 0.3%-20%, 5 and 60 iterations each.
DECODE_GOLDEN = {
    "r050_n256": ("ba65efcce24596e3eacfc32af6f38088606fe21831d520bdf1685b65ffc4eaed", 8),
    "r075_n256": ("a1e5140bd246b34832086d27a3bf1a6e351990423e6d5722336ba51f419a8ee2", 5),
    "r050_n1024": ("11d17d83f58ac2eb290816373b8783a4f676c39354520293f6af909b56e63884", 7),
    "r075_n1024": ("742b245476d33227f8fda6b52910d7ce77ef5907c39179e288df129e701c5fbf", 4),
    "r090_n1024": ("d8afaf3a8d08603d5c330f454cf0a468d13b3380578c30db38d9ee152e27385c", 2),
    "r050_n4096": ("809b0102d8b050093f47dc3fcd5ef33214582f70d5eb632544494dea362af398", 7),
    "r065_n4096": ("64a5731d7844c86d7224320381b74ea0284534746b4c1853f72e63c0dbf70780", 5),
}


@pytest.mark.parametrize("name", sorted(DECODE_GOLDEN))
def test_decode_syndrome_golden(name):
    # pins the decoder's floats: an unconverged e_hat is the sign of the
    # last posterior, so any change in the message arithmetic shows here
    code = load_code(name)
    rng = np.random.default_rng(int.from_bytes(name.encode(), "big") % 2**32)
    digest, converged = hashlib.sha256(), 0
    for qber in (0.003, 0.01, 0.03, 0.06, 0.1, 0.2):
        for iterations in (5, 60):
            errors = (rng.random(code.n) < qber).astype(np.uint8)
            e_hat, ok = decode_syndrome(code, code.syndrome(errors), qber, iterations)
            digest.update(np.packbits(e_hat).tobytes() + bytes([ok]))
            converged += ok
    assert (digest.hexdigest(), converged) == DECODE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(available_codes()))
def test_decode_syndrome_matches_reference(name):
    # same e_hat and converged flag as the add.at decoder, from the first
    # iteration's posterior to a full run, on converging and failing cases
    code = load_code(name)
    rng = np.random.default_rng(int.from_bytes(name.encode(), "big") % 2**31)
    for qber in (0.003, 0.01, 0.03, 0.06, 0.1, 0.2, 0.3):
        errors = (rng.random(code.n) < qber).astype(np.uint8)
        syndrome = code.syndrome(errors)
        for iterations in (1, 5, 60):
            e_hat, ok = decode_syndrome(code, syndrome, qber, iterations)
            ref_hat, ref_ok = decode_syndrome_reference(code, syndrome, qber, iterations)
            assert ok == ref_ok and np.array_equal(e_hat, ref_hat), (qber, iterations)

@pytest.mark.parametrize("name", sorted(available_codes()))
def test_posterior_adds_in_add_at_order(name):
    # the decoder's one order-dependent sum: random messages make any other
    # order differ in the last bits, which a hard decision rarely shows
    code = load_code(name)
    rng = np.random.default_rng(40)
    msgs = rng.normal(0.0, 10.0, code.padded_rows.shape)
    msgs[code.padded_rows == code.n] = 0.0
    totals = np.full(code.n + 1, 0.85)
    np.add.at(totals, code.padded_rows, msgs)
    flat = msgs.T.ravel()
    assert np.array_equal(_posterior(flat, code.var_edges, 0.85), totals[: code.n])

def test_fallback_rescues_decoder_failures():
    rng = np.random.default_rng(35)
    params = ReconcileParams(est_qber=0.09)
    assert choose_code(params, 1024) == "r050_n1024"
    rescued = 0
    for _ in range(10):
        bits = rng.integers(0, 2, 1024, dtype=np.uint8)
        noisy_bits = bits ^ (rng.random(1024) < 0.09).astype(np.uint8)
        corrected, _ = correct_errors(*keypair(bits, noisy_bits), params)
        rescued += np.array_equal(corrected.bits, bits)
    assert rescued == 10


def test_bisection_is_deterministic():
    rng = np.random.default_rng(36)
    a = rng.integers(0, 2, 500, dtype=np.uint8)
    b = a ^ (rng.random(500) < 0.05).astype(np.uint8)

    def done(candidate):
        return bool(np.array_equal(candidate, a))

    first = parity_bisection(a, b, 0.05, 12, done)
    second = parity_bisection(a, b, 0.05, 12, done)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1] and first[2] and second[2]


def test_bisection_gives_up_within_pass_budget():
    rng = np.random.default_rng(37)
    a = rng.integers(0, 2, 400, dtype=np.uint8)
    b = a ^ (rng.random(400) < 0.45).astype(np.uint8)
    _, _, ok = parity_bisection(a, b, 0.45, 1, lambda c: bool(np.array_equal(c, a)))
    assert not ok


def test_forced_decode_failure_raises():
    rng = np.random.default_rng(38)
    bits = rng.integers(0, 2, 1024, dtype=np.uint8)
    noisy_bits = bits ^ (rng.random(1024) < 0.35).astype(np.uint8)
    params = ReconcileParams(est_qber=0.35)
    assert choose_code(params, 1024) == "r050_n1024"
    with pytest.raises(DecodeFailureError):
        correct_errors(*keypair(bits, noisy_bits), params)


def test_code_registry_contents():
    names = available_codes()
    assert set(names) == {
        "r050_n256", "r050_n1024", "r050_n4096", "r075_n256", "r075_n1024", "r075_n4096",
        "r090_n1024", "r090_n4096", "r065_n4096",
    }
    assert code_name("r050", 4096) in names
    assert names["r050_n4096"] == (4096, 2048)
    assert names["r090_n1024"] == (1024, 102)
    assert names["r065_n4096"] == (4096, 1434) and "r065_n1024" not in names
    with pytest.raises(ValueError):
        load_code("r999_n17")
