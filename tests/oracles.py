"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own fast paths: matrices
are materialized entry by entry, Toeplitz products are direct convolutions,
field products are bit-serial, belief propagation scatters its messages
with `np.add.at` over a row-major message array, error rates come from
exact branch enumeration, the quantum phase is simulated one pulse at a
time, and key exposure is re-derived by replaying stored material against
public transcripts.
"""
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from qkdkit.auth import _GF_MODULI, _blocks
from qkdkit.bits import as_bits
from qkdkit.channel import Basis, ChannelParams, EveKind, EveModel, IntensityClass
from qkdkit.network import NetworkState, NetworkTopology, NodeRole, Provenance
from qkdkit.postproc.reconcile import LdpcCode

ALL_STATES = [(bit, basis) for bit in (0, 1) for basis in (Basis.Z, Basis.X)]


@dataclass(frozen=True)
class Qubit:
    """One of the four conjugate-coding states, identified by (bit, basis)."""

    prepared_bit: int
    prepared_basis: Basis

    def __post_init__(self):
        if self.prepared_bit not in (0, 1):
            raise ValueError(f"prepared_bit must be 0 or 1, got {self.prepared_bit}")


@dataclass(frozen=True)
class Pulse:
    """A qubit tagged with the intensity class it was transmitted at."""

    qubit: Qubit
    intensity: IntensityClass


@dataclass(frozen=True)
class DetectionEvent:
    """A pulse that survived the channel; `flip` is a misalignment error."""

    qubit: Qubit
    flip: bool = False


def prepare_pulse(bit: int, basis: Basis, intensity: IntensityClass) -> Pulse:
    """Encode one bit in one basis, producing the unique matching state."""
    return Pulse(qubit=Qubit(prepared_bit=bit, prepared_basis=basis), intensity=intensity)


def measure(q: Qubit, basis: Basis, rng: random.Random) -> int:
    """Scalar measurement: the prepared bit in its basis, a fair coin otherwise."""
    if basis is q.prepared_basis:
        return q.prepared_bit
    return rng.getrandbits(1)


def transmit(
    pulse: Pulse, ch: ChannelParams, eve: EveModel, rng: random.Random
) -> Optional[DetectionEvent]:
    """Send one pulse through the channel; None means it was never detected.

    A detected pulse is attacked with probability `eve.fraction` by an
    intercept-resend eavesdropper, who measures in a uniformly random basis
    and re-prepares the state from her outcome.
    """
    scale = ch.decoy_detect_scale if pulse.intensity is IntensityClass.DECOY else 1.0
    p_detect = ch.transmittance * scale
    if p_detect <= 0.0 or rng.random() >= p_detect:
        return None
    qubit = pulse.qubit
    if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
        if rng.random() < eve.fraction:
            eve_basis = Basis.Z if rng.getrandbits(1) == 0 else Basis.X
            qubit = Qubit(prepared_bit=measure(qubit, eve_basis, rng), prepared_basis=eve_basis)
    flip = ch.misalignment_error > 0.0 and rng.random() < ch.misalignment_error
    return DetectionEvent(qubit=qubit, flip=flip)


def preshared_bit(seed: bytes, position: int) -> int:
    """Basis bit of one position under counter-mode SHA-256 expansion."""
    block, offset = divmod(position, 256)
    digest = hashlib.sha256(seed + block.to_bytes(8, "big")).digest()
    return (digest[offset // 8] >> (7 - offset % 8)) & 1


def intercept_resend_error_probability(fraction: Fraction = Fraction(1)) -> Fraction:
    """Exact matched-basis error rate when a `fraction` of pulses is
    intercepted, measured in a uniform basis and re-prepared.

    Enumerates Eve's basis choice against the preparation basis: a matched
    interception is invisible, a conjugate one randomizes the receiver's
    outcome, producing an error half the time.
    """
    per_state_error = Fraction(0)
    for eve_basis_matches in (True, False):
        p_branch = Fraction(1, 2)
        if eve_basis_matches:
            continue
        per_state_error += p_branch * Fraction(1, 2)
    return fraction * per_state_error


def toeplitz_matrix(seed_bits: np.ndarray, in_len: int, out_len: int) -> np.ndarray:
    """Materialize T[i, j] = seed[i - j + in_len - 1] entry by entry."""
    T = np.zeros((out_len, in_len), dtype=np.uint8)
    for i in range(out_len):
        for j in range(in_len):
            T[i, j] = seed_bits[i - j + in_len - 1]
    return T


def toeplitz_apply_direct(seed_bits: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    """Toeplitz product as the direct integer convolution, O(n * (n + m))."""
    in_len = x.size
    conv = np.convolve(seed_bits.astype(np.int64), x.astype(np.int64))
    return (conv[in_len - 1 : in_len - 1 + out_len] & 1).astype(np.uint8)


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


def poly_compress_reference(message: bytes, alpha: int, word_bits: int) -> int:
    """Bit-serial Horner over [bit_length, m_1, ..., m_L]."""
    acc = (8 * len(message)) % (1 << word_bits)
    for block in _blocks(message, 8 * len(message), word_bits):
        acc = gf_mul(acc, alpha, word_bits) ^ block
    return acc


def decode_syndrome_reference(
    code: LdpcCode,
    syndrome: np.ndarray,
    qber: float,
    max_iterations: int = 60,
    scale: float = 0.8,
) -> tuple[np.ndarray, bool]:
    """Estimate the error pattern with the given syndrome via min-sum BP.

    Returns (error_vector, converged). The all-zero syndrome short-circuits
    to the all-zero pattern, which keeps clean-channel sessions cheap.
    """
    s = as_bits(syndrome)
    if s.size != code.m:
        raise ValueError(f"syndrome length {s.size} != check count {code.m}")
    if not np.any(s):
        return np.zeros(code.n, dtype=np.uint8), True

    p = min(max(qber, 1e-3), 0.3)
    llr0 = math.log((1.0 - p) / p)
    rows = code.padded_rows
    pad = rows == code.n
    m, wmax = rows.shape
    row_idx = np.arange(m)
    col_grid = np.broadcast_to(np.arange(wmax), (m, wmax))
    syn_sign = (1.0 - 2.0 * s).astype(np.float64)

    edge_msgs = np.zeros((m, wmax), dtype=np.float64)
    # posterior LLR per variable (plus the padding slot); carried from the
    # end of one iteration to the start of the next
    totals = np.full(code.n + 1, llr0, dtype=np.float64)
    e_hat = np.zeros(code.n, dtype=np.uint8)
    for _ in range(max_iterations):
        var_msgs = totals[rows] - edge_msgs
        var_msgs[pad] = np.inf

        signs = np.where(var_msgs < 0.0, -1.0, 1.0)
        row_sign = signs.prod(axis=1) * syn_sign
        mags = np.abs(var_msgs)
        argmin1 = mags.argmin(axis=1)
        min1 = mags[row_idx, argmin1]
        mags[row_idx, argmin1] = np.inf
        min2 = mags.min(axis=1)
        extr_mag = np.where(col_grid == argmin1[:, None], min2[:, None], min1[:, None])
        edge_msgs = scale * row_sign[:, None] * signs * extr_mag
        edge_msgs[pad] = 0.0

        totals = np.full(code.n + 1, llr0, dtype=np.float64)
        np.add.at(totals, rows, edge_msgs)
        e_hat = (totals[: code.n] < 0.0).astype(np.uint8)
        if np.array_equal(code.syndrome(e_hat), s):
            return e_hat, True
    return e_hat, False

def replay_exposed(state: NetworkState, node: str) -> set[int]:
    """Reconstruct every key the node's material reaches, bit for bit."""
    material = {}
    for key_id, edge, bits in state.node_material.get(node, []):
        material[(key_id, edge)] = bits
    reconstructed: dict[int, np.ndarray] = {}
    for record in state.keystore.values():
        if record.provenance is Provenance.HYBRID:
            continue
        if node in (record.src, record.dst):
            reconstructed[record.key_id] = record.bits
        elif record.provenance is Provenance.QKD_RELAYED:
            for hop in record.hops:
                link_key = material.get((record.key_id, hop.link))
                if link_key is not None:
                    reconstructed[record.key_id] = np.bitwise_xor(hop.ciphertext, link_key)
                    break
        elif record.provenance is Provenance.PQC and state.pqc.adversary_knows:
            reconstructed[record.key_id] = state.pqc.derive(
                record.src, record.dst, record.bits.size, record.pqc_counter
            )
    for record in state.keystore.values():
        if record.provenance is not Provenance.HYBRID:
            continue
        if node in (record.src, record.dst):
            reconstructed[record.key_id] = record.bits
        elif all(c in reconstructed for c in record.components):
            parts = [reconstructed[c] for c in record.components]
            reconstructed[record.key_id] = np.bitwise_xor(parts[0], parts[1])
    for key_id, bits in reconstructed.items():
        assert np.array_equal(bits, state.keystore[key_id].bits), "oracle reconstruction failed"
    return set(reconstructed)


def random_topology(rng: np.random.Generator, max_nodes: int = 6) -> NetworkTopology:
    n = int(rng.integers(2, max_nodes + 1))
    topo = NetworkTopology()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        role = NodeRole.TRUSTED_RELAY if rng.random() < 0.5 else NodeRole.END_USER
        topo.add_node(name, role)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                topo.add_qkd_link(names[i], names[j], int(rng.integers(256, 4096)))
            if rng.random() < 0.35:
                topo.add_pqc_link(names[i], names[j])
    return topo
