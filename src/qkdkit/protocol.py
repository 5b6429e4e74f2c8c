"""Quantum-phase driver: basis selection, the bulk pulse exchange, transcripts.

Runs the prepare/transmit/measure exchange for a whole session at once and
returns one columnar transcript. All randomness is drawn in bulk from
per-party numpy generators seeded from a single master seed, so identical
seeds reproduce identical transcripts bit for bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np

from .bits import check_field, derive_seed
from .channel import Basis, ChannelParams, EveModel, IntensityClass, measure, propagate


class ProtocolError(Exception):
    """Raised when transcripts or configuration violate the protocol contract."""


@dataclass(frozen=True)
class SymmetricRandom:
    """Choose each basis independently with probability 1/2."""


@dataclass(frozen=True)
class AsymmetricRandom:
    """Choose the Z basis with probability p_z > the X basis otherwise."""

    p_z: float

    def __post_init__(self):
        check_field(self, "p_z", 0.0 < self.p_z < 1.0, "in (0, 1)")


@dataclass(frozen=True)
class PresharedSequence:
    """Derive bases pseudo-randomly from a pre-distributed shared secret.

    Both parties expand the same seed, so their basis sequences agree at
    every position and no sifting loss occurs from basis mismatch.
    """

    shared_seed: bytes

    def __post_init__(self):
        check_field(self, "shared_seed", len(self.shared_seed) > 0, "non-empty")


BasisStrategy = Union[SymmetricRandom, AsymmetricRandom, PresharedSequence]


def draw_bases(strategy: BasisStrategy, n: int, rng: np.random.Generator) -> np.ndarray:
    """Select the bases of positions 0..n-1 under the configured strategy."""
    if isinstance(strategy, SymmetricRandom):
        return rng.integers(0, 2, size=n, dtype=np.uint8)
    if isinstance(strategy, AsymmetricRandom):
        return (rng.random(n) >= strategy.p_z).astype(np.uint8)
    if isinstance(strategy, PresharedSequence):
        # Counter-mode SHA-256 expansion: block i supplies bits 256*i .. 256*i+255.
        seed = strategy.shared_seed
        stream = b"".join(
            hashlib.sha256(seed + block.to_bytes(8, "big")).digest()
            for block in range((n + 255) // 256)
        )
        return np.unpackbits(np.frombuffer(stream, dtype=np.uint8), count=n)
    raise TypeError(f"unknown basis strategy: {strategy!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Session-level knobs for the quantum phase.

    Bit values are always drawn with probability 1/2; decoy tagging is
    independent per pulse with probability `decoy_probability`.
    """

    n_pulses: int
    strategy: BasisStrategy = SymmetricRandom()
    decoy_probability: float = 0.1

    def __post_init__(self):
        check_field(self, "n_pulses", self.n_pulses >= 1, ">= 1")
        check_field(self, "decoy_probability", 0.0 <= self.decoy_probability < 1.0, "in [0, 1)")


@dataclass(frozen=True, eq=False)
class Transcript:
    """One quantum phase as aligned columns, one entry per pulse position.

    The sender holds `bit`, `basis` and `decoy`; the receiver holds
    `measured_basis` and `measured_bit`, which are 0 wherever `detected` is
    False. Both parties know `detected`, which the receiver announces. A
    column the holder of a one-party view does not hold is None.
    """

    detected: np.ndarray
    bit: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    decoy: Optional[np.ndarray] = None
    measured_basis: Optional[np.ndarray] = None
    measured_bit: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.detected.size
        for f in fields(self):
            column = getattr(self, f.name)
            if column is not None and column.shape != (n,):
                raise ProtocolError(
                    f"transcript column {f.name} has shape {column.shape}, expected ({n},)"
                )

    @property
    def n_pulses(self) -> int:
        return int(self.detected.size)

    def held_by(self, party: str) -> "Transcript":
        """The columns one party holds: 'alice' (sender) or 'bob' (receiver)."""
        if party == "alice":
            return replace(self, measured_basis=None, measured_bit=None)
        if party == "bob":
            return replace(self, bit=None, basis=None, decoy=None)
        raise ValueError(f"unknown party {party!r}")


@dataclass(frozen=True)
class SessionSeeds:
    """Independent seeds for each party's random source plus the channel."""

    alice: int
    bob: int
    channel: int

    @classmethod
    def from_master(cls, master: int) -> "SessionSeeds":
        return cls(
            alice=derive_seed(master, "alice"),
            bob=derive_seed(master, "bob"),
            channel=derive_seed(master, "channel"),
        )


def run_quantum_phase(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    eve: EveModel,
    seeds: SessionSeeds,
) -> Transcript:
    """Execute the full pulse exchange and return its transcript.

    The receiver draws a measurement basis for every position, detected or
    not; only detected positions keep a measured basis and bit.
    """
    n = cfg.n_pulses
    alice_rng = np.random.default_rng(seeds.alice)
    bob_rng = np.random.default_rng(seeds.bob)

    bit = alice_rng.integers(0, 2, size=n, dtype=np.uint8)
    basis = draw_bases(cfg.strategy, n, alice_rng)
    decoy = alice_rng.random(n) < cfg.decoy_probability

    detected, arrived_bit, arrived_basis, flip = propagate(
        bit, basis, decoy, ch, eve, np.random.default_rng(seeds.channel)
    )
    measured_basis = draw_bases(cfg.strategy, n, bob_rng)
    outcome = measure(arrived_bit, arrived_basis, measured_basis, bob_rng) ^ flip
    return Transcript(
        detected=detected,
        bit=bit,
        basis=basis,
        decoy=decoy,
        measured_basis=measured_basis * detected,
        measured_bit=outcome * detected,
    )


# Text names of each transcript field's column values, indexed by value.
_NAMES = {
    "basis": [b.name for b in Basis],
    "bit": ["0", "1"],
    "intensity": [c.name.lower() for c in IntensityClass],
}
_VALUES = {kind: {name: v for v, name in enumerate(names)} for kind, names in _NAMES.items()}


def dump_transcript(t: Transcript) -> str:
    """Render a transcript as audit text, one position per line.

    Line format: index,basis,bit,intensity,detected,measured_basis,measured_bit
    with empty fields for values the transcript does not hold; measured
    fields appear only at detected positions.
    """
    detected = t.detected.tolist()
    everywhere = [True] * len(detected)

    def text(column, kind, where) -> list[str]:
        if column is None:
            return [""] * len(where)
        names = _NAMES[kind]
        return [names[v] if w else "" for v, w in zip(column.tolist(), where)]

    columns = [
        text(t.basis, "basis", everywhere),
        text(t.bit, "bit", everywhere),
        text(t.decoy, "intensity", everywhere),
        ["1" if d else "0" for d in detected],
        text(t.measured_basis, "basis", detected),
        text(t.measured_bit, "bit", detected),
    ]
    return "".join(f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*columns)))


def parse_transcript(text: str) -> Transcript:
    """Read `dump_transcript` text back; a field empty on every line is not held."""
    rows, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != 7:
            raise ProtocolError(f"line {lineno}: expected 7 fields, got {len(row)}")
        if row[0] != str(len(rows)):
            raise ProtocolError(f"line {lineno}: expected index {len(rows)}, got {row[0]!r}")
        rows.append(row)
        linenos.append(lineno)
    _, basis, bit, intensity, detected, m_basis, m_bit = zip(*rows) if rows else [()] * 7
    detected_mask = np.array([d == "1" for d in detected], dtype=bool)
    everywhere = [True] * len(rows)

    def column(values, kind, where) -> Optional[np.ndarray]:
        if not any(values):
            return None
        out = np.zeros(len(values), dtype=np.uint8)
        for i, (value, needed) in enumerate(zip(values, where)):
            if bool(value) != needed:
                state = "missing" if needed else "unexpected"
                raise ProtocolError(f"line {linenos[i]}: {state} {kind} field")
            if value:
                if value not in _VALUES[kind]:
                    raise ProtocolError(f"line {linenos[i]}: bad {kind} {value!r}")
                out[i] = _VALUES[kind][value]
        return out

    decoy = column(intensity, "intensity", everywhere)
    measured_basis = column(m_basis, "basis", detected_mask.tolist())
    measured_bit = column(m_bit, "bit", detected_mask.tolist())
    if (measured_basis is None) != (measured_bit is None):
        raise ProtocolError("measured_basis and measured_bit must be held together")
    return Transcript(
        detected=detected_mask,
        bit=column(bit, "bit", everywhere),
        basis=column(basis, "basis", everywhere),
        decoy=None if decoy is None else decoy.astype(bool),
        measured_basis=measured_basis,
        measured_bit=measured_bit,
    )
