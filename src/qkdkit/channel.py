"""Lossy channel, eavesdropper and measurement model, over whole pulse columns.

The quantum layer is modeled at the level of the four states used by the
two mutually unbiased bases: a pulse carries exactly one prepared bit in
one basis, measuring in the preparation basis reproduces the bit, and
measuring in the other basis yields a uniformly random outcome. Every
function here acts on numpy columns holding one entry per pulse, with
bases encoded as `Basis` integers (Z = 0, X = 1).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bits import check_field


class Basis(enum.IntEnum):
    """Column encoding of the two bases; transcripts print the name."""

    Z = 0
    X = 1


class IntensityClass(enum.IntEnum):
    """Column encoding of the decoy flag; transcripts print the lower-case name."""

    SIGNAL = 0
    DECOY = 1


class EveKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"


@dataclass(frozen=True)
class ChannelParams:
    """Loss and noise knobs of the quantum channel.

    transmittance: probability that a transmitted pulse is detected at all.
    misalignment_error: probability that a detection's matched-basis outcome
        is flipped.
    decoy_detect_scale: extra multiplier on transmittance for decoy pulses.
    """

    transmittance: float = 1.0
    misalignment_error: float = 0.0
    decoy_detect_scale: float = 1.0

    def __post_init__(self):
        for name in ("transmittance", "misalignment_error", "decoy_detect_scale"):
            check_field(self, name, 0.0 <= getattr(self, name) <= 1.0, "in [0, 1]")


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration; `fraction` is the portion of pulses attacked."""

    kind: EveKind = EveKind.NONE
    fraction: float = 0.0

    def __post_init__(self):
        check_field(self, "fraction", 0.0 <= self.fraction <= 1.0, "in [0, 1]")
        present = self.kind is not EveKind.NONE
        check_field(self, "fraction", present or self.fraction == 0.0, "0 when no eavesdropper is present")


def measure(
    bit: np.ndarray, basis: np.ndarray, meas_basis: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure each state (bit, basis) in `meas_basis`.

    In the preparation basis the outcome equals the prepared bit; in the
    conjugate basis it is a fresh uniform bit.
    """
    coins = rng.integers(0, 2, size=bit.size, dtype=np.uint8)
    return np.where(meas_basis == basis, bit, coins)


def propagate(
    bit: np.ndarray,
    basis: np.ndarray,
    decoy: np.ndarray,
    ch: ChannelParams,
    eve: EveModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Send pulses through the channel: (detected, bit, basis, flip) at the receiver.

    A pulse is detected with probability `transmittance`, scaled by
    `decoy_detect_scale` for decoy pulses. With an intercept-resend
    eavesdropper, a `fraction` of pulses is measured in a uniformly random
    basis and re-prepared from the outcome, so the returned states are the
    ones that arrive. `flip` marks the misalignment errors that the
    receiver's outcome suffers.
    """
    n = bit.size
    p_detect = np.where(decoy, ch.transmittance * ch.decoy_detect_scale, ch.transmittance)
    detected = rng.random(n) < p_detect
    if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
        attacked = rng.random(n) < eve.fraction
        eve_basis = rng.integers(0, 2, size=n, dtype=np.uint8)
        eve_bit = measure(bit, basis, eve_basis, rng)
        bit = np.where(attacked, eve_bit, bit)
        basis = np.where(attacked, eve_basis, basis)
    flip = rng.random(n) < ch.misalignment_error
    return detected, bit, basis, flip
