"""Key material with lifecycle stages and one-time-use tracking."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bits import as_bits


class KeyStage(enum.IntEnum):
    RAW = 0
    SIFTED = 1
    VERIFIED = 2
    FINAL = 3


class KeyReuseError(Exception):
    """A one-time key was offered for a second use."""


@dataclass
class KeyMaterial:
    """A length-tagged bit string moving forward through the key lifecycle.

    Stage transitions only advance (raw -> sifted -> verified -> final);
    `consumed` marks keys that have been spent by a one-time consumer.
    """

    bits: np.ndarray
    stage: KeyStage = KeyStage.RAW
    consumed: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.bits = as_bits(self.bits)
        self.bits.flags.writeable = False

    @property
    def length(self) -> int:
        return int(self.bits.size)

    def advanced(self, stage: KeyStage) -> "KeyMaterial":
        """Return the same bits promoted to a later lifecycle stage."""
        if stage <= self.stage:
            raise ValueError(f"stage may only move forward ({self.stage.name} -> {stage.name})")
        return KeyMaterial(bits=self.bits.copy(), stage=stage)

    def with_bits(self, bits: np.ndarray) -> "KeyMaterial":
        """Return new material at the same stage with replaced bits."""
        return KeyMaterial(bits=bits, stage=self.stage)

    def consume(self) -> np.ndarray:
        """Spend the key: returns its bits once, errors on any later attempt."""
        if self.consumed:
            raise KeyReuseError("key material has already been consumed")
        self.consumed = True
        return self.bits
