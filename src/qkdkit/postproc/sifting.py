"""Announcements, key sifting and eavesdropping-level estimation.

Sifting keeps only positions that were detected, carried signal intensity
and were prepared and measured in the Z basis (keys are formed from Z-basis
bits only). Positions where both parties used X are disclosed in full and
feed the error-rate estimate that decides whether the session proceeds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..channel import Basis
from ..keys import KeyMaterial, KeyStage
from ..protocol import ProtocolError, Transcript


@dataclass
class LeakageLedger:
    """Running count of key-relevant bits disclosed over the public channel.

    Counters only grow; `total` feeds the final-length computation together
    with the configured security margin.
    """

    sifting_disclosed: int = 0
    syndrome_bits: int = 0
    verification_bits: int = 0

    def add_sifting(self, n: int) -> None:
        self._add("sifting_disclosed", n)

    def add_syndrome(self, n: int) -> None:
        self._add("syndrome_bits", n)

    def add_verification(self, n: int) -> None:
        self._add("verification_bits", n)

    def _add(self, name: str, n: int) -> None:
        if n < 0:
            raise ValueError("leakage increments must be non-negative")
        setattr(self, name, getattr(self, name) + n)


@dataclass(frozen=True)
class PairedBits:
    """Disclosed bit pairs (sender, receiver) at the same positions."""

    indices: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    @property
    def size(self) -> int:
        return int(self.alice.size)

    def mismatches(self) -> int:
        return int(np.count_nonzero(self.alice != self.bob))


@dataclass(frozen=True)
class AnnouncementBundle:
    """What sifting derived from the announcements, kept for audit.

    `detected_indices` lists the positions the receiver announced as
    detected; `x_basis_bits` holds the disclosed bit pairs at detected signal
    positions where both parties used the X basis.
    """

    detected_indices: np.ndarray
    x_basis_bits: PairedBits


def announce_and_sift(
    t: Transcript,
) -> tuple[KeyMaterial, KeyMaterial, PairedBits, AnnouncementBundle, LeakageLedger]:
    """Exchange announcements and sift the transcript.

    Returns (sifted_A, sifted_B, x_sample, bundle, ledger). Sifted keys
    contain exactly the detected, signal-intensity, both-Z positions in
    index order; an empty result is legal and must be handled downstream.
    """
    if t.bit is None or t.basis is None or t.decoy is None:
        raise ProtocolError("transcript is missing the sender's prepared columns")
    if t.measured_bit is None or t.measured_basis is None:
        raise ProtocolError("transcript is missing the receiver's measured columns")

    signal = t.detected & ~t.decoy
    matched = signal & (t.basis == t.measured_basis)
    keep = matched & (t.basis == Basis.Z)
    x_idx = np.flatnonzero(matched & (t.basis == Basis.X))
    x_sample = PairedBits(indices=x_idx, alice=t.bit[x_idx], bob=t.measured_bit[x_idx])
    bundle = AnnouncementBundle(detected_indices=np.flatnonzero(t.detected), x_basis_bits=x_sample)
    ledger = LeakageLedger()
    # Both parties publish their bits at matched-X signal positions.
    ledger.add_sifting(2 * x_sample.size)

    sifted_a = KeyMaterial(t.bit[keep], stage=KeyStage.SIFTED)
    sifted_b = KeyMaterial(t.measured_bit[keep], stage=KeyStage.SIFTED)
    return sifted_a, sifted_b, x_sample, bundle, ledger


class Decision(enum.Enum):
    PROCEED = "proceed"
    ABORT = "abort"


REASON_EMPTY_SAMPLE = "empty-sample"
REASON_THRESHOLD = "error-rate-above-threshold"
THRESHOLD_RANGE = (0.0, 0.5)  # open: at 0.5 the X bits are uncorrelated


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of the eavesdropping-level estimate over the disclosed X sample."""

    e_x: Optional[float]
    decision: Decision
    reason: Optional[str] = None


def estimate_eavesdropping(x_sample: PairedBits, threshold: float) -> EstimationResult:
    """Estimate the X-basis error fraction and decide whether to proceed.

    The protocol aborts when the observed fraction exceeds the threshold,
    or (with a distinct reason) when no sample is available at all.
    """
    lo, hi = THRESHOLD_RANGE
    if not lo < threshold < hi:
        raise ValueError(f"threshold must lie in ({lo:g}, {hi:g}), got {threshold}")
    if x_sample.size == 0:
        return EstimationResult(e_x=None, decision=Decision.ABORT, reason=REASON_EMPTY_SAMPLE)
    e_x = x_sample.mismatches() / x_sample.size
    if e_x > threshold:
        return EstimationResult(e_x=e_x, decision=Decision.ABORT, reason=REASON_THRESHOLD)
    return EstimationResult(e_x=e_x, decision=Decision.PROCEED)
