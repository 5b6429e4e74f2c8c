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
    detected.
    """

    detected_indices: np.ndarray


def announce_and_sift(
    t: Transcript,
) -> tuple[KeyMaterial, KeyMaterial, PairedBits, AnnouncementBundle, int]:
    """Exchange announcements and sift the transcript.

    Returns (sifted_A, sifted_B, x_sample, bundle, disclosed). Sifted keys
    contain exactly the detected, signal-intensity, both-Z positions in
    index order; an empty result is legal and must be handled downstream.
    `x_sample` holds the bit pairs at detected signal positions where both
    parties used the X basis; both parties publish theirs, so `disclosed`
    is 2 * x_sample.size.
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
    bundle = AnnouncementBundle(detected_indices=np.flatnonzero(t.detected))

    sifted_a = KeyMaterial(t.bit[keep], stage=KeyStage.SIFTED)
    sifted_b = KeyMaterial(t.measured_bit[keep], stage=KeyStage.SIFTED)
    return sifted_a, sifted_b, x_sample, bundle, 2 * x_sample.size


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
