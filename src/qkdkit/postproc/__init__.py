"""Classical post-processing: sifting, estimation, reconciliation, distillation."""

from .sifting import (
    AnnouncementBundle,
    Decision,
    EstimationResult,
    PairedBits,
    announce_and_sift,
    estimate_eavesdropping,
)
from .reconcile import (
    DecodeFailureError,
    LdpcCode,
    LengthMismatchError,
    ReconcileParams,
    available_codes,
    correct_errors,
    load_code,
    make_parity_check,
)
from .distill import (
    ToeplitzSeed,
    amplify_privacy,
    binary_entropy,
    compute_final_length,
    toeplitz_apply,
    verify_keys,
)

__all__ = [
    "AnnouncementBundle",
    "Decision",
    "EstimationResult",
    "PairedBits",
    "announce_and_sift",
    "estimate_eavesdropping",
    "DecodeFailureError",
    "LdpcCode",
    "LengthMismatchError",
    "ReconcileParams",
    "available_codes",
    "correct_errors",
    "load_code",
    "make_parity_check",
    "ToeplitzSeed",
    "amplify_privacy",
    "binary_entropy",
    "compute_final_length",
    "toeplitz_apply",
    "verify_keys",
]
