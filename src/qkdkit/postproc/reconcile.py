"""Error correction: LDPC syndrome decoding with a parity-bisection fallback.

The sender's sifted key is the reference. She discloses the syndrome of
each fixed-size block under a fixed parity-check matrix; the receiver
runs normalized min-sum belief propagation on the syndrome difference to
locate his errors. Blocks the decoder cannot fix fall back to a
deterministic interactive parity-bisection exchange before the session
gives up. `correct_errors` returns the count of every bit it disclosed
(syndromes and parities), which the final-length computation charges.

Each round chooses its own code (`choose_code`): the block size follows
the key length, and the rate follows the estimated QBER: 0.9, 0.75, 0.65
or 0.5, each below a ceiling and from a smallest block size
(`_RATE_CEILINGS`, which also lists every code that exists), so a block
discloses little more than its errors need. When the estimate sees no
error at all, a round first verifies the keys with no syndrome
(`reconcile_codes`), and reconciles only if the tags differ.

Each parity-check matrix is built from its recorded construction seed the
first time a process uses it (`load_code`); see `make_parity_check` for the
construction.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from ..bits import as_bits, parity
from ..keys import KeyMaterial


class LengthMismatchError(Exception):
    """Reference and noisy keys have different lengths."""


class DecodeFailureError(Exception):
    """A block could not be reconciled; the session must discard its keys."""


# label -> check-count rule; rate = 1 - m/n. New labels go at the end: a
# label's position is part of its codes' generator seeds.
_RATE_RULES = {
    "r050": lambda n: n // 2,
    "r075": lambda n: n // 4,
    "r090": lambda n: max(1, round(n / 10)),
    "r065": lambda n: round(n * 0.35),
}
_BLOCK_SIZES = (256, 1024, 4096)
_GEN_SEED = 20240811
_COL_WEIGHT = 3

# (label, estimated-QBER ceiling, smallest block size it is chosen at),
# tried in order; a label's codes exist at every block size from its
# smallest. The r065 ceiling is measured with tests/calibrate_rates.py:
# the highest 0.1% step at which every one of 2000 seeded decodes at
# n = 4096 returned the true error pattern; min-sum needs m/n of about 1.6
# h(qber) there, and at n = 1024 and 256 r065 already fails at 1.5% QBER,
# where r075 still holds. The r090 and r075 ceilings are older budgets,
# and r090 at n = 256 has too little distance to trust.
_RATE_CEILINGS = (
    ("r090", 0.003, 1024),
    ("r075", 0.015, 256),
    ("r065", 0.034, 4096),
    ("r050", 1.0, 256),
)
# decoder effort per block: min-sum iterations, then parity-bisection passes
_MAX_ITERATIONS = 60
_MAX_BISECTION_PASSES = 12


@dataclass(frozen=True)
class ReconcileParams:
    """The estimated QBER a round's code choice and decoder start from."""

    est_qber: float

    def __post_init__(self):
        if not 0.0 <= self.est_qber <= 1.0:
            raise ValueError("est_qber must lie in [0, 1]")


class LdpcCode:
    """A fixed binary parity-check matrix in sparse row form."""

    def __init__(self, name: str, n: int, rows: list[np.ndarray]):
        self.name = name
        self.n = n
        self.m = len(rows)
        self.rows = rows
        wmax = max(len(r) for r in rows)
        padded = np.full((self.m, wmax), n, dtype=np.int32)
        for i, r in enumerate(rows):
            padded[i, : len(r)] = r
        self.padded_rows = padded
        # The decoder's layout: edge slot k of every check is row k, so a
        # check's reductions are element-wise operations along axis 0.
        self.edge_vars = np.ascontiguousarray(padded.T, dtype=np.intp)
        # var_edges[j, v] is the flat position in edge_vars of variable v's
        # j-th edge, counting checks in ascending order. Every column has
        # the same weight; the padding (variable n) sorts last.
        pos = np.arange(padded.size).reshape(wmax, self.m).T.ravel()
        order = np.argsort(padded.ravel(), kind="stable")[: np.count_nonzero(padded < n)]
        self.var_edges = pos[order].reshape(n, -1).T.copy()

    def syndrome(self, x: np.ndarray) -> np.ndarray:
        """H @ x over GF(2); x must have length n."""
        x = as_bits(x)
        if x.size != self.n:
            raise ValueError(f"vector length {x.size} != code length {self.n}")
        ext = np.append(x, np.uint8(0))
        return (ext[self.padded_rows].sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)


def make_parity_check(n: int, m: int, col_weight: int, seed: int) -> list[np.ndarray]:
    """Build a near-regular parity-check matrix via the configuration model.

    Every variable node gets exactly `col_weight` check sockets; check
    degrees differ by at most one. Deterministic socket swaps repair two
    kinds of defects: duplicate edges (a variable appearing twice in one
    check) and duplicate columns (two variables with identical check sets,
    which would be an undetectable two-bit error pattern).

    A swap never creates a duplicate edge: the variable it moves into a
    check is not already there. So duplicate edges are repaired in one pass
    over the rows, re-checking only the current row after each swap, and no
    earlier row can gain one back; after that pass only duplicate columns
    remain to repair. The swaps, and so the matrix, are those of a repair
    that rescans every row after every swap.
    """
    rng = random.Random(seed)
    sockets = np.repeat(np.arange(n), col_weight).tolist()
    rng.shuffle(sockets)

    base, extra = divmod(n * col_weight, m)
    sizes = [base + (1 if i < extra else 0) for i in range(m)]
    starts = [0, *itertools.accumulate(sizes)]
    rows = [sockets[start:end] for start, end in zip(starts, starts[1:])]
    # each socket's check in row-major order; a swap keeps every row's length
    socket_check = np.repeat(np.arange(m), sizes)

    def swap_away(i: int, k: int) -> None:
        # Move rows[i][k] somewhere else without creating a duplicate edge.
        v = rows[i][k]
        for _ in range(100_000):
            j = rng.randrange(m)
            l = rng.randrange(len(rows[j]))
            u = rows[j][l]
            if u == v or u in rows[i] or v in rows[j]:
                continue
            rows[i][k], rows[j][l] = u, v
            return
        raise RuntimeError("parity-check repair failed to find a valid swap")

    def duplicate_column() -> tuple[int, int] | None:
        # The first socket of the smallest variable whose checks equal an
        # earlier variable's. Every variable keeps its col_weight sockets, so
        # its checks in row order are one row of `columns`.
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=len(sockets))
        order = np.argsort(flat, kind="stable")
        columns = socket_check[order].reshape(n, col_weight)
        # a stable sort puts each repeated column after its first variable
        ranked = np.lexsort(columns.T[::-1])
        same = (columns[ranked[1:]] == columns[ranked[:-1]]).all(axis=1)
        if not same.any():
            return None
        socket = int(order[ranked[1:][same].min() * col_weight])
        i = int(socket_check[socket])
        return i, socket - starts[i]

    for i, row in enumerate(rows):
        while len(set(row)) < len(row):
            # swap away the row's first repeated variable
            swap_away(i, next(k for k, v in enumerate(row) if v in row[:k]))
    for _ in range(100_000):
        defect = duplicate_column()
        if defect is None:
            return [np.array(sorted(row), dtype=np.int32) for row in rows]
        swap_away(*defect)
    raise RuntimeError("parity-check construction failed to converge")


def code_name(rate_label: str, n: int) -> str:
    return f"{rate_label}_n{n}"


def available_codes() -> dict[str, tuple[int, int]]:
    """Every code `load_code` builds, as name -> (n, m): exactly the codes
    `choose_code` can pick."""
    return {
        code_name(label, n): (n, _RATE_RULES[label](n))
        for n in _BLOCK_SIZES
        for label, _ceiling, min_block in _RATE_CEILINGS
        if n >= min_block
    }


@functools.cache
def load_code(name: str) -> LdpcCode:
    """Build a parity-check matrix by name from its recorded construction
    seed; each code is built once per process."""
    codes = available_codes()
    if name not in codes:
        raise ValueError(f"unknown code {name!r}; shipped: {sorted(codes)}")
    n, m = codes[name]
    label = name.split("_")[0]
    seed = _GEN_SEED + 1000 * _BLOCK_SIZES.index(n) + list(_RATE_RULES).index(label)
    return LdpcCode(name, n, make_parity_check(n, m, _COL_WEIGHT, seed))


def _posterior(flat: np.ndarray, var_edges: np.ndarray, llr0: float) -> np.ndarray:
    """The channel LLR plus each variable's edge messages in `flat`, added
    in ascending check order: the floats `np.add.at` gives when it
    scatters a row-major message array."""
    post = flat[var_edges[0]] + llr0
    for edges in var_edges[1:]:
        post += flat[edges]
    return post


def decode_syndrome(
    code: LdpcCode,
    syndrome: np.ndarray,
    qber: float,
    max_iterations: int = _MAX_ITERATIONS,
    scale: float = 0.8,
) -> tuple[np.ndarray, bool]:
    """Estimate the error pattern with the given syndrome via min-sum BP.

    Returns (error_vector, converged). The all-zero syndrome short-circuits
    to the all-zero pattern, which keeps clean-channel sessions cheap.

    Every message is the same float as in a row-major decoder that scatters
    the posterior with `np.add.at` (see `_posterior`).
    """
    s = as_bits(syndrome)
    if s.size != code.m:
        raise ValueError(f"syndrome length {s.size} != check count {code.m}")
    if not np.any(s):
        return np.zeros(code.n, dtype=np.uint8), True

    p = min(max(qber, 1e-3), 0.3)
    llr0 = math.log((1.0 - p) / p)
    edge_vars, var_edges = code.edge_vars, code.var_edges
    wmax, m = edge_vars.shape
    syn = s.astype(bool)

    # check-to-variable messages, also read through their flat view
    msgs = np.zeros((wmax, m), dtype=np.float64)
    flat = msgs.ravel()
    # posterior LLR per variable; the padding slot's +inf keeps every
    # padded variable message at +inf, which never wins a minimum or flips
    # a sign. No message is -0.0 (the sum starts at llr0 > 0), so a sign
    # bit is the same test as `< 0.0`.
    totals = np.full(code.n + 1, llr0, dtype=np.float64)
    totals[code.n] = np.inf
    # running minima of the magnitudes from the top and from the bottom,
    # each behind one +inf row
    head = np.full((wmax + 1, m), np.inf)
    tail = np.full((wmax + 1, m), np.inf)
    var_msgs = totals[edge_vars]
    e_hat = np.zeros(code.n, dtype=np.uint8)
    for _ in range(max_iterations):
        var_msgs -= msgs
        # checks whose outgoing messages flip sign: odd parity of negative
        # inputs against the syndrome bit
        flip = np.logical_xor.reduce(var_msgs < 0.0, axis=0) ^ syn
        mags = np.abs(var_msgs)
        # each edge gets the smallest magnitude among its check's other edges
        for k in range(wmax):
            np.minimum(head[k], mags[k], out=head[k + 1])
            np.minimum(tail[k], mags[wmax - 1 - k], out=tail[k + 1])
        np.minimum(head[:-1], tail[-2::-1], out=msgs)
        np.copysign(msgs, var_msgs, out=msgs)
        msgs *= np.where(flip, -scale, scale)

        post = _posterior(flat, var_edges, llr0)
        totals[: code.n] = post
        e_hat = (post < 0.0).view(np.uint8)
        # the next iteration's input; its signs are this hard decision
        var_msgs = totals[edge_vars]
        if np.array_equal(np.logical_xor.reduce(var_msgs < 0.0, axis=0), syn):
            return e_hat, True
    return e_hat, False


def _bisect_block(a: np.ndarray, work: np.ndarray, blk: np.ndarray) -> int:
    """Locate and flip one error inside a parity-mismatched block.

    Returns the number of parities the reference side disclosed.
    """
    disclosed = 0
    lo, hi = 0, len(blk)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        disclosed += 1
        if parity(a[blk[lo:mid]]) != parity(work[blk[lo:mid]]):
            hi = mid
        else:
            lo = mid
    work[blk[lo]] ^= 1
    return disclosed


def parity_bisection(
    a: np.ndarray,
    b: np.ndarray,
    est_qber: float,
    max_passes: int,
    done,
) -> tuple[np.ndarray, int, bool]:
    """Deterministic interactive block-parity reconciliation.

    Each pass partitions the positions (re-interleaved by a fixed per-pass
    permutation) into blocks and drains every parity-mismatched block one
    bisected flip at a time until its parity agrees. Blocks left with an
    even number of errors are split up by the next pass's permutation.
    `done(candidate)` decides convergence after each pass. Returns
    (corrected, parities_disclosed, ok).
    """
    a = as_bits(a)
    work = as_bits(b).copy()
    n = a.size
    if n == 0:
        return work, 0, True
    disclosed = 0
    block0 = min(n, max(8, math.ceil(0.73 / max(est_qber, 0.01))))
    for pass_idx in range(max_passes):
        order = np.arange(n)
        if pass_idx > 0:
            # Fixed per-pass interleave so reruns are reproducible.
            perm_rng = random.Random(f"parity-bisection:{n}:{pass_idx}")
            order = np.array(perm_rng.sample(range(n), n), dtype=np.int64)
        # Never merge everything into one block: an even error count in a
        # single block would be invisible to every later pass.
        size = max(1, min(n // 2 if n > 1 else 1, block0 << min(pass_idx, 3)))
        for start in range(0, n, size):
            blk = order[start : start + size]
            disclosed += 1
            while parity(a[blk]) != parity(work[blk]):
                disclosed += _bisect_block(a, work, blk)
                disclosed += 1  # block parity is re-checked after the flip
        if done(work):
            return work, disclosed, True
    return work, disclosed, done(work)


def choose_code(params: ReconcileParams, key_len: int) -> str:
    """Name of the code `correct_errors` uses for a key of `key_len` bits:
    the largest block the key fills (the smallest for a shorter key), at
    the highest rate whose ceiling lies above the estimated QBER."""
    block_len = max((n for n in _BLOCK_SIZES if n <= key_len), default=_BLOCK_SIZES[0])
    for label, ceiling, min_block in _RATE_CEILINGS:
        if params.est_qber < ceiling and block_len >= min_block:
            return code_name(label, block_len)
    return code_name("r050", block_len)


# The code a reconcile message names when it discloses no syndrome.
NO_CODE = "none"


def reconcile_codes(params: ReconcileParams, key_len: int) -> tuple[str, ...]:
    """The codes a round tries in order, each attempt followed by a
    verification; the round stops at the first one that verifies.

    With no error seen, the keys are verified before any syndrome is
    disclosed (rate 1, NO_CODE), and `choose_code`'s code is the fallback
    when the tags differ. Otherwise the round tries that code alone.
    """
    code = choose_code(params, key_len)
    if params.est_qber == 0.0:
        return NO_CODE, code
    return (code,)


def correct_errors(
    reference: KeyMaterial,
    noisy: KeyMaterial,
    params: ReconcileParams,
) -> tuple[KeyMaterial, int]:
    """Reconcile the noisy key against the reference.

    Keys are processed in fixed-size blocks (zero-padded at the tail). For
    each block the reference side discloses its syndrome; the receiver
    decodes the syndrome difference, falling back to parity bisection when
    belief propagation fails. Raises DecodeFailureError when a block cannot
    be fixed, LengthMismatchError on unequal inputs. Returns the corrected
    key and the number of disclosed bits.
    """
    if reference.length != noisy.length:
        raise LengthMismatchError(f"key lengths differ: {reference.length} vs {noisy.length}")
    if reference.length == 0:
        return noisy.with_bits(noisy.bits.copy()), 0

    code = load_code(choose_code(params, reference.length))
    block_len = code.n

    corrected = np.empty(reference.length, dtype=np.uint8)
    leak = 0
    for chunk_idx, off in enumerate(range(0, reference.length, block_len)):
        a_real = reference.bits[off : off + block_len]
        b_real = noisy.bits[off : off + block_len]
        pad_width = block_len - a_real.size
        a_blk = np.pad(a_real, (0, pad_width))
        b_blk = np.pad(b_real, (0, pad_width))

        syndrome_a = code.syndrome(a_blk)
        leak += code.m  # reference side publishes its block syndrome
        diff = np.bitwise_xor(syndrome_a, code.syndrome(b_blk))
        err, ok = decode_syndrome(code, diff, params.est_qber)
        if ok:
            fixed = np.bitwise_xor(b_blk, err)
        else:
            def _syndrome_match(candidate: np.ndarray) -> bool:
                padded = np.pad(candidate, (0, pad_width))
                return bool(np.array_equal(code.syndrome(padded), syndrome_a))

            # A BP failure means the rate estimate is suspect; size the
            # bisection blocks for a pessimistic error rate instead.
            fixed_real, extra, ok = parity_bisection(
                a_real,
                b_real,
                max(params.est_qber, 0.05),
                _MAX_BISECTION_PASSES,
                _syndrome_match,
            )
            leak += extra
            if not ok:
                raise DecodeFailureError(
                    f"block {chunk_idx} failed both BP decoding and parity bisection"
                )
            fixed = np.pad(fixed_real, (0, pad_width))
        corrected[off : off + block_len - pad_width] = fixed[: block_len - pad_width]

    return noisy.with_bits(corrected), leak
