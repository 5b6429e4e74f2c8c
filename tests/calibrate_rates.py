"""Measure the QBER ceiling of an LDPC code rate at the block sizes it has codes at.

For each 0.1% QBER step from 1.5% upward, decode `--trials` seeded
Bernoulli error patterns of one block with `decode_syndrome` at that QBER
and count the decodes that did not return the true pattern. The ceiling is
the highest step reached before the first step with a failure.

    PYTHONPATH=src python tests/calibrate_rates.py r065
"""
import argparse
import time

import numpy as np

from qkdkit.postproc.reconcile import _RATE_RULES, available_codes, code_name, decode_syndrome, load_code

FIRST_STEP = 15  # in units of 0.1% QBER


def failures(label: str, n: int, step: int, trials: int) -> int:
    code = load_code(code_name(label, n))
    qber = step / 1000
    rng = np.random.default_rng([list(_RATE_RULES).index(label), n, step])
    failed = 0
    for _ in range(trials):
        errors = (rng.random(n) < qber).astype(np.uint8)
        e_hat, ok = decode_syndrome(code, code.syndrome(errors), qber)
        failed += not (ok and np.array_equal(e_hat, errors))
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("labels", nargs="+", choices=sorted(_RATE_RULES))
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--sizes", type=int, nargs="+", help="default: every size the label has a code at")
    args = parser.parse_args()
    for label in args.labels:
        sizes = [n for name, (n, _m) in available_codes().items() if name.startswith(f"{label}_")]
        for n in args.sizes or sizes:
            start, step = time.perf_counter(), FIRST_STEP
            while (failed := failures(label, n, step, args.trials)) == 0:
                step += 1
            ceiling = "none" if step == FIRST_STEP else f"{(step - 1) / 10:.1f}%"
            print(
                f"{code_name(label, n)}: ceiling {ceiling}, first failure at {step / 10:.1f}% "
                f"({failed}/{args.trials}), {time.perf_counter() - start:.0f} s",
                flush=True,
            )


if __name__ == "__main__":
    main()
