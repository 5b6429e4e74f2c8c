"""Outside-in span tracing of the qkdkit pipeline.

The tracer replaces public functions with timing wrappers in the module
namespace where the pipeline looks them up (`qkdkit.scenario`, plus
`qkdkit.auth` for `ots_keygen` and `qkdkit.postproc.reconcile` for the
decoder), for the duration of one `installed()` block only. Every call
becomes a span (layer, start, end, parent, run id) kept in memory, with
counts taken from the call's arguments and result at the same boundary.

`qkdkit.channel` is not wrapped: its functions run once per pulse (about
164k calls per clean-chain run), so a wrapper there would time itself.
Their cost is inside the `protocol` span. `qkdkit.apps` is not wrapped
because `run_scenario` never calls it.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import qkdkit.auth
import qkdkit.postproc.reconcile
import qkdkit.scenario
from qkdkit.postproc import binary_entropy


def _pulses(args, result):
    return {"pulses": args[0].n_pulses}


def _sift(args, result):
    sifted_a, _sifted_b, _x_sample, bundle, _ledger = result
    return {"detected": int(bundle.detected_indices.size), "sifted": sifted_a.length}


def _reconcile(args, result):
    reference, _noisy, params = args[:3]
    n, leak = reference.length, result[1]
    return {"bits": n, "leak": leak, "shannon": n * binary_entropy(params.est_qber)}


def _verify(args, result):
    return {"hashed": args[0].length + args[1].length}


def _amplify(args, result):
    return {"hashed": args[0].length, "out": args[2]}


def _mac_tag(args, result):
    return {"bytes": len(args[0]), "pool_bits": result.seed_handle.length}


def _bytes(args, result):
    return {"bytes": len(args[0])}


def _root(args, result):
    return {
        "messages": len(result.messages),
        "payload_bytes": sum(len(m.payload) for m in result.messages),
    }


# (module, public name, layer, counts taken at the call boundary)
TARGETS = (
    (qkdkit.scenario, "run_scenario", "scenario", _root),
    (qkdkit.scenario, "run_quantum_phase", "protocol", _pulses),
    (qkdkit.scenario, "announce_and_sift", "sifting", _sift),
    (qkdkit.scenario, "estimate_eavesdropping", "sifting", None),
    (qkdkit.scenario, "correct_errors", "reconcile", _reconcile),
    (qkdkit.postproc.reconcile, "decode_syndrome", "reconcile.decode", None),
    (qkdkit.postproc.reconcile, "parity_bisection", "reconcile.bisect", None),
    (qkdkit.scenario, "verify_keys", "distill.verify", _verify),
    (qkdkit.scenario, "amplify_privacy", "distill.amplify", _amplify),
    (qkdkit.scenario, "wc_tag", "auth.mac", _mac_tag),
    (qkdkit.scenario, "wc_verify", "auth.mac", _bytes),
    (qkdkit.auth, "ots_keygen", "auth.ots_keygen", None),
    (qkdkit.scenario, "ots_sign", "auth.ots_sign_verify", None),
    (qkdkit.scenario, "ots_verify", "auth.ots_sign_verify", None),
    (qkdkit.scenario, "hybrid_establish", "network.establish", None),
    (qkdkit.scenario, "compromise_node", "network.compromise", None),
    (qkdkit.scenario, "write_reports", "scenario.report", None),
)

# Layers whose spans are direct children of run_scenario, with the metric
# that holds their busy time; these plus scenario.self_s make up the wall.
TOP_LAYERS = {
    "protocol": "protocol.busy_s",
    "sifting": "sifting.busy_s",
    "reconcile": "reconcile.busy_s",
    "distill.verify": "distill.verify_busy_s",
    "distill.amplify": "distill.amplify_busy_s",
    "auth.mac": "auth.mac_busy_s",
    "auth.ots_keygen": "auth.ots_keygen_s",
    "auth.ots_sign_verify": "auth.ots_sign_verify_s",
    "network.establish": "network.establish_busy_s",
    "network.compromise": "network.compromise_busy_s",
    "scenario.report": "scenario.report_busy_s",
}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict


class Tracer:
    """Collects spans from wrapped calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, original, layer, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, 0.0, 0.0, parent, self.run_id, {})
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the block; restore the originals on exit."""
        originals = [(module, name, getattr(module, name)) for module, name, _, _ in TARGETS]
        try:
            for (module, name, layer, count), (_, _, original) in zip(TARGETS, originals):
                setattr(module, name, self._wrap(original, layer, count))
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "layer": s.layer, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run_id, "counts": s.counts,
                }) + "\n")


def snapshot_originals() -> dict:
    return {(module.__name__, name): getattr(module, name) for module, name, _, _ in TARGETS}


def unrestored_names(originals: dict) -> list[str]:
    """Targets whose module attribute is no longer the original function."""
    return [
        f"{module.__name__}.{name}"
        for module, name, _, _ in TARGETS
        if getattr(module, name) is not originals[(module.__name__, name)]
    ]


def run_layers(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer metrics of one traced run_scenario call.

    `spans[first]` is that call's root span and every later span belongs to
    it; parents are indices into `spans`.
    """
    root = spans[first]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    root_children = 0.0
    for s in spans[first + 1 :]:
        duration = s.end - s.start
        if s.parent == first:
            root_children += duration
        busy[s.layer] = busy.get(s.layer, 0.0) + duration
        calls[s.layer] = calls.get(s.layer, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.layer}:{key}"] = counts.get(f"{s.layer}:{key}", 0) + value
    for key, value in root.counts.items():
        counts[f"scenario:{key}"] = value

    def b(layer):
        return busy.get(layer, 0.0)

    def c(key):
        return counts.get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    wall = root.end - root.start
    pulses = c("protocol:pulses")
    detected = c("sifting:detected")
    hashed_in = c("distill.amplify:hashed")
    shannon = c("reconcile:shannon")
    return {
        "trace.wall_s": wall,
        "protocol.busy_s": b("protocol"),
        "protocol.pulses_per_s": rate(pulses, b("protocol")),
        "protocol.detect_ratio": detected / pulses if pulses else 0.0,
        "sifting.busy_s": b("sifting"),
        "sifting.pulses_per_s": rate(pulses, b("sifting")),
        "sifting.sift_ratio": c("sifting:sifted") / detected if detected else 0.0,
        "reconcile.busy_s": b("reconcile"),
        "reconcile.bits_per_s": rate(c("reconcile:bits"), b("reconcile")),
        "reconcile.leak_bits": c("reconcile:leak"),
        # f = disclosed / (n h(e)) is undefined at e = 0; it reads 0 there.
        "reconcile.efficiency_f": c("reconcile:leak") / shannon if shannon > 0 else 0.0,
        "reconcile.decode_calls": calls.get("reconcile.decode", 0),
        "reconcile.decode_failed": calls.get("reconcile.bisect", 0),
        "reconcile.bisect_busy_s": b("reconcile.bisect"),
        "distill.verify_busy_s": b("distill.verify"),
        "distill.amplify_busy_s": b("distill.amplify"),
        "distill.bits_per_s": rate(
            c("distill.verify:hashed") + hashed_in, b("distill.verify") + b("distill.amplify")
        ),
        "distill.compression": c("distill.amplify:out") / hashed_in if hashed_in else 0.0,
        "auth.mac_busy_s": b("auth.mac"),
        "auth.mac_calls": calls.get("auth.mac", 0),
        "auth.mac_bytes_per_s": rate(c("auth.mac:bytes"), b("auth.mac")),
        "auth.ots_keygen_s": b("auth.ots_keygen"),
        "auth.ots_sign_verify_s": b("auth.ots_sign_verify"),
        "auth.pool_bits_spent": c("auth.mac:pool_bits"),
        "network.establish_busy_s": b("network.establish"),
        "network.requests_per_s": rate(calls.get("network.establish", 0), b("network.establish")),
        "network.compromise_busy_s": b("network.compromise"),
        "network.compromise_calls": calls.get("network.compromise", 0),
        "scenario.self_s": wall - root_children,
        "scenario.report_busy_s": b("scenario.report"),
        "scenario.payload_bytes": c("scenario:payload_bytes"),
        "scenario.messages": c("scenario:messages"),
    }


def layer_sum_error(layers: dict[str, float]) -> float:
    """|top-level busy times + scenario.self_s - traced wall| of one run."""
    total = sum(layers[metric] for metric in TOP_LAYERS.values()) + layers["scenario.self_s"]
    return abs(total - layers["trace.wall_s"])
