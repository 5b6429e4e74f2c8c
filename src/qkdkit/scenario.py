"""Scenario runner: chained authenticated sessions, reports, sweeps.

A scenario fully determines a run: protocol and channel parameters, the
eavesdropper, post-processing knobs, the authentication bootstrap and an
optional network section. Identical scenarios with identical master seeds
produce byte-identical reports.

Each round executes the complete pipeline: quantum phase, announcements
and sifting, eavesdropping estimation (with abort), error correction,
verification, privacy amplification, and the final-key split that funds
the next round's authentication pool. Every classical message is
authenticated (one-time signatures in a bootstrap first round, the
one-time MAC afterwards) and logged with the number of key-relevant bits
it disclosed, so the disclosure counts in each round's report row can be
audited off the message log; `run_session` checks that they are.
Each reconciliation attempt is batched into a single authenticated
message whose payload carries the number of disclosed syndrome and parity
bits and the name of the code, not the bits themselves. When no error was
seen, the first attempt names no code and discloses nothing: the keys are
verified before any syndrome is sent.
"""
from __future__ import annotations

import enum
import json
import re
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .auth import (
    AuthKeyPool,
    AuthMode,
    CannotAuthenticateError,
    InsufficientKeyError,
    MacKey,
    OtsContext,
    PoolExhaustedError,
    bootstrap_round_auth,
    export_ots_public,
    grow_keys,
    import_ots_public,
    ots_sign,
    ots_verify,
    wc_tag,
    wc_verify,
)
from .bits import FieldError, bytes_from_bits, check_field, derive_seed, random_bits
from .channel import ChannelParams, EveKind, EveModel
from .keys import KeyStage
from .network import (
    HybridPolicy,
    NetworkRequestError,
    NetworkState,
    compromise_node,
    hybrid_establish,
    parse_topology,
)

from .postproc import (
    Decision,
    DecodeFailureError,
    ReconcileParams,
    ToeplitzSeed,
    amplify_privacy,
    announce_and_sift,
    compute_final_length,
    correct_errors,
    estimate_eavesdropping,
    verify_keys,
)
from .postproc.reconcile import NO_CODE, reconcile_codes
from .postproc.sifting import THRESHOLD_RANGE
from .protocol import (
    AsymmetricRandom,
    BasisStrategy,
    PresharedSequence,
    ProtocolConfig,
    SessionSeeds,
    SymmetricRandom,
    Transcript,
    dump_transcript,
    run_quantum_phase,
)


class ConfigError(Exception):
    """Scenario configuration failed to parse or validate."""


class DisclosureMismatchError(RuntimeError):
    """A round's report row disagrees with what its messages disclosed."""


# Exit-code taxonomy (total over every defined failure mode).
EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_ABORTED = 2
EXIT_DECODE_FAILURE = 3
EXIT_POOL_EXHAUSTED = 4

STATUS_OK = "ok"
STATUS_ABORTED = "aborted"
STATUS_DECODE_FAILURE = "decode-failure"
STATUS_POOL_EXHAUSTED = "pool-exhausted"

STATUS_EXIT_CODES = {
    STATUS_OK: EXIT_OK,
    STATUS_ABORTED: EXIT_ABORTED,
    STATUS_DECODE_FAILURE: EXIT_DECODE_FAILURE,
    STATUS_POOL_EXHAUSTED: EXIT_POOL_EXHAUSTED,
}

SWEEPABLE_PARAMETERS = ("p_z", "transmittance", "eve_fraction", "threshold")
SWEEP_COLUMNS = ("parameter", "value", "n_sifted", "e_x", "decision", "final_length", "key_rate")


@dataclass(frozen=True)
class PostprocParams:
    threshold: float = 0.11
    verify_tag_bits: int = 64
    security_margin: int = 32

    def __post_init__(self):
        lo, hi = THRESHOLD_RANGE
        check_field(self, "threshold", lo < self.threshold < hi, f"in ({lo:g}, {hi:g})")
        check_field(self, "verify_tag_bits", self.verify_tag_bits >= 1, ">= 1")
        check_field(self, "security_margin", self.security_margin >= 0, ">= 0")


@dataclass(frozen=True)
class AuthParams:
    mode: str = "ots_bootstrap"
    reserve_bits: int = 2048
    preshared_pool_bits: int = 0
    ots_keypairs: int = 12

    def __post_init__(self):
        modes = ("ots_bootstrap", "preshared_pool")
        check_field(self, "mode", self.mode in modes, f"one of {modes}")
        check_field(self, "reserve_bits", self.reserve_bits >= 0, ">= 0")
        # preshared_pool mode runs on the pre-shared pool; ots_bootstrap mode reads none
        preshared = self.mode == "preshared_pool"
        pool_ok = self.preshared_pool_bits >= 1 if preshared else self.preshared_pool_bits == 0
        pool_rule = ">= 1 in preshared_pool mode" if preshared else "0 in ots_bootstrap mode"
        check_field(self, "preshared_pool_bits", pool_ok, pool_rule)
        check_field(self, "ots_keypairs", self.ots_keypairs >= 1, ">= 1")


@dataclass(frozen=True)
class NetworkRequest:
    src: str
    dst: str
    policy: HybridPolicy
    key_len: int

    def __post_init__(self):
        check_field(self, "key_len", self.key_len >= 1, ">= 1")


@dataclass(frozen=True)
class NetworkSection:
    topology_file: str
    requests: tuple[NetworkRequest, ...]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A fully determined run. Its fields and those of its section dataclasses
    are the config format, with their types, defaults and checks."""

    name: str = "scenario"
    master_seed: int
    rounds: int
    protocol: ProtocolConfig
    channel: ChannelParams
    eve: EveModel = field(default_factory=EveModel)
    postproc: PostprocParams = field(default_factory=PostprocParams)
    auth: AuthParams = field(default_factory=AuthParams)
    network: Optional[NetworkSection] = None

    def __post_init__(self):
        check_field(self, "master_seed", self.master_seed >= 0, ">= 0")
        check_field(self, "rounds", self.rounds >= 1, ">= 1")


# A config's strategy names its class by `mode`; the other keys are its fields.
_STRATEGY_MODES = {
    "symmetric": SymmetricRandom,
    "asymmetric": AsymmetricRandom,
    "preshared": PresharedSequence,
}


def _strategy_from_dict(raw, path: str) -> BasisStrategy:
    if not isinstance(raw, dict):
        raise ConfigError(f"config field {path}: expected an object, got {raw!r}")
    modes = list(_STRATEGY_MODES)
    if raw.get("mode") not in modes:
        raise ConfigError(f"config field {path}/mode: must be one of {modes}, got {raw.get('mode')!r}")
    rest = {key: value for key, value in raw.items() if key != "mode"}
    return _from_plain(_STRATEGY_MODES[raw["mode"]], rest, path)


def _from_plain(kind, value, path: str):
    """The `kind` value that a config writes as `value`: the inverse of `_to_plain`.

    Each value is checked against its annotation and never coerced, so an int
    written in a float field stays an int. A dataclass needs every field that
    has no default and takes no unknown one; a bytes field is written in hex
    under its name plus "_hex". Errors name the field path, such as "auth/mode".
    """
    where = f"config field {path or '<root>'}"
    if kind == BasisStrategy:
        return _strategy_from_dict(value, path)
    if typing.get_origin(kind) is typing.Union:  # Optional[X]; an absent section stays None
        return _from_plain(typing.get_args(kind)[0], value, path)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_from_plain(item, v, f"{path}/{i}") for i, v in enumerate(value))
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        allowed = [member.value for member in kind]
        if value not in allowed:
            raise ConfigError(f"{where}: must be one of {allowed}, got {value!r}")
        return kind(value)
    if kind is bytes:
        if not (isinstance(value, str) and re.fullmatch(r"(?:[0-9a-fA-F]{2})+", value)):
            raise ConfigError(f"{where}: must be a non-empty, even number of hex digits, got {value!r}")
        return bytes.fromhex(value)
    if kind in (int, float, str):
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    hints = typing.get_type_hints(kind)
    keys = {(f.name + "_hex" if hints[f.name] is bytes else f.name): f for f in fields(kind)}
    key_of = {f.name: key for key, f in keys.items()}
    prefix = f"{path}/" if path else ""
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ConfigError(f"config field {prefix}{unknown[0]}: unknown field")
    args = {}
    for key, f in keys.items():
        if key in value:
            args[f.name] = _from_plain(hints[f.name], value[key], prefix + key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config field {prefix}{key}: required field is missing")
    try:
        return kind(**args)
    except FieldError as exc:
        raise ConfigError(f"config field {prefix}{key_of[exc.field]}: {exc}") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    """Check a parsed config field by field against the dataclasses and build it."""
    return _from_plain(Scenario, raw, "")


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario config file; parse errors carry line/column info."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(raw)


def _to_plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    # a dataclass, written as `_from_plain` reads it: a basis strategy leads
    # with its mode, and an unset optional section (None) is left out
    plain = {"mode": mode for mode, kind in _STRATEGY_MODES.items() if type(value) is kind}
    for f in fields(value):
        v = getattr(value, f.name)
        if v is not None:
            plain[f.name + "_hex" if isinstance(v, bytes) else f.name] = _to_plain(v)
    return plain


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical dict form of a scenario, used for reports.

    It is the config format of `scenario_from_dict`, derived field by field
    from the dataclasses.
    """
    return _to_plain(s)


@dataclass
class PublicMessage:
    """One authenticated classical message, kept for audit.

    `disclosed` counts key-relevant bits by category ("sifting", "syndrome",
    "verification"), the same counts the round's report row holds; metadata
    like indices, bases and hash seeds is public but discloses no key bits.
    """

    round_no: int
    sender: str
    label: str
    payload: bytes
    disclosed: dict[str, int] = field(default_factory=dict)
    auth_mode: Optional[str] = None


@dataclass
class RoundReport:
    """One round's row; the fields after `sifting_disclosed` are set by the
    stages after estimation, and keep their defaults when a round stops
    before them."""

    round_no: int
    auth_mode: str
    n_pulses: int
    n_detected: int
    n_sifted: int
    x_sample_size: int
    e_x: Optional[float]
    decision: str
    reason: Optional[str]
    sifting_disclosed: int
    syndrome_bits: int = 0
    verification_bits: int = 0
    final_length: int = 0
    reserve_bits: int = 0
    application_bits: int = 0
    sustainable: bool = False
    keys_equal: Optional[bool] = None
    verified: Optional[bool] = None


# rounds.csv and report.json columns: RoundReport's fields in order, with
# round_no written as "round"; keys_equal and verified are checked in memory
# and never written.
_ROUND_FIELDS = tuple(f.name for f in fields(RoundReport) if f.name not in ("keys_equal", "verified"))
ROUND_COLUMNS = tuple("round" if name == "round_no" else name for name in _ROUND_FIELDS)
# network.csv columns, and the keys of each run_network row
NETWORK_COLUMNS = ("src", "dst", "policy", "path", "key_len", "exposed_by")
# the RoundReport field that holds each message-log disclosure category
_DISCLOSURE_FIELDS = {
    "sifting": "sifting_disclosed",
    "syndrome": "syndrome_bits",
    "verification": "verification_bits",
}


@dataclass
class SessionResult:
    scenario: Scenario
    status: str
    reason: Optional[str]
    rounds: list[RoundReport]
    messages: list[PublicMessage]
    application_keys: list[np.ndarray]
    final_keys: list[tuple[np.ndarray, np.ndarray]]
    transcripts: list[Transcript]
    network_rows: list[dict] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return STATUS_EXIT_CODES[self.status]


def _encode_payload(fields: dict) -> bytes:
    """Canonical byte encoding for authenticated message payloads."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _hex(bits: np.ndarray) -> str:
    return bytes_from_bits(bits).hex() if bits.size else ""


class _Messenger:
    """Both parties' pools and one-time-signature contexts: applies the
    round's authentication mode to every message and logs it."""

    def __init__(self, scenario: Scenario):
        self.pools = {"alice": AuthKeyPool(), "bob": AuthKeyPool()}
        self.ots: dict[str, OtsContext | None] = {"alice": None, "bob": None}
        self.mode: AuthMode | None = None
        self.mac_keys: dict[str, MacKey] = {}
        self.log: list[PublicMessage] = []
        auth = scenario.auth
        if auth.mode == "preshared_pool":
            rng = np.random.default_rng(derive_seed(scenario.master_seed, "preshared-pool"))
            shared = random_bits(auth.preshared_pool_bits, rng)
            self.refill(shared, shared)
            return
        for party in self.ots:
            rng = np.random.default_rng(derive_seed(scenario.master_seed, "ots", party))
            self.ots[party] = OtsContext.generate(auth.ots_keypairs, rng)
        # Public halves cross over through the export/import wire format.
        for party, peer in (("alice", "bob"), ("bob", "alice")):
            self.ots[party].peer_publics = [
                import_ots_public(export_ots_public(kp)) for kp in self.ots[peer].keypairs
            ]

    def open_round(self, round_no: int) -> AuthMode:
        """Pick and keep the mode that authenticates this round's messages.

        A Wegman-Carter round draws each party's MAC hash key here, once;
        its messages then spend only their pads.
        """
        self.mode = bootstrap_round_auth(round_no, self.pools["alice"], self.ots["alice"])
        if self.mode is AuthMode.WEGMAN_CARTER:
            self.mac_keys = {party: MacKey.draw(pool) for party, pool in self.pools.items()}
        return self.mode

    def refill(self, alice_bits: np.ndarray, bob_bits: np.ndarray) -> None:
        self.pools["alice"].refill(alice_bits)
        self.pools["bob"].refill(bob_bits)

    def send(self, round_no: int, sender: str, label: str, fields: dict, disclosed: dict[str, int] | None = None) -> None:
        payload = _encode_payload(fields)
        receiver = "bob" if sender == "alice" else "alice"
        if self.mode is AuthMode.WEGMAN_CARTER:
            tag = wc_tag(payload, self.pools[sender], self.mac_keys[sender])
            result = wc_verify(payload, tag, self.pools[receiver], self.mac_keys[receiver])
            if not result.accepted:
                raise CannotAuthenticateError(f"message {label!r} rejected: {result.reason}")
            auth_mode = AuthMode.WEGMAN_CARTER.value
        else:
            ctx = self.ots[sender]
            assert ctx is not None
            index, keypair = ctx.take()
            sig = ots_sign(payload, keypair)
            peer_ctx = self.ots[receiver]
            assert peer_ctx is not None
            if not ots_verify(payload, sig, peer_ctx.peer_publics[index]):
                raise CannotAuthenticateError(f"message {label!r} failed signature verification")
            auth_mode = AuthMode.OTS.value
        self.log.append(
            PublicMessage(
                round_no=round_no,
                sender=sender,
                label=label,
                payload=payload,
                disclosed=disclosed or {},
                auth_mode=auth_mode,
            )
        )


def run_session(scenario: Scenario, keep_transcripts: bool = False) -> SessionResult:
    """Run all configured rounds of the authenticated protocol."""
    messenger = _Messenger(scenario)
    result = SessionResult(scenario, STATUS_OK, None, [], messenger.log, [], [], [])
    for round_no in range(1, scenario.rounds + 1):
        try:
            stop = _run_round(scenario, round_no, messenger, result, keep_transcripts)
        except (PoolExhaustedError, CannotAuthenticateError) as exc:
            stop = STATUS_POOL_EXHAUSTED, str(exc)
        except DecodeFailureError as exc:
            stop = STATUS_DECODE_FAILURE, str(exc)
        if stop is not None:
            result.status, result.reason = stop
            break
    _audit_disclosures(result)
    return result


def _audit_disclosures(result: SessionResult) -> None:
    """Raise DisclosureMismatchError unless, for every reported round, the
    message log's `disclosed` counts sum to the row's count per category."""
    logged = {r.round_no: dict.fromkeys(_DISCLOSURE_FIELDS, 0) for r in result.rounds}
    for message in result.messages:
        sums = logged.get(message.round_no)
        if sums is None:  # a round that stopped before its report row
            continue
        for category, bits in message.disclosed.items():
            sums[category] = sums.get(category, 0) + bits
    for r in result.rounds:
        reported = {category: getattr(r, name) for category, name in _DISCLOSURE_FIELDS.items()}
        if logged[r.round_no] != reported:
            raise DisclosureMismatchError(
                f"round {r.round_no}: message log discloses {logged[r.round_no]}, report row {reported}"
            )


def _run_round(
    scenario: Scenario, round_no: int, messenger: _Messenger, result: SessionResult, keep_transcript: bool
) -> Optional[tuple[str, str]]:
    """Record one round into `result`; return (status, reason) if it stops the
    session. A round that raises records only its transcript."""
    pp = scenario.postproc
    mode = messenger.open_round(round_no)

    seeds = SessionSeeds.from_master(derive_seed(scenario.master_seed, "round", round_no))
    transcript = run_quantum_phase(scenario.protocol, scenario.channel, scenario.eve, seeds)
    if keep_transcript:
        result.transcripts.append(transcript)

    sifted_a, sifted_b, x_sample, bundle, sifting_disclosed = announce_and_sift(transcript)
    n_detected = int(bundle.detected_indices.size)

    # Bases are announced as bits (X = 1), intensities as decoy flags.
    messenger.send(
        round_no,
        "bob",
        "detections",
        {
            "detected": _hex(transcript.detected),
            "bases": _hex(transcript.measured_basis[transcript.detected]),
            "count": n_detected,
        },
    )
    messenger.send(
        round_no,
        "alice",
        "bases-intensities",
        {
            "bases": _hex(transcript.basis),
            "intensities": _hex(transcript.decoy),
            "x_bits": _hex(x_sample.alice),
            "x_count": x_sample.size,
        },
        disclosed={"sifting": x_sample.size},
    )
    messenger.send(
        round_no,
        "bob",
        "x-bits",
        {"x_bits": _hex(x_sample.bob), "x_count": x_sample.size},
        disclosed={"sifting": x_sample.size},
    )

    est = estimate_eavesdropping(x_sample, pp.threshold)
    report = RoundReport(
        round_no=round_no,
        auth_mode=mode.value,
        n_pulses=scenario.protocol.n_pulses,
        n_detected=n_detected,
        n_sifted=sifted_a.length,
        x_sample_size=x_sample.size,
        e_x=None if est.e_x is None else round(est.e_x, 8),
        decision=est.decision.value,
        reason=est.reason,
        sifting_disclosed=sifting_disclosed,
    )

    if est.decision is Decision.ABORT:
        messenger.send(
            round_no,
            "alice",
            "estimation",
            {"decision": est.decision.value, "reason": est.reason or ""},
        )
        result.rounds.append(report)
        return STATUS_ABORTED, est.reason

    reconcile = ReconcileParams(est_qber=est.e_x)
    public_rng = np.random.default_rng(derive_seed(scenario.master_seed, "public-coins", round_no))
    # Each attempt reconciles (or, with NO_CODE, discloses nothing), then
    # verifies with a fresh seed; every syndrome and tag sent is charged.
    for code in reconcile_codes(reconcile, sifted_a.length):
        if code == NO_CODE:
            corrected_b, syndrome_leak = sifted_b, 0
        else:
            corrected_b, syndrome_leak = correct_errors(sifted_a, sifted_b, reconcile)
        messenger.send(
            round_no,
            "alice",
            "reconcile",
            {"decision": est.decision.value, "disclosed_bits": syndrome_leak, "code": code},
            disclosed={"syndrome": syndrome_leak},
        )
        verify_seed = ToeplitzSeed.random(sifted_a.length, pp.verify_tag_bits, public_rng)
        verified = verify_keys(sifted_a, corrected_b, verify_seed, pp.verify_tag_bits)
        messenger.send(
            round_no,
            "alice",
            "verify",
            {"seed": _hex(verify_seed.bits), "tag_bits": pp.verify_tag_bits},
            disclosed={"verification": pp.verify_tag_bits},
        )
        messenger.send(round_no, "bob", "verify-ack", {"ok": verified})
        report.syndrome_bits += syndrome_leak
        report.verification_bits += pp.verify_tag_bits
        if verified:
            break
    report.verified = verified

    if not verified:
        report.keys_equal = bool(np.array_equal(sifted_a.bits, corrected_b.bits))
        result.rounds.append(report)
        return STATUS_DECODE_FAILURE, "verification-failed"

    verified_a = sifted_a.advanced(KeyStage.VERIFIED)
    verified_b = corrected_b.advanced(KeyStage.VERIFIED)
    leak = report.syndrome_bits + report.verification_bits
    out_len = compute_final_length(verified_a.length, est.e_x, leak, pp.security_margin)
    pa_seed = ToeplitzSeed.random(verified_a.length, out_len, public_rng)
    final_a = amplify_privacy(verified_a, pa_seed, out_len)
    final_b = amplify_privacy(verified_b, pa_seed, out_len)
    messenger.send(
        round_no,
        "alice",
        "amplify",
        {"out_len": out_len, "seed": _hex(pa_seed.bits)},
    )

    report.keys_equal = bool(np.array_equal(final_a.bits, final_b.bits))
    report.final_length = out_len
    app_bits = np.zeros(0, dtype=np.uint8)
    try:
        reserve_a, app_bits = grow_keys(final_a, scenario.auth.reserve_bits)
        reserve_b, _app_b = grow_keys(final_b, scenario.auth.reserve_bits)
        messenger.refill(reserve_a, reserve_b)
        report.reserve_bits = scenario.auth.reserve_bits
        report.sustainable = True
    except InsufficientKeyError:
        # keep authenticating as long as possible: everything to the pool
        report.reserve_bits = final_a.length
        messenger.refill(final_a.consume(), final_b.consume())
    report.application_bits = int(app_bits.size)
    result.rounds.append(report)
    result.final_keys.append((final_a.bits, final_b.bits))
    if app_bits.size:
        result.application_keys.append(app_bits)
    return None


def run_network(scenario: Scenario, config_dir: Path) -> list[dict]:
    """Execute the scenario's network requests and row-ify the results."""
    assert scenario.network is not None
    topo_path = Path(scenario.network.topology_file)
    if not topo_path.is_absolute():
        topo_path = config_dir / topo_path
    try:
        topo = parse_topology(topo_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read topology {topo_path}: {exc}") from exc
    state = NetworkState(topo, master_seed=scenario.master_seed)
    records = []
    for request in scenario.network.requests:
        try:
            record = hybrid_establish(
                state, request.src, request.dst, request.policy, request.key_len
            )
        except NetworkRequestError as exc:
            raise ConfigError(
                f"network request {request.src}->{request.dst} "
                f"({request.policy.value}, {request.key_len} bits): {exc}"
            ) from exc
        records.append((request, record))
    exposure = {node: compromise_node(state, node) for node in topo.nodes}
    rows = []
    for request, record in records:
        exposed_by = sorted(node for node, keys in exposure.items() if record.key_id in keys)
        cells = (
            request.src, request.dst, request.policy.value, "->".join(record.path),
            request.key_len, ";".join(exposed_by),
        )
        rows.append(dict(zip(NETWORK_COLUMNS, cells)))
    return rows


def run_scenario(
    scenario: Scenario,
    out_dir: Path | None = None,
    config_dir: Path | None = None,
    write_transcripts: bool = False,
) -> SessionResult:
    """Run a full scenario and optionally write its report files."""
    result = run_session(scenario, keep_transcripts=write_transcripts)
    if scenario.network is not None:
        result.network_rows = run_network(scenario, config_dir or Path.cwd())
    if out_dir is not None:
        write_reports(result, Path(out_dir), write_transcripts)
    return result


def _cell(value):
    """A report value as written: None empty, bools 0/1, floats to 6 places."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def _round_row(r: RoundReport) -> dict:
    return {column: _cell(getattr(r, name)) for column, name in zip(ROUND_COLUMNS, _ROUND_FIELDS)}


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    lines = [",".join(columns)] + [",".join(str(row[c]) for c in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_reports(result: SessionResult, out_dir: Path, write_transcripts: bool = False) -> list[Path]:
    """Write report.json, rounds.csv, summary.txt and optional extras."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    report = {
        "scenario": scenario_to_dict(result.scenario),
        "status": result.status,
        "reason": result.reason,
        "exit_code": result.exit_code,
        "rounds": [_round_row(r) for r in result.rounds],
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    written.append(report_path)

    csv_path = out_dir / "rounds.csv"
    _write_csv(csv_path, ROUND_COLUMNS, report["rounds"])
    written.append(csv_path)

    summary_lines = [
        f"scenario: {result.scenario.name}",
        f"status: {result.status}" + (f" ({result.reason})" if result.reason else ""),
        f"rounds completed: {len(result.rounds)} of {result.scenario.rounds}",
    ]
    for r in result.rounds:
        e_x = "n/a" if r.e_x is None else f"{r.e_x:.4f}"
        summary_lines.append(
            f"  round {r.round_no}: auth={r.auth_mode} sifted={r.n_sifted} e_x={e_x} "
            f"decision={r.decision} leakage(sift/synd/verif)="
            f"{r.sifting_disclosed}/{r.syndrome_bits}/{r.verification_bits} "
            f"final={r.final_length} app={r.application_bits}"
        )
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary_lines) + "\n")
    written.append(summary_path)

    if result.scenario.network is not None:
        net_path = out_dir / "network.csv"
        _write_csv(net_path, NETWORK_COLUMNS, result.network_rows)
        written.append(net_path)

    if write_transcripts:
        for idx, transcript in enumerate(result.transcripts, start=1):
            for party in ("alice", "bob"):
                path = out_dir / f"round_{idx:02d}_{party}.transcript"
                path.write_text(dump_transcript(transcript.held_by(party)))
                written.append(path)
    return written


def _with_parameter(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """`scenario` with one of SWEEPABLE_PARAMETERS set to `value`."""
    if parameter == "p_z":
        return replace(scenario, protocol=replace(scenario.protocol, strategy=AsymmetricRandom(p_z=value)))
    if parameter == "transmittance":
        return replace(scenario, channel=replace(scenario.channel, transmittance=value))
    if parameter == "eve_fraction":
        kind = EveKind.INTERCEPT_RESEND if value > 0 else EveKind.NONE
        return replace(scenario, eve=EveModel(kind=kind, fraction=value))
    return replace(scenario, postproc=replace(scenario.postproc, threshold=value))


def sweep(scenario: Scenario, parameter: str, values: list[float]) -> list[dict]:
    """Run one single-round session per grid point, in ascending order.

    Each row holds SWEEP_COLUMNS; the round's cells are formatted as in
    rounds.csv.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE_PARAMETERS}")
    rows = []
    for value in sorted(values):
        result = run_session(_with_parameter(replace(scenario, rounds=1), parameter, value))
        if result.rounds:
            r = result.rounds[0]
            cells = _round_row(r)
            key_rate = r.final_length / r.n_pulses
        else:
            # the round failed before it could report; the status stands in
            cells = {"n_sifted": 0, "e_x": "", "decision": result.status, "final_length": 0}
            key_rate = 0.0
        cells.update(parameter=parameter, value=value, key_rate=f"{key_rate:.6f}")
        rows.append({column: cells[column] for column in SWEEP_COLUMNS})
    return rows


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    _write_csv(path, SWEEP_COLUMNS, rows)
