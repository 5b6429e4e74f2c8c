"""Output checks behind the benchmark's failure count.

An operation is one round or one network request. Each check names the
operations it fails; `failed_operations` returns how many of a run's
operations failed at least one check.
"""
from __future__ import annotations

from pathlib import Path

REPORT_FILES = ("report.json", "rounds.csv")
# the only output that holds each request's path and exposure
NETWORK_FILE = "network.csv"

# RoundReport field holding the ledger total for each disclosure category
LEDGER_FIELDS = {
    "sifting": "sifting_disclosed",
    "syndrome": "syndrome_bits",
    "verification": "verification_bits",
}


def operation_count(scenario) -> int:
    requests = scenario.network.requests if scenario.network is not None else ()
    return scenario.rounds + len(requests)


def read_reports(out_dir: Path, scenario) -> dict[str, bytes]:
    names = REPORT_FILES + ((NETWORK_FILE,) if scenario.network is not None else ())
    return {name: (out_dir / name).read_bytes() for name in names}


def round_problems(result) -> dict[int, list[str]]:
    """Per-round check failures, keyed by round number (1-based)."""
    problems: dict[int, list[str]] = {}
    scenario = result.scenario
    if result.status != "ok":
        problems.setdefault(0, []).append(f"status {result.status} ({result.reason})")
    reported = {r.round_no: r for r in result.rounds}
    for round_no in range(1, scenario.rounds + 1):
        r = reported.get(round_no)
        if r is None:
            problems.setdefault(round_no, []).append("round missing from the report")
            continue
        if r.keys_equal is not True or r.verified is not True:
            problems.setdefault(round_no, []).append(
                f"keys_equal={r.keys_equal} verified={r.verified}"
            )
        logged = {category: 0 for category in LEDGER_FIELDS}
        for message in result.messages:
            if message.round_no != round_no:
                continue
            for category, bits in message.disclosed.items():
                logged[category] = logged.get(category, 0) + bits
        for category, bits in logged.items():
            ledger = getattr(r, LEDGER_FIELDS[category]) if category in LEDGER_FIELDS else None
            if ledger != bits:
                problems.setdefault(round_no, []).append(
                    f"{category}: message log {bits} != ledger {ledger}"
                )
    return problems


def request_problems(result) -> dict[int, list[str]]:
    """Per-request check failures, keyed by request position (0-based)."""
    network = result.scenario.network
    if network is None:
        return {}
    problems: dict[int, list[str]] = {}
    rows = result.network_rows
    for i, request in enumerate(network.requests):
        if i >= len(rows):
            problems[i] = ["no network row"]
            continue
        row = rows[i]
        exposed = row["exposed_by"].split(";")
        if (row["src"], row["dst"]) != (request.src, request.dst):
            problems[i] = [f"row {row['src']}->{row['dst']} does not match the request"]
        elif request.src not in exposed or request.dst not in exposed:
            problems[i] = [f"exposed_by {row['exposed_by']!r} misses an endpoint"]
    return problems


def failed_operations(result, reports: dict[str, bytes], reference: dict[str, bytes] | None) -> tuple[int, list[str]]:
    """Failed operations of one run and a description of each failure.

    `reference` holds the report bytes of an earlier run of the same seed;
    any difference fails every operation of this run.
    """
    total = operation_count(result.scenario)
    messages = []
    if reference is not None:
        for name in reports:
            if reports[name] != reference[name]:
                messages.append(f"{name} differs from an earlier run of the same seed")
    if messages:
        return total, messages
    by_round = round_problems(result)
    by_request = request_problems(result)
    for key, problems in sorted(by_round.items()):
        messages += [f"round {key}: {p}" for p in problems]
    for key, problems in sorted(by_request.items()):
        messages += [f"request {key}: {p}" for p in problems]
    if 0 in by_round:
        return total, messages
    return len(by_round) + len(by_request), messages
