"""Multi-node key distribution: trusted-node relay, hybrid combining, exposure.

Links that run the quantum protocol carry a per-scenario bit budget; a key
between non-adjacent users is forwarded hop by hop, one-time-pad wrapped
with each link's key, so every interior relay transiently holds enough to
reconstruct it. That is exactly what the compromise accounting charges.
End users without a quantum path can fall back to a post-quantum
establishment (modeled by a deterministic test double), and the hybrid
policy XORs one key of each kind so that either ingredient alone keeps
the result secret.
"""
from __future__ import annotations

import bisect
import enum
import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bits import bits_from_bytes, derive_seed, random_bits, xor_bits
from .keys import KeyMaterial, KeyReuseError, KeyStage


class TopologyError(Exception):
    """Malformed topology description."""


class NetworkRequestError(Exception):
    """A key request between two nodes cannot be served."""


class UnknownNodeError(NetworkRequestError):
    pass


class NoPathError(NetworkRequestError):
    pass


class BudgetExceededError(NetworkRequestError):
    pass


class UntrustedInteriorError(NetworkRequestError):
    pass


class PolicyUnsatisfiableError(NetworkRequestError):
    pass


class NodeRole(enum.Enum):
    END_USER = "end_user"
    TRUSTED_RELAY = "trusted_relay"


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class NetworkTopology:
    """Simple graph of end users and trusted relays.

    qkd_links map edges to their per-scenario key budget in bits;
    pqc_links are classical edges with post-quantum capability. Links are
    added only through add_qkd_link/add_pqc_link, which also keep every
    node's neighbors of each link kind in sorted order.
    """

    nodes: dict[str, NodeRole] = field(default_factory=dict)
    qkd_links: dict[tuple[str, str], int] = field(default_factory=dict, init=False)
    pqc_links: set[tuple[str, str]] = field(default_factory=set, init=False)
    _qkd_adjacency: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False)
    _pqc_adjacency: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False)

    def add_node(self, name: str, role: NodeRole) -> None:
        if name in self.nodes:
            raise TopologyError(f"duplicate node {name!r}")
        self.nodes[name] = role

    def add_qkd_link(self, a: str, b: str, budget: int) -> None:
        self._check_endpoints(a, b)
        edge = _edge(a, b)
        if edge in self.qkd_links:
            raise TopologyError(f"duplicate qkd link {a}-{b}")
        if budget < 0:
            raise TopologyError("link budget must be non-negative")
        self.qkd_links[edge] = budget
        _connect(self._qkd_adjacency, a, b)

    def add_pqc_link(self, a: str, b: str) -> None:
        self._check_endpoints(a, b)
        edge = _edge(a, b)
        if edge in self.pqc_links:
            raise TopologyError(f"duplicate pqc link {a}-{b}")
        self.pqc_links.add(edge)
        _connect(self._pqc_adjacency, a, b)

    def _check_endpoints(self, a: str, b: str) -> None:
        if a == b:
            raise TopologyError(f"link endpoints must be distinct, got {a}-{b}")
        for name in (a, b):
            if name not in self.nodes:
                raise TopologyError(f"link references unknown node {name!r}")

    def require_node(self, name: str) -> None:
        if name not in self.nodes:
            raise UnknownNodeError(f"unknown node {name!r}")

    def qkd_neighbors(self, node: str) -> list[str]:
        """The stored sorted neighbor list; callers must not modify it."""
        return self._qkd_adjacency.get(node, [])

    def pqc_neighbors(self, node: str) -> list[str]:
        """The stored sorted neighbor list; callers must not modify it."""
        return self._pqc_adjacency.get(node, [])


def _connect(adjacency: dict[str, list[str]], a: str, b: str) -> None:
    for node, neighbor in ((a, b), (b, a)):
        bisect.insort(adjacency.setdefault(node, []), neighbor)


def preshared_pairs_count(n: int) -> int:
    """Symmetric key pairs needed for pairwise pre-sharing among n nodes."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    return n * (n - 1) // 2


def parse_topology(text: str) -> NetworkTopology:
    """Parse the line-oriented topology format.

    Records: `node <id> <end_user|trusted_relay>`,
    `link <a> <b> qkd <budget_bits>`, `link <a> <b> pqc`.
    Blank lines and `#` comments are ignored.
    """
    topo = NetworkTopology()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "node" and len(fields) == 3:
                topo.add_node(fields[1], NodeRole(fields[2]))
            elif fields[0] == "link" and len(fields) == 5 and fields[3] == "qkd":
                topo.add_qkd_link(fields[1], fields[2], int(fields[4]))
            elif fields[0] == "link" and len(fields) == 4 and fields[3] == "pqc":
                topo.add_pqc_link(fields[1], fields[2])
            else:
                raise TopologyError(f"unrecognized record {line!r}")
        except (TopologyError, ValueError) as exc:
            raise TopologyError(f"line {lineno}: {exc}") from exc
    return topo


def format_topology(topo: NetworkTopology) -> str:
    lines = [f"node {name} {role.value}" for name, role in sorted(topo.nodes.items())]
    lines += [f"link {a} {b} qkd {budget}" for (a, b), budget in sorted(topo.qkd_links.items())]
    lines += [f"link {a} {b} pqc" for (a, b) in sorted(topo.pqc_links)]
    return "\n".join(lines) + "\n"


def _hops_from(neighbors: Callable[[str], list[str]], start: str) -> dict[str, int]:
    """Breadth-first hop counts from start to every node it reaches."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def shortest_qkd_path(topo: NetworkTopology, src: str, dst: str) -> list[str]:
    """Shortest path by hop count; ties broken by smallest node identifier.

    Implemented as a BFS distance pass from dst followed by a greedy walk
    from src that always steps to the smallest neighbor on a shortest path.
    """
    topo.require_node(src)
    topo.require_node(dst)
    if src == dst:
        raise NoPathError("source and destination coincide")
    dist = _hops_from(topo.qkd_neighbors, dst)
    if src not in dist:
        raise NoPathError(f"no qkd path from {src} to {dst}")
    path = [src]
    cur = src
    while cur != dst:
        cur = next(n for n in topo.qkd_neighbors(cur) if dist.get(n, -1) == dist[cur] - 1)
        path.append(cur)
    return path


def pqc_route_exists(topo: NetworkTopology, src: str, dst: str) -> bool:
    topo.require_node(src)
    topo.require_node(dst)
    return dst in _hops_from(topo.pqc_neighbors, src)


class HybridPolicy(enum.Enum):
    QKD_ONLY = "qkd_only"
    PQC_ONLY = "pqc_only"
    HYBRID_XOR = "hybrid_xor"


class Provenance(enum.Enum):
    QKD_DIRECT = "qkd_direct"
    QKD_RELAYED = "qkd_relayed"
    PQC = "pqc"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class HopRecord:
    """Public transcript of one relay hop: which link, and the wrapped key."""

    link: tuple[str, str]
    ciphertext: np.ndarray


@dataclass
class KeyRecord:
    key_id: int
    src: str
    dst: str
    bits: np.ndarray
    provenance: Provenance
    path: list[str] = field(default_factory=list)
    hops: list[HopRecord] = field(default_factory=list)
    components: list[int] = field(default_factory=list)
    pqc_counter: int | None = None
    consumed: bool = False

    def take(self) -> KeyMaterial:
        """Hand the key to a consumer exactly once."""
        if self.consumed:
            raise KeyReuseError(f"key {self.key_id} has already been handed out")
        self.consumed = True
        return KeyMaterial(self.bits.copy(), KeyStage.FINAL)


@dataclass(frozen=True)
class PqcDouble:
    """Deterministic stand-in for a post-quantum establishment primitive.

    Derives pairwise keys from an out-of-band secret; `adversary_knows`
    marks the whole PQC layer as broken for compromise accounting.
    """

    secret: bytes = b"pqc-out-of-band"
    adversary_knows: bool = False

    def derive(self, src: str, dst: str, key_len: int, counter: int) -> np.ndarray:
        a, b = _edge(src, dst)
        stream = bytearray()
        block = 0
        while 8 * len(stream) < key_len:
            material = f"{a}|{b}|{counter}|{block}".encode() + self.secret
            stream += hashlib.sha256(material).digest()
            block += 1
        return bits_from_bytes(bytes(stream), key_len)


class NetworkState:
    """Mutable scenario state: budgets, established keys, relay transcripts."""

    def __init__(
        self,
        topology: NetworkTopology,
        master_seed: int = 0,
        pqc: PqcDouble | None = None,
    ):
        self.topology = topology
        self.master_seed = master_seed
        self.pqc = pqc or PqcDouble()
        self.remaining_budget = dict(topology.qkd_links)
        self.keystore: dict[int, KeyRecord] = {}
        # link keys each node physically held, per session: (key_id, edge, bits)
        self.node_material: dict[str, list[tuple[int, tuple[str, str], np.ndarray]]] = {
            name: [] for name in topology.nodes
        }
        self._next_key_id = 0
        self._pqc_counter = 0
        self._link_draws: dict[tuple[str, str], int] = {}
        self._end_key_rng = np.random.default_rng(derive_seed(master_seed, "relay-end-keys"))

    def _new_key_id(self) -> int:
        self._next_key_id += 1
        return self._next_key_id

    def _draw_link_key(self, edge: tuple[str, str], key_len: int) -> np.ndarray:
        # the caller has checked every edge's budget before the first draw
        draw = self._link_draws.get(edge, 0)
        self._link_draws[edge] = draw + 1
        rng = np.random.default_rng(derive_seed(self.master_seed, "link", edge[0], edge[1], draw))
        self.remaining_budget[edge] -= key_len
        return random_bits(key_len, rng)


def establish_path_key(state: NetworkState, src: str, dst: str, key_len: int) -> KeyRecord:
    """Create a shared key between src and dst over the quantum-link graph.

    A direct link hands over its own key material; otherwise the end key is
    forwarded hop by hop, XOR-wrapped with each link key, through interior
    nodes that must all be trusted relays. Budgets are charged per hop and
    the wrapped transcripts are retained for compromise accounting.
    """
    if key_len < 1:
        raise ValueError("key_len must be positive")
    path = shortest_qkd_path(state.topology, src, dst)
    for interior in path[1:-1]:
        if state.topology.nodes[interior] is not NodeRole.TRUSTED_RELAY:
            raise UntrustedInteriorError(f"node {interior!r} on path {path} is not a trusted relay")
    edges = [_edge(a, b) for a, b in zip(path, path[1:])]
    for edge in edges:
        if state.remaining_budget.get(edge, 0) < key_len:
            raise BudgetExceededError(
                f"link {edge[0]}-{edge[1]} has {state.remaining_budget.get(edge, 0)} bits left, "
                f"{key_len} needed"
            )

    record = KeyRecord(
        key_id=state._new_key_id(),
        src=src,
        dst=dst,
        bits=np.zeros(0, dtype=np.uint8),
        provenance=Provenance.QKD_DIRECT if len(edges) == 1 else Provenance.QKD_RELAYED,
        path=path,
    )
    if len(edges) == 1:
        record.bits = state._draw_link_key(edges[0], key_len)
        for endpoint in edges[0]:
            state.node_material[endpoint].append((record.key_id, edges[0], record.bits))
    else:
        end_key = random_bits(key_len, state._end_key_rng)
        record.bits = end_key
        for edge in edges:
            link_key = state._draw_link_key(edge, key_len)
            ciphertext = xor_bits(end_key, link_key)
            record.hops.append(HopRecord(link=edge, ciphertext=ciphertext))
            for endpoint in edge:
                state.node_material[endpoint].append((record.key_id, edge, link_key))
    state.keystore[record.key_id] = record
    return record


def establish_pqc_key(state: NetworkState, src: str, dst: str, key_len: int) -> KeyRecord:
    """Post-quantum pairwise key over the classical PQC-capable subgraph."""
    if key_len < 1:
        raise ValueError("key_len must be positive")
    if not pqc_route_exists(state.topology, src, dst):
        raise PolicyUnsatisfiableError(f"no pqc route from {src} to {dst}")
    if src == dst:
        raise NoPathError("source and destination coincide")
    state._pqc_counter += 1
    record = KeyRecord(
        key_id=state._new_key_id(),
        src=src,
        dst=dst,
        bits=state.pqc.derive(src, dst, key_len, state._pqc_counter),
        provenance=Provenance.PQC,
        path=[src, dst],
        pqc_counter=state._pqc_counter,
    )
    state.keystore[record.key_id] = record
    return record


def hybrid_establish(
    state: NetworkState, src: str, dst: str, policy: HybridPolicy, key_len: int
) -> KeyRecord:
    """Establish a key under the given policy.

    HYBRID_XOR combines one quantum-path key and one post-quantum key, so
    an adversary holding exactly one ingredient learns nothing about the
    result.
    """
    if policy is HybridPolicy.QKD_ONLY:
        return establish_path_key(state, src, dst, key_len)
    if policy is HybridPolicy.PQC_ONLY:
        return establish_pqc_key(state, src, dst, key_len)
    # Check the PQC route first, so a refused request charges no link budget.
    if not pqc_route_exists(state.topology, src, dst):
        raise PolicyUnsatisfiableError(f"no pqc route from {src} to {dst}")
    qkd_part = establish_path_key(state, src, dst, key_len)
    pqc_part = establish_pqc_key(state, src, dst, key_len)
    record = KeyRecord(
        key_id=state._new_key_id(),
        src=src,
        dst=dst,
        bits=xor_bits(qkd_part.bits, pqc_part.bits),
        provenance=Provenance.HYBRID,
        path=qkd_part.path,
        components=[qkd_part.key_id, pqc_part.key_id],
    )
    state.keystore[record.key_id] = record
    return record


def compromise_node(state: NetworkState, node: str) -> set[int]:
    """Key ids exposed when a node is fully compromised.

    Endpoint keys are always lost. Relayed keys are lost when the node sat
    on the relay path, since it transiently held the unwrapped key. A
    hybrid key falls only when every ingredient falls (or the node is an
    endpoint); a broken PQC layer exposes all PQC-provenance keys.
    """
    state.topology.require_node(node)
    exposed: set[int] = set()
    for record in state.keystore.values():
        if record.provenance is Provenance.HYBRID:
            continue
        if node in (record.src, record.dst):
            exposed.add(record.key_id)
        elif record.provenance is Provenance.QKD_RELAYED and node in record.path:
            exposed.add(record.key_id)
        elif record.provenance is Provenance.PQC and state.pqc.adversary_knows:
            exposed.add(record.key_id)
    for record in state.keystore.values():
        if record.provenance is not Provenance.HYBRID:
            continue
        if node in (record.src, record.dst):
            exposed.add(record.key_id)
        elif record.components and all(c in exposed for c in record.components):
            exposed.add(record.key_id)
    return exposed
