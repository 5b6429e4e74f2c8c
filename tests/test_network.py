import numpy as np
import pytest
from scipy.stats import binomtest

from oracles import random_topology, replay_exposed
from qkdkit.network import (
    BudgetExceededError,
    HybridPolicy,
    NetworkRequestError,
    NetworkState,
    NetworkTopology,
    NoPathError,
    NodeRole,
    PolicyUnsatisfiableError,
    PqcDouble,
    Provenance,
    TopologyError,
    UnknownNodeError,
    UntrustedInteriorError,
    compromise_node,
    establish_path_key,
    establish_pqc_key,
    format_topology,
    hybrid_establish,
    parse_topology,
    pqc_route_exists,
    preshared_pairs_count,
    shortest_qkd_path,
)

LINE_TOPOLOGY = """
node A end_user
node R1 trusted_relay
node R2 trusted_relay
node B end_user
link A R1 qkd 4096
link R1 R2 qkd 4096
link R2 B qkd 4096
link A B pqc
"""


def test_preshared_pairs_formula():
    assert preshared_pairs_count(2) == 1
    assert preshared_pairs_count(4) == 6
    assert preshared_pairs_count(10) == 45
    with pytest.raises(ValueError):
        preshared_pairs_count(0)


def test_topology_parse_format_roundtrip():
    topo = parse_topology(LINE_TOPOLOGY)
    assert topo.nodes["R1"] is NodeRole.TRUSTED_RELAY
    assert topo.qkd_links[("A", "R1")] == 4096
    assert ("A", "B") in topo.pqc_links
    assert parse_topology(format_topology(topo)).nodes == topo.nodes


def test_topology_errors_carry_line_numbers():
    with pytest.raises(TopologyError, match="line 2"):
        parse_topology("node A end_user\nnode A end_user")
    with pytest.raises(TopologyError, match="line 1"):
        parse_topology("link A B qkd 10")
    with pytest.raises(TopologyError, match="line 3"):
        parse_topology("node A end_user\nnode B end_user\nlink A B whatever")


def test_direct_link_key_equals_link_material():
    topo = parse_topology("node A end_user\nnode B end_user\nlink A B qkd 1024")
    state = NetworkState(topo, master_seed=60)
    record = establish_path_key(state, "A", "B", 128)
    assert record.provenance is Provenance.QKD_DIRECT and record.path == ["A", "B"]
    stored = [bits for kid, edge, bits in state.node_material["A"] if kid == record.key_id]
    assert np.array_equal(stored[0], record.bits)
    assert state.remaining_budget[("A", "B")] == 1024 - 128


def test_two_hop_relay_reconstruction():
    topo = parse_topology(LINE_TOPOLOGY)
    state = NetworkState(topo, master_seed=61)
    record = establish_path_key(state, "A", "B", 256)
    assert record.path == ["A", "R1", "R2", "B"]
    assert len(record.hops) == 3
    # replay the transcript with each relay's stored material
    for relay in ("R1", "R2"):
        assert record.key_id in replay_exposed(state, relay)


def test_untrusted_interior_is_rejected():
    topo = parse_topology(
        "node A end_user\nnode E end_user\nnode B end_user\n"
        "link A E qkd 512\nlink E B qkd 512"
    )
    with pytest.raises(UntrustedInteriorError):
        establish_path_key(NetworkState(topo), "A", "B", 64)


def test_no_path_and_unknown_node_errors():
    topo = parse_topology("node A end_user\nnode B end_user")
    with pytest.raises(NoPathError):
        establish_path_key(NetworkState(topo), "A", "B", 64)
    with pytest.raises(UnknownNodeError):
        shortest_qkd_path(topo, "A", "nope")


def test_budget_is_conserved_and_enforced():
    topo = parse_topology("node A end_user\nnode B end_user\nlink A B qkd 300")
    state = NetworkState(topo, master_seed=62)
    establish_path_key(state, "A", "B", 200)
    with pytest.raises(BudgetExceededError):
        establish_path_key(state, "A", "B", 200)
    assert state.remaining_budget[("A", "B")] == 100
    establish_path_key(state, "A", "B", 100)
    assert state.remaining_budget[("A", "B")] == 0


def test_shortest_path_prefers_smallest_identifier():
    topo = NetworkTopology()
    for name, role in (
        ("A", NodeRole.END_USER),
        ("M", NodeRole.TRUSTED_RELAY),
        ("N", NodeRole.TRUSTED_RELAY),
        ("B", NodeRole.END_USER),
    ):
        topo.add_node(name, role)
    topo.add_qkd_link("A", "M", 1024)
    topo.add_qkd_link("M", "B", 1024)
    topo.add_qkd_link("A", "N", 1024)
    topo.add_qkd_link("N", "B", 1024)
    assert shortest_qkd_path(topo, "A", "B") == ["A", "M", "B"]


def test_neighbors_are_sorted_whatever_the_link_order():
    topo = NetworkTopology()
    for name in ("A", "M", "N", "B", "C"):
        topo.add_node(name, NodeRole.TRUSTED_RELAY)
    # links added in reverse identifier order
    topo.add_qkd_link("N", "B", 1024)
    topo.add_qkd_link("A", "N", 1024)
    topo.add_qkd_link("M", "B", 1024)
    topo.add_qkd_link("A", "M", 1024)
    topo.add_pqc_link("C", "B")
    topo.add_pqc_link("B", "A")
    assert topo.qkd_neighbors("A") == ["M", "N"] and topo.qkd_neighbors("B") == ["M", "N"]
    assert topo.pqc_neighbors("B") == ["A", "C"] and topo.pqc_neighbors("M") == []
    assert shortest_qkd_path(topo, "A", "B") == ["A", "M", "B"]
    assert shortest_qkd_path(topo, "B", "A") == ["B", "M", "A"]
    assert pqc_route_exists(topo, "A", "C") and pqc_route_exists(topo, "M", "M")
    assert not pqc_route_exists(topo, "A", "M")


def test_hybrid_xor_key_lengths_and_composition():
    topo = parse_topology(LINE_TOPOLOGY)
    state = NetworkState(topo, master_seed=63)
    record = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 128)
    assert record.bits.size == 128 and record.provenance is Provenance.HYBRID
    q, p = (state.keystore[c] for c in record.components)
    assert np.array_equal(record.bits, np.bitwise_xor(q.bits, p.bits))


def test_qkd_only_on_disconnected_graph_errors():
    topo = parse_topology("node A end_user\nnode B end_user\nlink A B pqc")
    with pytest.raises(NoPathError):
        hybrid_establish(NetworkState(topo), "A", "B", HybridPolicy.QKD_ONLY, 64)
    with pytest.raises(PolicyUnsatisfiableError):
        establish_pqc_key(
            NetworkState(parse_topology("node A end_user\nnode B end_user")), "A", "B", 64
        )


def test_failed_hybrid_request_leaves_no_state_behind():
    # a QKD path exists but no PQC route: nothing may be charged, stored or exposed
    topo = parse_topology("node A end_user\nnode B end_user\nlink A B qkd 100")
    state = NetworkState(topo, master_seed=70)
    with pytest.raises(PolicyUnsatisfiableError):
        hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 64)
    assert state.remaining_budget[("A", "B")] == 100
    assert state.keystore == {}
    assert compromise_node(state, "A") == set()


def test_compromise_of_uninvolved_leaf():
    topo = parse_topology(LINE_TOPOLOGY + "node C end_user\nlink C R1 qkd 512\n")
    state = NetworkState(topo, master_seed=64)
    ab = establish_path_key(state, "A", "B", 64)
    assert compromise_node(state, "C") == set()
    c_key = establish_path_key(state, "C", "R1", 64)
    assert compromise_node(state, "C") == {c_key.key_id}
    assert ab.key_id in compromise_node(state, "R1")


def test_hybrid_survives_relay_compromise():
    topo = parse_topology(LINE_TOPOLOGY)
    state = NetworkState(topo, master_seed=65)
    hybrid = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 128)
    for relay in ("R1", "R2"):
        exposed = compromise_node(state, relay)
        assert hybrid.key_id not in exposed
        assert hybrid.components[0] in exposed  # the relayed ingredient is lost
        assert replay_exposed(state, relay) == exposed
    # ... but endpoint compromise exposes it
    assert hybrid.key_id in compromise_node(state, "A")


def test_hybrid_falls_when_both_ingredients_fall():
    topo = parse_topology(LINE_TOPOLOGY)
    state = NetworkState(topo, master_seed=66, pqc=PqcDouble(adversary_knows=True))
    hybrid = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 128)
    exposed = compromise_node(state, "R1")
    assert hybrid.key_id in exposed
    assert replay_exposed(state, "R1") == exposed


def test_exposure_matches_replay_on_random_small_topologies():
    rng = np.random.default_rng(67)
    checked = 0
    for trial in range(40):
        topo = random_topology(rng)
        state = NetworkState(
            topo, master_seed=trial, pqc=PqcDouble(adversary_knows=bool(rng.random() < 0.3))
        )
        names = sorted(topo.nodes)
        for _ in range(6):
            src, dst = rng.choice(names, size=2, replace=False).tolist()
            policy = [HybridPolicy.QKD_ONLY, HybridPolicy.PQC_ONLY, HybridPolicy.HYBRID_XOR][
                int(rng.integers(0, 3))
            ]
            try:
                hybrid_establish(state, src, dst, policy, int(rng.integers(16, 64)))
            except (NoPathError, UntrustedInteriorError, BudgetExceededError, PolicyUnsatisfiableError):
                continue
        for node in names:
            assert compromise_node(state, node) == replay_exposed(state, node)
            checked += 1
        # budget conservation: consumption never overdraws any link
        for edge, remaining in state.remaining_budget.items():
            assert 0 <= remaining <= topo.qkd_links[edge]
    assert checked > 50


def test_hybrid_adversary_view_is_uniform():
    # adversary knows the post-quantum ingredient; agreement between the
    # final key and that ingredient must look like coin flips
    topo = parse_topology(LINE_TOPOLOGY)
    agree = 0
    total = 0
    for trial in range(1000):
        state = NetworkState(topo, master_seed=trial, pqc=PqcDouble(adversary_knows=True))
        record = hybrid_establish(state, "A", "B", HybridPolicy.HYBRID_XOR, 32)
        pqc_bits = state.keystore[record.components[1]].bits
        agree += int(np.count_nonzero(record.bits == pqc_bits))
        total += 32
    assert binomtest(agree, total, 0.5).pvalue > 1e-3


def test_established_keys_are_one_time():
    from qkdkit.keys import KeyReuseError, KeyStage

    topo = parse_topology("node A end_user\nnode B end_user\nlink A B qkd 1024")
    state = NetworkState(topo, master_seed=75)
    record = establish_path_key(state, "A", "B", 64)
    material = record.take()
    assert material.stage is KeyStage.FINAL and material.length == 64
    with pytest.raises(KeyReuseError):
        record.take()


def test_links_enter_only_through_add_link():
    with pytest.raises(TypeError):
        NetworkTopology(qkd_links={("A", "B"): 1})
    with pytest.raises(TypeError):
        NetworkTopology(pqc_links={("A", "B")})


def test_request_failures_share_one_type():
    # scenario.run_network turns any of them into one configuration error
    for kind in (UnknownNodeError, NoPathError, BudgetExceededError,
                 UntrustedInteriorError, PolicyUnsatisfiableError):
        assert issubclass(kind, NetworkRequestError)
