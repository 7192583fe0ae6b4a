"""Attack-group clustering tests: merge rules over shared transaction,
lookalike, and attacker keys, copy-bot exclusion by attack ratio, group
statistics, temporal stability, and cross-chain address reuse."""

from __future__ import annotations

import hashlib
import random
from functools import partial

import pytest

from poisonscan.clustering import (
    AccountProfile,
    AttackGroup,
    AttackTransferSet,
    account_profiles,
    attack_ratio,
    build_transfer_sets,
    cluster,
    cross_chain_reuse,
    groups_to_csv,
    rand_index,
    temporal_clusters,
)
from poisonscan.core import (
    ChainConfig,
    ClusteringError,
    ConfigError,
    Label,
    ParseError,
    TransactionRecord,
)
from poisonscan.ingest import load_account_history
from poisonscan.detector import birthday_filter, scan
from poisonscan.scenario import BotSpec, GroupSpec, ScenarioSpec, generate

from reference import reference_components
from helpers import (
    FAKE,
    GENESIS,
    R1,
    R2,
    STABLE,
    V1,
    V2,
    StreamBuilder,
    lookalike,
    make_prices,
    make_registry,
    rich_spec,
)


def ts(i, tx, look, attacker, **kw):
    fields = dict(
        transfer_id=f"t{i}",
        chain_id=1,
        block_number=100,
        timestamp=GENESIS + 100 * 12,
        tx_hash=tx,
        lookalike=look,
        attacker=attacker,
        victim="0xv1",
        intended="0xr1",
        label=Label.ZERO,
    )
    fields.update(kw)
    return AttackTransferSet(**fields)


def content_id(member_ids):
    return hashlib.sha256("\n".join(sorted(member_ids)).encode("utf-8")).hexdigest()[:16]


def partition(groups):
    return frozenset(frozenset(g.members) for g in groups)


# ---------------------------------------------------------------------------
# merge rules


def test_merge_by_shared_keys():
    sets = [
        ts(1, "0xt1", "0xl1", "0xa1"),
        ts(2, "0xt1", "0xl2", "0xa2"),
        ts(3, "0xt3", "0xl1", "0xa3"),
        ts(4, "0xt4", "0xl4", "0xa3"),
    ]
    groups = cluster(sets)
    assert len(groups) == 1
    assert groups[0].members == ("t1", "t2", "t3", "t4")


def test_contracts_and_tokens_never_merge():
    sets = [
        ts(1, "0xt1", "0xl1", "0xa1", counterfeit_token="0xc", attack_contract="0xk"),
        ts(2, "0xt2", "0xl2", "0xa2", counterfeit_token="0xc", attack_contract="0xk"),
    ]
    groups = cluster(sets)
    assert partition(groups) == frozenset({frozenset({"t1"}), frozenset({"t2"})})


def test_key_namespaces_do_not_collide():
    sets = [
        ts(1, "0xsame", "0xl1", "0xa1"),
        ts(2, "0xt2", "0xsame", "0xa2"),
        ts(3, "0xt3", "0xl3", "0xsame"),
    ]
    assert len(cluster(sets)) == 3


def test_bot_bridge_threshold():
    sets = [
        ts(1, "0xta", "0xl1", "0xa1"),
        ts(2, "0xtb", "0xl2", "0xa2"),
        ts(3, "0xtc", "0xl1", "0xbot"),
        ts(4, "0xtd", "0xl2", "0xbot"),
    ]
    ratios = {"0xbot": 0.125}
    at_half = cluster(sets, 0.5, ratios=ratios)
    assert partition(at_half) == frozenset({frozenset({"t1"}), frozenset({"t2"})})
    at_zero = cluster(sets, 0.0, ratios=ratios)
    assert len(at_zero) == 1
    assert at_zero[0].members == ("t1", "t2", "t3", "t4")
    # ratio equal to the threshold is retained, only lower is excluded
    merged = cluster(sets, 0.5, ratios={"0xbot": 0.5})
    assert len(merged) == 1


def test_verified_contract_exclusion():
    sets = [
        ts(1, "0xt1", "0xl1", "0xa1", attack_contract="0xverified"),
        ts(2, "0xt2", "0xl1", "0xa2"),
        ts(3, "0xt3", "0xl9", "0xa3", counterfeit_token="0xfaketok"),
    ]
    assert len(cluster(sets)) == 2
    groups = cluster(sets, verified_contracts={"0xverified", "0xfaketok"})
    assert partition(groups) == frozenset({frozenset({"t2"})})


# ---------------------------------------------------------------------------
# attack ratio


def test_attack_ratio_arithmetic():
    sets = [
        ts(1, "0xt1", "0xl1", "0xa"),
        ts(2, "0xt1", "0xl2", "0xa"),
        ts(3, "0xt2", "0xl3", "0xa"),
        ts(4, "0xt9", "0xl4", "0xb"),
    ]
    profiles = account_profiles(sets, {"0xa": 10, "0xb": 10})
    assert profiles["0xa"] == AccountProfile("0xa", total_txs=10, poisoning_txs=2)
    assert profiles["0xa"].ratio == 0.2
    ratios = attack_ratio(sets, {"0xa": 10, "0xb": 25})
    assert ratios == {"0xa": 0.2, "0xb": 0.04}


def test_attack_ratio_spec_examples():
    sets = [ts(i, f"0xt{i}", f"0xl{i}", "0xa") for i in range(6)]
    assert attack_ratio(sets, {"0xa": 10}) == {"0xa": 0.6}
    low = [ts(i, f"0xt{i}", f"0xl{i}", "0xa") for i in range(4)]
    ratios = attack_ratio(low, {"0xa": 10})
    assert ratios == {"0xa": 0.4}
    assert len(cluster(low, 0.5, ratios=ratios)) == 0


def test_attack_ratio_defaults_and_errors():
    sets = [ts(1, "0xt1", "0xl1", "0xa"), ts(2, "0xt2", "0xl2", "0xa")]
    assert attack_ratio(sets, {}) == {"0xa": 1.0}
    assert attack_ratio(sets, None) == {"0xa": 1.0}
    with pytest.raises(ClusteringError):
        attack_ratio(sets, {"0xa": 1})


def test_account_history_feeds_ratios(tmp_path):
    addr_a, addr_b = "0x" + "0a" * 20, "0x" + "0b" * 20
    path = tmp_path / "accounts.csv"
    path.write_text(f"account,total_txs\n{addr_a},10\n{addr_b},3\n", encoding="utf-8")
    history = load_account_history(path)
    sets = [ts(1, "0xt1", "0xl1", addr_a), ts(2, "0xt2", "0xl2", addr_a)]
    assert attack_ratio(sets, history) == {addr_a: 0.2}
    bad = tmp_path / "bad.csv"
    bad.write_text(f"account,total_txs\n{addr_a},many\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_account_history(bad)


# ---------------------------------------------------------------------------
# oracle equality and invariants


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_union_find_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    sets = [
        ts(
            i,
            f"0xt{rng.randrange(70)}",
            f"0xl{rng.randrange(110)}",
            f"0xa{rng.randrange(35)}",
        )
        for i in range(200)
    ]
    groups = cluster(sets, 0.0)
    expected = reference_components(
        (s.transfer_id, [("tx", s.tx_hash), ("l", s.lookalike), ("a", s.attacker)])
        for s in sets
    )
    assert partition(groups) == expected


def test_key_disjointness_across_groups():
    rng = random.Random(44)
    sets = [
        ts(i, f"0xt{rng.randrange(50)}", f"0xl{rng.randrange(80)}", f"0xa{rng.randrange(25)}")
        for i in range(150)
    ]
    groups = cluster(sets)
    by_id = {s.transfer_id: s for s in sets}
    seen_tx, seen_l, seen_a = {}, {}, {}
    for g in groups:
        for tid in g.members:
            s = by_id[tid]
            for seen, key in ((seen_tx, s.tx_hash), (seen_l, s.lookalike), (seen_a, s.attacker)):
                assert seen.setdefault(key, g.group_id) == g.group_id


def test_threshold_monotonicity():
    rng = random.Random(7)
    sets = [
        ts(i, f"0xt{i}", f"0xl{rng.randrange(40)}", f"0xa{rng.randrange(12)}")
        for i in range(120)
    ]
    ratios = {f"0xa{i}": i / 12 for i in range(12)}
    included = []
    for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
        groups = cluster(sets, threshold, ratios=ratios)
        included.append({tid for g in groups for tid in g.members})
    for smaller, larger in zip(included[1:], included):
        assert smaller <= larger


def test_bot_neutrality():
    rng = random.Random(13)
    base = [
        ts(i, f"0xt{i}", f"0xl{rng.randrange(30)}", f"0xa{rng.randrange(8)}")
        for i in range(80)
    ]
    bots = [
        ts(1000 + i, f"0xbt{i}", f"0xl{rng.randrange(30)}", "0xbot") for i in range(15)
    ]
    ratios = {"0xbot": 0.01}
    assert partition(cluster(base, 0.5, ratios=ratios)) == partition(
        cluster(base + bots, 0.5, ratios=ratios)
    )


# ---------------------------------------------------------------------------
# group statistics


def stats_fixture():
    return [
        ts(1, "0xtx_x", "0xl1", "0xa1", block_number=100, timestamp=GENESIS + 1200),
        ts(
            2,
            "0xtx_x",
            "0xl2",
            "0xa1",
            block_number=100,
            timestamp=GENESIS + 1200,
            intended="0xr2",
            label=Label.COUNTERFEIT,
            counterfeit_token="0xct",
            attack_contract="0xac1",
        ),
        ts(
            3,
            "0xtx_y",
            "0xl1",
            "0xa2",
            block_number=250,
            timestamp=GENESIS + 3000,
            victim="0xv2",
            attack_contract="0xac2",
        ),
    ]


def test_group_statistics():
    (g,) = cluster(stats_fixture())
    assert g.group_id == content_id(["t1", "t2", "t3"])
    assert g.chain_id == 1
    assert g.members == ("t1", "t2", "t3")
    assert g.lookalikes == 2
    assert g.counterfeit_tokens == 1
    assert g.attackers == 2
    assert g.attack_contracts == 2
    assert g.intendeds == 2
    assert g.victims == 2
    assert g.transfers == 3
    assert g.transactions == 2
    assert g.first_block == 100 and g.last_block == 250
    assert g.first_timestamp == GENESIS + 1200 and g.last_timestamp == GENESIS + 3000
    assert g.ct_bytecodes is None and g.ac_bytecodes is None


def test_group_id_is_order_invariant():
    sets = stats_fixture()
    (a,) = cluster(sets)
    (b,) = cluster(list(reversed(sets)))
    assert a == b


def test_groups_sorted_by_lookalike_count():
    sets = [
        ts(1, "0xt1", "0xl1", "0xa1"),
        ts(2, "0xt2", "0xl2", "0xa1"),
        ts(3, "0xt3", "0xl3", "0xa2"),
    ]
    groups = cluster(sets)
    assert [g.lookalikes for g in groups] == [2, 1]
    assert groups[0].members == ("t1", "t2")


def test_bytecode_counts():
    code = {"0xct": "0xaa", "0xac1": "0xbb", "0xac2": "0xbb"}
    (g,) = cluster(stats_fixture(), bytecode=code)
    assert g.ct_bytecodes == 1
    assert g.ac_bytecodes == 1
    partial = {"0xac1": "0xbb"}
    (h,) = cluster(stats_fixture(), bytecode=partial)
    assert h.ac_bytecodes == 2
    assert h.ct_bytecodes == 1


def test_groups_csv_is_stable(tmp_path):
    groups = cluster(stats_fixture())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    groups_to_csv(groups, p1)
    groups_to_csv(groups, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "group,group_id,chain_id,lookalikes,counterfeit_tokens,ct_bytecodes,"
        "attackers,attack_contracts,ac_bytecodes,intendeds,victims,transfers,"
        "transactions,first_block,last_block,first_date,last_date"
    )
    assert lines[1].startswith(f"1,{content_id(['t1', 't2', 't3'])},1,2,1,,2,2,,2,2,3,2,100,250,")
    assert lines[1].endswith("2024-01-01,2024-01-01")


# ---------------------------------------------------------------------------
# rand index


def test_rand_index_values():
    truth = {"a": 1, "b": 1, "c": 2, "d": 2}
    assert rand_index(truth, dict(truth)) == 1.0
    relabeled = {"a": "x", "b": "x", "c": "y", "d": "y"}
    assert rand_index(truth, relabeled) == 1.0
    moved = {"a": 1, "b": 2, "c": 2, "d": 2}
    assert rand_index(truth, moved) == 0.5
    assert rand_index({}, {}) == 1.0
    assert rand_index({"a": 1}, {"a": 9}) == 1.0


# ---------------------------------------------------------------------------
# transfer sets from a detection report


def test_build_transfer_sets_from_report():
    l_zero = lookalike(R1, 3, 4)
    l_fake = lookalike(R1, 4, 4)
    l_tiny = lookalike(R1, 5, 5)
    l_lost = lookalike(R1, 6, 6)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(150, V1, l_zero, STABLE, 0, tx=TransactionRecord("0xinit1", STABLE))
    sb.add(151, V1, l_fake, FAKE, 999, tx=TransactionRecord("0xinit1", "0xcafe"))
    sb.add(152, l_tiny, V1, STABLE, 5_000_000, tx=TransactionRecord("0xinit2"))
    sb.add(153, V1, l_lost, STABLE, 0)
    events = sb.events()
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    assert sorted(report.counters[k] for k in ("zero_value", "counterfeit", "tiny")) == [1, 1, 2]
    sets = build_transfer_sets(report)
    assert len(sets) == 3
    by_look = {s.lookalike: s for s in sets}
    zero = by_look[l_zero]
    assert zero.label == Label.ZERO
    assert zero.attacker == "0xinit1"
    assert zero.attack_contract is None
    assert zero.counterfeit_token is None
    assert zero.victim == V1 and zero.intended == R1
    assert zero.block_number == 150 and zero.chain_id == 1
    fake = by_look[l_fake]
    assert fake.label == Label.COUNTERFEIT
    assert fake.counterfeit_token == FAKE
    assert fake.attack_contract == "0xcafe"
    tiny = by_look[l_tiny]
    assert tiny.label == Label.TINY
    assert tiny.attacker == "0xinit2"
    assert tiny.attack_contract is None
    assert l_lost not in by_look


def test_transfer_set_intended_uses_first_context():
    first = lookalike(R1, 3, 4)
    second = lookalike(first, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(101, V1, first, STABLE, 60_000_000)
    sb.add(150, V1, second, STABLE, 0, tx=TransactionRecord("0xinit"))
    report = scan(sb.events(), ChainConfig(chain_id=1), make_registry(), make_prices())
    keys = {(c.victim, c.intended, c.lookalike) for c in report.contexts}
    assert keys == {(V1, R1, second), (V1, first, second)}
    (s,) = build_transfer_sets(report)
    assert s.intended == min(R1, first)


# ---------------------------------------------------------------------------
# generated scenario: two groups bridged by bots


def bridged_spec(seed=5):
    return ScenarioSpec(
        seed=seed,
        n_blocks=700,
        benign_per_block=1,
        n_benign_users=20,
        groups=(
            GroupSpec(
                n_attacks=4,
                strategies=("zero",),
                scores=((4, 5),),
                n_attackers=1,
                payoff_rate=0.0,
            ),
            GroupSpec(
                n_attacks=4,
                strategies=("counterfeit",),
                scores=((5, 4),),
                n_attackers=1,
                payoff_rate=0.0,
            ),
        ),
        bots=(BotSpec(copies=(0, 1), n_copies=2),),
    )


def test_bridged_groups_and_rand_index():
    bundle = generate(bridged_spec())
    events = bundle.events()
    report = scan(events, bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    ratios = attack_ratio(sets, bundle.accounts[1])
    strict = cluster(sets, 0.5, ratios=ratios)
    merged = cluster(sets, 0.0, ratios=ratios)
    assert len(strict) == 2
    assert len(merged) == 1
    truth = {
        r["key"]: r["group"]
        for r in bundle.truth.rows
        if r["label"] in Label.POISONS and r["group"] is not None
    }
    pred = {tid: g.group_id for g in strict for tid in g.members}
    assert set(truth) <= set(pred) or set(pred) <= set(truth)
    assert rand_index(truth, pred) == 1.0


# ---------------------------------------------------------------------------
# temporal clustering


def temporal_stream():
    r_a, r_b = R1, R2
    l_a1, l_a2 = lookalike(r_a, 4, 5), lookalike(r_a, 5, 4)
    l_b1 = lookalike(r_b, 4, 5)
    sb = StreamBuilder()
    sb.add(100, V1, r_a, STABLE, 50_000_000)
    sb.add(110, V2, r_b, STABLE, 50_000_000)
    sb.add(150, V1, l_a1, STABLE, 0, tx=TransactionRecord("0xa1"))
    sb.add(160, V2, l_b1, STABLE, 0, tx=TransactionRecord("0xa2"))
    sb.add(190, V1, l_a1, STABLE, 0, tx=TransactionRecord("0xbot"))
    sb.add(191, V2, l_b1, STABLE, 0, tx=TransactionRecord("0xbot"))
    sb.add(195, V1, l_a2, STABLE, 0, tx=TransactionRecord("0xa1"))
    return sb.events()


def temporal_rows(events, threshold, checkpoints=(170, 300)):
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    return temporal_clusters(
        build_transfer_sets(report),
        checkpoints,
        history={"0xbot": 20},
        bot_threshold=threshold,
    )


def test_temporal_bot_emergence():
    events = temporal_stream()
    strict = temporal_rows(events, 0.5)
    by_cp = {}
    for row in strict:
        by_cp.setdefault(row["checkpoint"], []).append(row)
    assert len(by_cp[170]) == 2
    assert len(by_cp[300]) == 2
    loose = temporal_rows(events, 0.0)
    by_cp_loose = {}
    for row in loose:
        by_cp_loose.setdefault(row["checkpoint"], []).append(row)
    assert len(by_cp_loose[170]) == 2
    assert len(by_cp_loose[300]) == 1


def test_temporal_identity_links():
    events = temporal_stream()
    rows = temporal_rows(events, 0.5)
    early = {r["group_id"]: r for r in rows if r["checkpoint"] == 170}
    late = [r for r in rows if r["checkpoint"] == 300]
    assert all(r["lineage"] == r["group_id"] for r in early.values())
    grown = next(r for r in late if r["lookalikes"] == 2)
    stable = next(r for r in late if r["lookalikes"] == 1)
    assert grown["rank"] == 1
    assert grown["lineage"] in early
    assert early[grown["lineage"]]["lookalikes"] == 1
    assert stable["lineage"] in early
    assert stable["group_id"] == stable["lineage"]
    assert grown["group_id"] != grown["lineage"]


def test_temporal_single_checkpoint_is_plain_clustering():
    events = temporal_stream()
    rows = temporal_rows(events, 0.5, checkpoints=[300])
    prefix = [e for e in events if e.block_number <= 300]
    report = scan(prefix, ChainConfig(chain_id=1), make_registry(), make_prices())
    sets = build_transfer_sets(report)
    groups = cluster(sets, 0.5, ratios=attack_ratio(sets, {"0xbot": 20}))
    assert [r["group_id"] for r in rows] == [g.group_id for g in groups]
    assert [r["rank"] for r in rows] == [1, 2]


def test_temporal_checkpoints_must_increase():
    with pytest.raises(ConfigError):
        temporal_rows(temporal_stream(), 0.5, checkpoints=[300, 170])


def rescan_temporal_clusters(
    events, checkpoints, config, registry, prices, *, history=None, bot_threshold=0.5, top_k=10
):
    """The prefix-rescan form of ``temporal_clusters``: a fresh scan of the
    stream up to each checkpoint. The oracle for cutting one scan's sets."""
    stream = sorted(events, key=lambda e: (e.block_number, e.log_index))
    rows = []
    previous = ()
    for checkpoint in checkpoints:
        prefix = [e for e in stream if e.block_number <= checkpoint]
        sets = build_transfer_sets(scan(prefix, config, registry, prices))
        groups = cluster(sets, bot_threshold, ratios=attack_ratio(sets, history))
        for rank, group in enumerate(groups[:top_k], 1):
            members = set(group.members)
            lineage = group.group_id
            best = 0
            for prev in sorted(previous, key=lambda g: g.group_id):
                overlap = len(members.intersection(prev.members))
                if overlap > best:
                    best = overlap
                    lineage = prev.group_id
            rows.append(
                {
                    "checkpoint": checkpoint,
                    "rank": rank,
                    "group_id": group.group_id,
                    "lineage": lineage,
                    "lookalikes": group.lookalikes,
                    "transfers": group.transfers,
                }
            )
        previous = groups
    return tuple(rows)


def demo_bot_spec():
    """The scenario of demos/cluster_attack_groups.py."""
    return ScenarioSpec(
        seed=5,
        n_blocks=700,
        groups=(
            GroupSpec(
                n_attacks=4, n_attackers=1, strategies=("zero",), scores=((4, 5),), payoff_rate=0.0
            ),
            GroupSpec(
                n_attacks=4,
                n_attackers=1,
                strategies=("counterfeit",),
                scores=((3, 4),),
                payoff_rate=0.0,
            ),
        ),
        bots=(BotSpec(copies=(0, 1), n_copies=2),),
    )


def spread_checkpoints(sets, k):
    """Up to ``k`` checkpoints spread over the blocks of ``sets``, the last
    on the last such block; going back from it, they alternate between a
    set's block and the block just before one."""
    blocks = sorted({s.block_number for s in sets})
    return sorted({blocks[(len(blocks) - 1) * i // k] - (k - i) % 2 for i in range(1, k + 1)})


@pytest.mark.parametrize(
    "make_spec, chain_id",
    [pytest.param(partial(rich_spec, seed), 1, id=f"rich_spec{seed}") for seed in range(12)]
    + [
        pytest.param(demo_bot_spec, 1, id="demo"),
        pytest.param(lambda: cross_spec(), 56, id="cross_spec-56"),
    ],
)
def test_temporal_cut_matches_prefix_rescan(make_spec, chain_id):
    bundle = generate(make_spec())
    events = bundle.events(chain_id)
    config = bundle.configs[chain_id]
    accounts = bundle.accounts[chain_id]
    plain = scan(events, config, bundle.registry, bundle.prices)
    full = birthday_filter(
        scan(events, config, bundle.registry, bundle.prices, history=events), config
    )
    for k in (1, 2, 5, 10):
        checkpoints = spread_checkpoints(build_transfer_sets(plain), k)
        for threshold in (0.5, 0.0):
            for top_k in (10, 2):
                want = rescan_temporal_clusters(
                    events,
                    checkpoints,
                    config,
                    bundle.registry,
                    bundle.prices,
                    history=accounts,
                    bot_threshold=threshold,
                    top_k=top_k,
                )
                assert want
                for report in (plain, full):
                    rows = temporal_clusters(
                        build_transfer_sets(report),
                        checkpoints,
                        history=accounts,
                        bot_threshold=threshold,
                    )
                    assert tuple(r for r in rows if r["rank"] <= top_k) == want


def test_temporal_checkpoint_before_first_set_and_set_order():
    bundle = generate(rich_spec(7))
    events = bundle.events()
    report = scan(events, bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    history = bundle.accounts[1]
    first = min(s.block_number for s in sets)
    assert temporal_clusters(sets, [first - 1], history=history) == ()
    checkpoints = [first - 1, *spread_checkpoints(sets, 5)]
    rows = temporal_clusters(sets, checkpoints, history=history)
    assert rows and rows[0]["checkpoint"] > first - 1
    assert temporal_clusters(sets[::-1], checkpoints, history=history) == rows


# ---------------------------------------------------------------------------
# cross-chain reuse


def test_cross_chain_reuse_hand_fixture():
    c1 = [
        ts(1, "0xt1", "0xl1", "0xa1", victim="0xv1"),
        ts(2, "0xt2", "0xl2", "0xa1", victim="0xv2"),
    ]
    c2 = [
        ts(11, "0xu1", "0xl1", "0xb1", victim="0xv3", chain_id=56),
        ts(12, "0xu2", "0xl9", "0xb1", victim="0xv2", chain_id=56),
    ]
    g1 = cluster(c1)
    g2 = cluster(c2)
    rows = cross_chain_reuse({1: (c1, g1), 56: (c2, g2)})
    assert len(rows) == 2
    first, second = rows
    assert first == {
        "chain_id": 1,
        "group": 1,
        "group_id": g1[0].group_id,
        "other_chain": 56,
        "shared_lookalikes": 1,
        "shared_victims": 1,
    }
    assert second["chain_id"] == 56 and second["other_chain"] == 1
    assert second["shared_lookalikes"] == 1 and second["shared_victims"] == 1


def test_cross_chain_reuse_disjoint():
    c1 = [ts(1, "0xt1", "0xl1", "0xa1")]
    c2 = [ts(2, "0xt2", "0xl2", "0xa2", chain_id=56, victim="0xother")]
    rows = cross_chain_reuse({1: (c1, cluster(c1)), 56: (c2, cluster(c2))})
    assert all(r["shared_lookalikes"] == 0 and r["shared_victims"] == 0 for r in rows)


def cross_spec(seed=9):
    return ScenarioSpec(
        seed=seed,
        n_blocks=700,
        benign_per_block=1,
        n_benign_users=20,
        chain_ids=(1, 56),
        groups=(
            GroupSpec(
                n_attacks=4,
                strategies=("zero",),
                scores=((4, 5),),
                n_attackers=1,
                payoff_rate=0.5,
            ),
        ),
        cross_chain_reuse=2,
    )


def test_cross_chain_reuse_generated():
    bundle = generate(cross_spec())
    per_chain = {}
    for chain_id in (1, 56):
        report = scan(
            bundle.events(chain_id),
            bundle.configs[chain_id],
            bundle.registry,
            bundle.prices,
        )
        sets = build_transfer_sets(report)
        groups = cluster(sets, 0.5, ratios=attack_ratio(sets, bundle.accounts[chain_id]))
        per_chain[chain_id] = (sets, groups)
    assert len(per_chain[1][1]) == 1
    assert len(per_chain[56][1]) == 1
    rows = cross_chain_reuse(per_chain)
    for row in rows:
        assert row["shared_lookalikes"] == 2
        assert row["shared_victims"] == 2
