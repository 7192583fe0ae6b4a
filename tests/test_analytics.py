"""Economics, competition, targeting, and similarity-summary tests.

Covers per-group revenue/cost/profit identities, the win-loss matrix and
its complementarity, winner ranking by similarity and timing, rank
correlations between victim activity and attacks received, and the
most-imitated-recipient table."""

from __future__ import annotations

import random
from dataclasses import replace
from datetime import date, timedelta
from decimal import Decimal

import pytest
import scipy.stats

from poisonscan.analytics import (
    build_competitions,
    group_economics,
    most_imitated_targets,
    similarity_distribution,
    spearman,
    success_ranks,
    targeting_correlation,
    win_loss_matrix,
)
from poisonscan.clustering import attack_ratio, build_transfer_sets, cluster
from poisonscan.core import (
    AnalyticsError,
    ChainConfig,
    Label,
    PriceTable,
    TransactionRecord,
)
from poisonscan.detector import scan
from poisonscan.scenario import GroupSpec, ScenarioSpec, generate
from poisonscan.similarity import score

from helpers import (
    AUTH,
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
from reference import reference_competitions, reference_win_loss

R3 = "0x7c6d5e4f30219384756647382910aabbccddeeff"
R4 = "0x3d2c1b0a9988776655443322110fedcba9876543"
V3 = "0x" + "03" * 20
V4 = "0x" + "04" * 20

GAS = 100_000


def native_prices(days: int = 30) -> PriceTable:
    start = date(2024, 1, 1)
    table = {}
    for i in range(days):
        day = start + timedelta(days=i)
        table[(STABLE, day)] = Decimal("1")
        table[("ETH", day)] = Decimal("2")
    return PriceTable(table)


def tx(initiator, target=None, gas_price=None):
    gas_used = GAS if gas_price is not None else None
    return TransactionRecord(initiator, target, gas_used, gas_price)


def run_pipeline(sb, prices):
    report = scan(sb.events(), ChainConfig(chain_id=1), make_registry(), prices)
    sets = build_transfer_sets(report)
    groups = cluster(sets, 0.5, ratios=attack_ratio(sets, None))
    return report, sets, groups


# ---------------------------------------------------------------------------
# spearman


def test_spearman_fixture_exact():
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == 0.6


def test_spearman_monotone_and_antitone():
    assert spearman([1, 5, 9], [2, 3, 11]) == 1.0
    assert spearman([1, 5, 9], [11, 3, 2]) == -1.0


def test_spearman_bounds_and_permutation_invariance():
    rng = random.Random(17)
    xs = [rng.randrange(8) for _ in range(40)]
    ys = [rng.randrange(8) for _ in range(40)]
    rho = spearman(xs, ys)
    assert -1.0 <= rho <= 1.0
    order = list(range(40))
    rng.shuffle(order)
    assert spearman([xs[i] for i in order], [ys[i] for i in order]) == rho


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_spearman_matches_scipy_with_ties(seed):
    rng = random.Random(seed)
    xs = [rng.randrange(10) for _ in range(60)]
    ys = [rng.randrange(10) for _ in range(60)]
    expected = scipy.stats.spearmanr(xs, ys).correlation
    assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(AnalyticsError):
        spearman([1], [2])
    with pytest.raises(AnalyticsError):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(AnalyticsError):
        spearman([5, 5, 5], [1, 2, 3])


# ---------------------------------------------------------------------------
# group economics


def loss_stream():
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    # one counterfeit poison whose transaction burned half an ETH (1 USD at 2 USD/ETH)
    sb.add(
        150,
        V1,
        lookalike(R1, 4, 4),
        "0x" + "7" * 40,
        999,
        tx=tx("0xatk", "0xcafe", gas_price=5 * 10**12),
    )
    return sb


def test_economics_loss_case():
    report, sets, groups = run_pipeline(loss_stream(), native_prices())
    (econ,) = group_economics(groups, sets, report, native_prices())
    assert econ.n_success == 0
    assert econ.revenue_usd == Decimal("0")
    assert econ.cost_usd == Decimal("1")
    assert econ.profit_usd == Decimal("-1")
    assert econ.profit_sign == -1
    assert econ.quarantined == 0


def profit_stream():
    l1, l2 = lookalike(R1, 3, 4), lookalike(R2, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(101, V2, R2, STABLE, 40_000_000)
    sb.add(150, V1, l1, STABLE, 0, tx=tx("0xatk", STABLE, gas_price=10**13))
    sb.add(151, V2, l2, STABLE, 0, tx=tx("0xatk", STABLE, gas_price=10**13))
    sb.add(152, l1, V1, STABLE, 3_000_000, tx=tx("0xatk", gas_price=15 * 10**12))
    sb.add(160, V1, l1, STABLE, 100_000_000)
    sb.add(161, V2, l2, STABLE, 100_000_000)
    return sb, l1, l2


def test_economics_profit_arithmetic():
    sb, _, _ = profit_stream()
    report, sets, groups = run_pipeline(sb, native_prices())
    assert len(groups) == 1
    (econ,) = group_economics(groups, sets, report, native_prices())
    assert econ.n_success == 2
    assert econ.revenue_usd == Decimal("200")
    assert econ.cost_usd == Decimal("10")
    assert econ.profit_usd == Decimal("190")
    assert econ.profit_sign == 1
    assert econ.profit_usd == econ.revenue_usd - econ.cost_usd


def test_economics_additivity():
    sb, l1, _ = profit_stream()
    report, sets, groups = run_pipeline(sb, native_prices())
    (whole,) = group_economics(groups, sets, report, native_prices())
    half1 = [s for s in sets if s.lookalike == l1]
    half2 = [s for s in sets if s.lookalike != l1]
    (e1,) = group_economics(cluster(half1), half1, report, native_prices())
    (e2,) = group_economics(cluster(half2), half2, report, native_prices())
    assert e1.revenue_usd + e2.revenue_usd == whole.revenue_usd
    assert e1.cost_usd + e2.cost_usd == whole.cost_usd
    assert e1.profit_usd + e2.profit_usd == whole.profit_usd
    assert e1.n_success + e2.n_success == whole.n_success


def test_economics_quarantines_missing_gas():
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(150, V1, lookalike(R1, 4, 4), "0x" + "7" * 40, 1, tx=tx("0xatk", "0xcafe"))
    report, sets, groups = run_pipeline(sb, native_prices())
    (econ,) = group_economics(groups, sets, report, native_prices())
    assert econ.quarantined == 1
    assert econ.cost_usd == Decimal("0")
    assert econ.profit_sign == 0


def test_economics_quarantines_missing_native_price():
    report, sets, groups = run_pipeline(loss_stream(), native_prices())
    (econ,) = group_economics(groups, sets, report, make_prices())
    assert econ.quarantined == 1
    assert econ.cost_usd == Decimal("0")


def test_economics_quarantines_unpriced_payoff():
    # the payoff's token has no price on its day, so its USD value is not
    # known: the scan lists it as unpriced and the group quarantines it
    look = lookalike(R1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, V1, look, STABLE, 0, tx=tx("0xatk", STABLE, gas_price=10**13))
    sb.add(700, V1, look, AUTH, 3 * 10**18)
    report, sets, groups = run_pipeline(sb, native_prices())
    pay_key = sb.events()[2].key
    (payoff,) = report.payoffs
    assert payoff.key == pay_key and payoff.confirmed
    assert payoff.usd is None
    assert report.unpriced == (pay_key,)
    (econ,) = group_economics(groups, sets, report, native_prices())
    assert econ.n_success == 1
    assert econ.quarantined == 1
    assert econ.revenue_usd == Decimal("0")
    assert econ.cost_usd == Decimal("2")


@pytest.mark.parametrize("seed", [0, 7])
def test_economics_revenue_matches_payoff_scan(seed):
    # every group's revenue equals a plain walk over all payoffs in report order
    bundle = generate(rich_spec(seed))
    config = bundle.configs[1]
    report = scan(bundle.events(), config, bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    groups = cluster(sets, 0.5, ratios=attack_ratio(sets, None))
    # an unconfirmed and an unpriced payoff to a lookalike that has a group
    first = next(p for p in report.payoffs if p.confirmed)
    extra = (replace(first, confirmed=False), replace(first, usd=None))
    report = replace(report, payoffs=report.payoffs + extra)
    econ = group_economics(groups, sets, report, bundle.prices)
    by_id = {s.transfer_id: s for s in sets}
    assert sum(e.n_success for e in econ) > 0
    for group, row in zip(groups, econ):
        looks = {by_id[t].lookalike for t in group.members}
        paid = [p for p in report.payoffs if p.confirmed and p.lookalike in looks]
        assert row.n_success == len(paid)
        assert row.revenue_usd == sum((p.usd for p in paid if p.usd is not None), Decimal("0"))


# ---------------------------------------------------------------------------
# competitions


def competition_stream():
    looks = {
        "lA": lookalike(R1, 5, 4),
        "lB": lookalike(R1, 3, 4),
        "mB": lookalike(R2, 5, 5),
        "mA": lookalike(R2, 3, 4),
        "nA": lookalike(R3, 4, 4),
        "nB": lookalike(R3, 3, 5),
        "pA": lookalike(R4, 5, 4),
        "pB": lookalike(R4, 4, 5),
        "pC": lookalike(R4, 3, 4),
    }
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(101, V2, R2, STABLE, 50_000_000)
    sb.add(102, V3, R3, STABLE, 50_000_000)
    sb.add(103, V4, R4, STABLE, 50_000_000)
    plant = [
        (150, V1, "lA", "0xaaa1"),
        (155, V1, "lB", "0xbbb1"),
        (152, V2, "mB", "0xbbb1"),
        (154, V2, "mA", "0xaaa1"),
        (153, V3, "nA", "0xaaa1"),
        (156, V3, "nB", "0xbbb1"),
        (157, V4, "pA", "0xaaa1"),
        (158, V4, "pB", "0xbbb1"),
        (159, V4, "pC", "0xccc1"),
    ]
    for block, victim, name, attacker in plant:
        sb.add(block, victim, looks[name], STABLE, 0, tx=tx(attacker, STABLE, gas_price=10**13))
    sb.add(170, V1, looks["lA"], STABLE, 100_000_000)
    sb.add(180, V2, looks["mA"], STABLE, 120_000_000)
    sb.add(185, V3, looks["nB"], STABLE, 90_000_000)
    sb.add(190, V4, looks["pC"], STABLE, 80_000_000)
    return sb, looks


def competition_fixture():
    sb, looks = competition_stream()
    report, sets, groups = run_pipeline(sb, native_prices())
    records = build_competitions(report, sets, groups)
    gid_of_attacker = {}
    by_id = {s.transfer_id: s for s in sets}
    for g in groups:
        for tid in g.members:
            gid_of_attacker[by_id[tid].attacker] = g.group_id
    return report, sets, groups, records, looks, gid_of_attacker


def test_competition_records():
    _, _, _, records, looks, gid = competition_fixture()
    assert len(records) == 4
    by_victim = {r.victim: r for r in records}
    r1, r2, r3, r4 = by_victim[V1], by_victim[V2], by_victim[V3], by_victim[V4]
    assert (r1.winner, r1.similarity_rank, r1.timing_rank) == (looks["lA"], 1, 1)
    assert (r2.winner, r2.similarity_rank, r2.timing_rank) == (looks["mA"], 2, 2)
    assert (r3.winner, r3.similarity_rank, r3.timing_rank) == (looks["nB"], 1, 2)
    assert (r4.winner, r4.similarity_rank, r4.timing_rank) == (looks["pC"], 3, 3)
    assert len(r1.competitors) == 2
    assert len(r4.competitors) == 3
    comp = {c.lookalike: c for c in r4.competitors}
    assert comp[looks["pA"]].group_id == gid["0xaaa1"]
    assert comp[looks["pB"]].group_id == gid["0xbbb1"]
    assert (comp[looks["pA"]].a, comp[looks["pA"]].b) == (5, 4)
    assert comp[looks["pC"]].first_block == 159


def test_win_loss_matrix_hand_counts():
    _, _, _, records, _, gid = competition_fixture()
    a, b, c = gid["0xaaa1"], gid["0xbbb1"], gid["0xccc1"]
    matrix = win_loss_matrix(records)
    assert matrix[(a, b)] == pytest.approx(2 / 3)
    assert matrix[(b, a)] == pytest.approx(1 / 3)
    assert matrix[(c, a)] == 1.0
    assert matrix[(a, c)] == 0.0
    assert matrix[(c, b)] == 1.0
    assert matrix[(b, c)] == 0.0
    for (i, j), ratio in matrix.items():
        assert matrix[(j, i)] + ratio == pytest.approx(1.0)
        assert i != j


def two_context_stream():
    """V1 pays R1 and R1b at 100. lA resembles both, so two contexts bind
    it to V1: (R1, 5 + 4 digits), then, as R1b sorts after R1, (R1b, 3 + 4).
    lA poisons V1 at 150 and wins V1's payoff at 170, the block in which
    its rival lB first poisons V1, after the payoff; lC first poisons V1
    at 180, too late to compete."""
    look, rival, late = lookalike(R1, 5, 4), lookalike(R1, 3, 4), lookalike(R1, 4, 4)
    r1b = "0x" + R1[2:5] + "f" * 33 + R1[-4:]
    assert r1b > R1 and (score(look, r1b).a, score(look, r1b).b) == (3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(100, V1, r1b, STABLE, 50_000_000)
    sb.add(150, V1, look, STABLE, 0, tx=tx("0xaaa1", STABLE, gas_price=10**13))
    sb.add(170, V1, look, STABLE, 100_000_000)
    sb.add(170, V1, rival, STABLE, 0, tx=tx("0xbbb1", STABLE, gas_price=10**13))
    sb.add(180, V1, late, STABLE, 0, tx=tx("0xccc1", STABLE, gas_price=10**13))
    return sb


def competition_cases():
    """(report, sets, groups) of the rich scenario, which has contested
    payoffs and bundled victims, on a fixed seed list, then of
    ``two_context_stream``."""
    for seed in (0, 3, 7):
        bundle = generate(rich_spec(seed))
        events = list(bundle.events())
        report = scan(events, bundle.configs[1], bundle.registry, bundle.prices, history=events)
        sets = build_transfer_sets(report)
        yield report, sets, cluster(sets, 0.5, ratios=attack_ratio(sets, bundle.accounts[1]))
    yield run_pipeline(two_context_stream(), native_prices())


def test_competitions_match_the_reference():
    contested = contests = 0
    for report, sets, groups in competition_cases():
        records = build_competitions(report, sets, groups)
        assert list(records) == list(reference_competitions(report, sets, groups))
        matrix = win_loss_matrix(records)
        assert matrix == reference_win_loss(records)
        contested += sum(len(r.competitors) > 1 for r in records)
        contests += len(matrix)
    assert contested and contests
    # the stream's one record: both contexts of lA merge into its best score;
    # lB, first seen in the payoff's block, competes, and lC does not
    (record,) = records
    look, rival = lookalike(R1, 5, 4), lookalike(R1, 3, 4)
    assert record.winner == look
    assert {c.lookalike: (c.a, c.b, c.first_block) for c in record.competitors} == {
        look: (5, 4, 150), rival: (3, 4, 170),
    }


def test_success_rank_histograms():
    _, _, _, records, _, _ = competition_fixture()
    hists = success_ranks(records)
    assert hists["competitors"] == {2: 3, 3: 1}
    assert hists["similarity_rank"] == {1: 2, 2: 1, 3: 1}
    assert hists["timing_rank"] == {1: 1, 2: 2, 3: 1}


def test_similarity_distribution_cells():
    report, sets, groups, _, looks, gid = competition_fixture()
    rows = {row["group_id"]: row for row in similarity_distribution(groups, sets, report)}
    a_row = rows[gid["0xaaa1"]]
    assert a_row["cells"] == {(5, 4): 2, (3, 4): 1, (4, 4): 1}
    assert a_row["d_hist"] == {9: 2, 7: 1, 8: 1}
    assert a_row["max_d"] == 9
    b_row = rows[gid["0xbbb1"]]
    assert b_row["cells"] == {(3, 4): 1, (5, 5): 1, (3, 5): 1, (4, 5): 1}
    assert b_row["max_d"] == 10
    for g in groups:
        assert sum(rows[g.group_id]["cells"].values()) == g.lookalikes
        assert sum(rows[g.group_id]["d_hist"].values()) == g.lookalikes


def test_most_imitated_targets():
    report, _, _, _, _, _ = competition_fixture()
    rows = most_imitated_targets(report, k=10)
    assert [r["intended"] for r in rows] == [R4, R1, R3, R2]
    assert rows[0] == {"intended": R4, "label": "", "lookalikes": 3, "transfers": 3}
    assert all(r["lookalikes"] == 2 and r["transfers"] == 2 for r in rows[1:])
    top2 = most_imitated_targets(report, k=2, labels={R4: "Exchange Hot"})
    assert [r["intended"] for r in top2] == [R4, R1]
    assert top2[0]["label"] == "Exchange Hot"


def test_most_imitated_targets_empty():
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    report = scan(sb.events(), ChainConfig(chain_id=1), make_registry(), make_prices())
    assert most_imitated_targets(report, k=5) == ()


# ---------------------------------------------------------------------------
# targeting correlation


def targeting_stream(n_victims=3, sink_token=STABLE):
    sink = "0x" + "dd" * 20
    victims = [V1, V2, V3][:n_victims]
    intendeds = [R1, R2, R3][:n_victims]
    triggers = [30_000_000, 20_000_000, 10_000_000]
    sb = StreamBuilder()
    for i, (victim, intended) in enumerate(zip(victims, intendeds)):
        sb.add(100 + i, victim, intended, STABLE, triggers[i])
        for j in range(5 * (i + 1) - 1):
            sb.add(105 + j, victim, sink, sink_token, 1_000_000)
        look = lookalike(intended, 3, 4)
        for j in range(i + 1):
            sb.add(150 + j, victim, look, STABLE, 0)
    return sb


def test_targeting_correlation_monotone():
    sb = targeting_stream()
    events = sb.events()
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    rho = targeting_correlation(report, events, make_registry(), make_prices())
    assert rho == {"rho_activity": 1.0, "rho_amount": -1.0}


def test_targeting_correlation_counts_config_stablecoins():
    # the registry does not flag AUTH as a stablecoin; a config that names
    # it makes its transfers count as activity
    events = targeting_stream(sink_token=AUTH).events()
    config = ChainConfig(chain_id=1, stablecoins=(STABLE, AUTH))
    report = scan(events, config, make_registry(), make_prices())
    rho = targeting_correlation(report, events, make_registry(), make_prices())
    assert rho == {"rho_activity": 1.0, "rho_amount": -1.0}
    # under the registry alone each victim sent one stablecoin transfer
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    with pytest.raises(AnalyticsError, match="constant"):
        targeting_correlation(report, events, make_registry(), make_prices())


def test_targeting_correlation_needs_three_victims():
    sb = targeting_stream(n_victims=2)
    events = sb.events()
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    with pytest.raises(AnalyticsError):
        targeting_correlation(report, events, make_registry(), make_prices())


# ---------------------------------------------------------------------------
# generated contested scenario


def contested_spec(seed=11):
    return ScenarioSpec(
        seed=seed,
        n_blocks=900,
        benign_per_block=1,
        n_benign_users=20,
        groups=(
            GroupSpec(
                n_attacks=3,
                strategies=("zero",),
                scores=((4, 5),),
                n_attackers=1,
                payoff_rate=0.0,
            ),
            GroupSpec(
                n_attacks=3,
                strategies=("counterfeit",),
                scores=((4, 4),),
                n_attackers=1,
                payoff_rate=0.0,
            ),
        ),
        contested_payoffs=4,
        contested_winners=(0, 1, 0, 0),
    )


def contested_fixture():
    bundle = generate(contested_spec())
    events = bundle.events()
    report = scan(events, bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    groups = cluster(sets, 0.5, ratios=attack_ratio(sets, bundle.accounts[1]))
    assert len(groups) == 2
    truth_group = {
        r["key"]: r["group"] for r in bundle.truth.rows if r["label"] in Label.POISONS
    }
    gid_of_index = {}
    for g in groups:
        indexes = {truth_group[tid] for tid in g.members}
        assert len(indexes) == 1
        gid_of_index[indexes.pop()] = g.group_id
    return bundle, report, sets, groups, gid_of_index


def test_contested_win_ratio():
    bundle, report, sets, groups, gid_of_index = contested_fixture()
    records = build_competitions(report, sets, groups)
    assert len(records) == 4
    matrix = win_loss_matrix(records)
    assert matrix[(gid_of_index[0], gid_of_index[1])] == 0.75
    assert matrix[(gid_of_index[1], gid_of_index[0])] == 0.25
    winners = {
        r["victim"]: r["group"]
        for r in bundle.truth.rows
        if r["label"] == Label.PAYOFF_CONFIRMED
    }
    for rec in records:
        expect = winners[rec.victim]
        comp = {c.lookalike: c for c in rec.competitors}
        assert comp[rec.winner].group_id == gid_of_index[expect]
        if expect == 0:
            assert (rec.similarity_rank, rec.timing_rank) == (1, 1)
        else:
            assert (rec.similarity_rank, rec.timing_rank) == (2, 2)


def test_contested_economics_identity():
    bundle, report, sets, groups, _ = contested_fixture()
    econ = group_economics(groups, sets, report, bundle.prices)
    assert sum(e.n_success for e in econ) == 4
    for e in econ:
        assert e.profit_usd == e.revenue_usd - e.cost_usd
        assert isinstance(e.revenue_usd, Decimal)
        assert e.quarantined == 0
        assert e.cost_usd > 0


def test_bimodal_similarity_distribution():
    spec = ScenarioSpec(
        seed=21,
        n_blocks=700,
        benign_per_block=1,
        n_benign_users=20,
        groups=(
            GroupSpec(
                n_attacks=6,
                strategies=("zero",),
                scores=((3, 4), (7, 6)),
                n_attackers=1,
                payoff_rate=0.0,
            ),
        ),
    )
    bundle = generate(spec)
    report = scan(bundle.events(), bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    groups = cluster(sets)
    (row,) = similarity_distribution(groups, sets, report)
    assert row["cells"] == {(3, 4): 3, (7, 6): 3}
    assert row["max_d"] == 13
