"""Release gate: every top-level criterion, one test each, with stated
tolerances and runtime budgets asserted inside the test bodies."""

import hashlib
import json
import random
import time
from decimal import Decimal
from pathlib import Path

import pytest

from crypto_oracle import derive_address_oracle
from reference import reference_detect

from poisonscan.addrgen import SearchSpec, derive_address, search
from poisonscan.analytics import (
    build_competitions,
    group_economics,
    spearman,
    win_loss_matrix,
)
from poisonscan.cli import run
from poisonscan.clustering import attack_ratio, build_transfer_sets, cluster
from poisonscan.detector import scan, sensitivity_run
from poisonscan.scenario import (
    BotSpec,
    GroupSpec,
    ScenarioSpec,
    benign_stream,
    generate,
    score_labels,
)
from poisonscan.secp256k1 import CURVE_ORDER
from poisonscan.similarity import birthday_collision_prob, hardware_estimate


def within(value: float, expected: float, tolerance: float) -> bool:
    return abs(value - expected) <= tolerance * expected


@pytest.mark.acceptance("C1", "closed-form mining-cost estimates at d=20 and d=14")
def test_c1_hardware_estimates():
    started = time.perf_counter()
    deep = hardware_estimate(d=20, r=10**6)
    assert within(deep.cpu_days, 3.0e7, 0.02), deep.cpu_days
    assert within(deep.gpu_days, 27_093.0, 0.02), deep.gpu_days
    assert within(deep.gpu_usd, 1.70e6, 0.02), deep.gpu_usd
    shallow = hardware_estimate(d=14, r=10**6)
    assert within(shallow.cpu_days, 1.81, 0.05), shallow.cpu_days
    assert within(shallow.gpu_days, 1.6e-3, 0.05), shallow.gpu_days
    assert 43.0 <= shallow.cpu_usd <= 44.0, shallow.cpu_usd
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, elapsed


@pytest.mark.acceptance("C2", "pairwise collision probability crosses one half at 19,290")
def test_c2_birthday_threshold():
    started = time.perf_counter()
    p = birthday_collision_prob(19_290)
    assert abs(p - 0.500) <= 0.001, p
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, elapsed


@pytest.mark.acceptance("C3", "key-to-address derivation matches an independent reference")
def test_c3_key_derivation_oracle():
    started = time.perf_counter()
    rng = random.Random(0xC3)
    keys = [1, 2] + [rng.randrange(1, CURVE_ORDER) for _ in range(100)]
    for key in keys:
        assert derive_address(key) == derive_address_oracle(key)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, elapsed


def detector_scenario(seed: int) -> ScenarioSpec:
    """All three poisoning types, bundled victims, attacks on both window
    edges, full-history upgrades, typos, and decoy payoffs."""
    return ScenarioSpec(
        seed=seed,
        n_blocks=900,
        benign_per_block=2,
        n_benign_users=30,
        groups=(
            GroupSpec(
                n_attacks=6,
                strategies=("tiny", "zero", "counterfeit"),
                scores=((3, 4), (4, 5)),
                bundle_size=2,
                sibling_bundles=1,
                payoff_rate=1.0,
                payoff_delay=(2, 120),
                history_upgrades=1,
            ),
            GroupSpec(
                n_attacks=4,
                strategies=("zero",),
                scores=((5, 6),),
                offsets=(1, 101),
                payoff_rate=0.5,
            ),
            GroupSpec(
                n_attacks=2,
                strategies=("counterfeit", "tiny"),
                scores=((7, 6),),
                offsets=(30, 80),
                payoff_rate=0.5,
            ),
        ),
        typos=2,
        decoy_payoffs=1,
    )


@pytest.mark.acceptance("C4", "detector equals the quadratic reference on 50 seeded scenarios")
def test_c4_detector_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(50):
        bundle = generate(detector_scenario(seed))
        events = list(bundle.events())
        assert len(events) <= 10_000
        config = bundle.configs[1]
        report = scan(events, config, bundle.registry, bundle.prices, history=events)
        ref = reference_detect(events, config, bundle.registry, bundle.prices)
        assert report.labels == ref.labels
        contexts = {
            (c.victim, c.intended, c.lookalike): frozenset(c.evidence)
            for c in report.contexts
        }
        assert contexts == ref.contexts
        assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed
        assert report.accidental == ref.accidental
        card = score_labels(report.labels, bundle.truth, 1)
        assert card.precision == 1.0
        assert card.recall == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, elapsed


@pytest.mark.acceptance("C5", "copy-bot bridges split at threshold 0.5 and merge at 0.0")
def test_c5_copy_bot_clustering():
    started = time.perf_counter()
    spec = ScenarioSpec(
        seed=5,
        n_blocks=700,
        groups=(
            GroupSpec(
                n_attacks=4,
                n_attackers=1,
                strategies=("zero",),
                scores=((4, 5),),
                payoff_rate=0.0,
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
    bundle = generate(spec)
    events = list(bundle.events())
    report = scan(events, bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    ratios = attack_ratio(sets, bundle.accounts[1])
    strict = cluster(sets, 0.5, ratios=ratios)
    merged = cluster(sets, 0.0, ratios=ratios)
    assert len(strict) == 2, [g.group_id for g in strict]
    assert len(merged) == 1, [g.group_id for g in merged]
    predicted = {member: g.group_id for g in strict for member in g.members}
    card = score_labels(report.labels, bundle.truth, 1, predicted)
    assert card.rand_index == 1.0, card.rand_index
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, elapsed


@pytest.mark.acceptance("C6", "window and threshold sweeps recover exact planted deltas")
def test_c6_parameter_sensitivity_shape():
    started = time.perf_counter()
    spec = ScenarioSpec(
        seed=6,
        n_blocks=800,
        groups=(
            GroupSpec(
                n_attacks=4,
                n_attackers=1,
                strategies=("zero",),
                scores=((4, 5),),
                offsets=(50,),
                payoff_rate=0.0,
            ),
            GroupSpec(
                n_attacks=3,
                n_attackers=1,
                strategies=("zero",),
                scores=((4, 5),),
                offsets=(150,),
                payoff_rate=0.0,
            ),
            GroupSpec(
                n_attacks=2,
                n_attackers=1,
                strategies=("zero",),
                scores=((3, 3),),
                offsets=(50,),
                payoff_rate=0.0,
            ),
        ),
    )
    bundle = generate(spec)
    events = list(bundle.events())
    base = bundle.configs[1]
    assert (base.window_blocks, base.a_min, base.b_min) == (100, 3, 4)
    wide = base.with_overrides(window_blocks=200)
    loose = base.with_overrides(b_min=3)
    rows = sensitivity_run(events, [base, wide, loose], bundle.registry, bundle.prices)
    counts = [row["zero_value"] for row in rows]
    assert counts[0] == 4, counts
    assert counts[1] == counts[0] + 3, counts
    assert counts[2] == counts[0] + 2, counts

    def poison_keys(config):
        report = scan(events, config, bundle.registry, bundle.prices)
        return {k for k, v in report.labels.items() if v == "zero_value_poison"}

    base_keys = poison_keys(base)
    assert base_keys <= poison_keys(wide)
    assert base_keys <= poison_keys(loose)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, elapsed


@pytest.mark.acceptance("C7", "seeded lookalike search is geometric with mean near 16 trials")
def test_c7_geometric_search_statistics(record_property):
    started = time.perf_counter()
    target = "0x" + "e" * 40
    total = 0
    runs = 200
    for seed in range(runs):
        stats = search(
            SearchSpec(targets=(target,), a_min=1, b_min=0, max_matches=1), seed=seed
        )
        total += stats.trials
    mean = total / runs
    record_property("mean_trials", round(mean, 2))
    assert within(mean, 16.0, 0.25), mean
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, elapsed


def contested_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        seed=11,
        n_blocks=900,
        groups=(
            GroupSpec(
                n_attacks=4,
                n_attackers=1,
                strategies=("zero",),
                scores=((4, 5),),
                payoff_rate=0.0,
            ),
            GroupSpec(
                n_attacks=4,
                n_attackers=1,
                strategies=("counterfeit",),
                scores=((4, 4),),
                payoff_rate=0.0,
            ),
        ),
        contested_payoffs=4,
        contested_winners=(0, 1, 0, 0),
    )


@pytest.mark.acceptance("C8", "profit identity, win-loss complementarity, rank correlation")
def test_c8_economics_identities():
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == 0.6

    saw_contest = False
    for spec in (detector_scenario(0), contested_scenario()):
        bundle = generate(spec)
        events = list(bundle.events())
        report = scan(
            events, bundle.configs[1], bundle.registry, bundle.prices, history=events
        )
        sets = build_transfer_sets(report)
        groups = cluster(sets, 0.5, ratios=attack_ratio(sets, bundle.accounts[1]))
        for row in group_economics(groups, sets, report, bundle.prices):
            assert isinstance(row.profit_usd, Decimal)
            assert row.profit_usd == row.revenue_usd - row.cost_usd
        matrix = win_loss_matrix(build_competitions(report, sets, groups))
        for (left, right), ratio in matrix.items():
            other = matrix.get((right, left))
            assert other is not None, (left, right)
            assert ratio + other == 1.0, (left, right, ratio, other)
            saw_contest = True
    assert saw_contest


def write_pipeline_spec(path: Path) -> None:
    spec = ScenarioSpec(
        seed=9,
        n_blocks=600,
        groups=(
            GroupSpec(n_attacks=4, n_attackers=1, payoff_rate=0.5),
            GroupSpec(
                n_attacks=3,
                n_attackers=1,
                strategies=("zero", "counterfeit"),
                scores=((4, 4),),
                payoff_rate=0.5,
            ),
        ),
        bots=(BotSpec(copies=(0, 1), n_copies=2),),
        typos=1,
        decoy_payoffs=1,
    )
    path.write_text(json.dumps(spec.to_json_dict(), sort_keys=True) + "\n", encoding="utf-8")


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.acceptance("C9", "full pipeline reruns produce byte-identical bundles")
def test_c9_end_to_end_determinism(tmp_path):
    spec_path = tmp_path / "scenario_spec.json"
    write_pipeline_spec(spec_path)

    def stage(argv) -> None:
        assert run(argv) == 0, argv

    bundles = {}
    for attempt in ("a", "b"):
        sim = tmp_path / attempt / "sim"
        stage(["simulate", "--spec", str(spec_path), "--out", str(sim)])
        bundles.setdefault("simulate", []).append(sim)
    source = bundles["simulate"][0]
    shared = [
        "--events", str(source / "events.jsonl"),
        "--config", str(source / "config.json"),
        "--registry", str(source / "registry.jsonl"),
        "--prices", str(source / "prices.csv"),
    ]
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        stage(["scan", *shared, "--out", str(base / "scan")])
        bundles.setdefault("scan", []).append(base / "scan")
    report_path = str(bundles["scan"][0] / "report.json")
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        stage(
            [
                "cluster",
                "--report", report_path,
                "--accounts", str(source / "accounts.csv"),
                "--out", str(base / "cluster"),
            ]
        )
        bundles.setdefault("cluster", []).append(base / "cluster")
    clusters_path = str(bundles["cluster"][0] / "clusters.json")
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        stage(
            [
                "econ",
                "--report", report_path,
                "--clusters", clusters_path,
                "--prices", str(source / "prices.csv"),
                "--out", str(base / "econ"),
            ]
        )
        bundles.setdefault("econ", []).append(base / "econ")
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        stage(
            [
                "report",
                *shared,
                "--accounts", str(source / "accounts.csv"),
                "--out", str(base / "report"),
            ]
        )
        bundles.setdefault("report", []).append(base / "report")
    for stage_name, (first, second) in bundles.items():
        assert tree_digest(first) == tree_digest(second), stage_name


@pytest.mark.acceptance("C10", "scan sustains the throughput floor at million-event scale")
def test_c10_throughput_floor(record_property):
    events, registry, prices, config = benign_stream(1_000_000, seed=1)
    best = 0.0
    for _ in range(2):
        started = time.perf_counter()
        scan(events, config, registry, prices)
        elapsed = time.perf_counter() - started
        best = max(best, len(events) / elapsed)
    record_property("events_per_second", int(best))
    assert best >= 160_000, best
