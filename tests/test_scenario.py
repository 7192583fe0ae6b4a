"""Synthetic chain generator tests: determinism, planted-label counts,
schema validity, and scoring."""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace

import pytest

from poisonscan.core import Label, ScenarioError
from poisonscan.ingest import iter_events, load_account_history, validate_stream
from poisonscan.scenario import (
    BotSpec,
    GroundTruth,
    GroupSpec,
    ScenarioSpec,
    _surgery,
    benign_stream,
    generate,
    score_labels,
)
from poisonscan.similarity import positional_matches, score


def small_spec(**kwargs) -> ScenarioSpec:
    base = dict(seed=11, n_blocks=600, benign_per_block=1, n_benign_users=20)
    base.update(kwargs)
    spec = ScenarioSpec(**base)
    spec.validate()
    return spec


def tiny_group(**kwargs) -> GroupSpec:
    base = dict(
        n_attacks=5,
        strategies=("tiny",),
        scores=((3, 4),),
        payoff_rate=1.0,
        payoff_delay=(2, 40),
    )
    base.update(kwargs)
    return GroupSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_infeasible_score_rejected():
    with pytest.raises(ScenarioError):
        small_spec(groups=(GroupSpec(scores=((20, 20),)),))


def test_bot_referencing_unknown_group_rejected():
    with pytest.raises(ScenarioError):
        small_spec(groups=(tiny_group(),), bots=(BotSpec(copies=(3,)),))


def test_contested_needs_two_groups():
    with pytest.raises(ScenarioError):
        small_spec(groups=(tiny_group(),), contested_payoffs=1)


def test_cross_chain_needs_two_chains():
    with pytest.raises(ScenarioError):
        small_spec(cross_chain_reuse=1, groups=(tiny_group(),))


@pytest.mark.parametrize(
    "raw",
    [
        {"n_blocks": 2000.5},
        {"chain_ids": ["1"]},
        {"groups": [{"scores": [[3.5, 4]]}]},
        {"groups": [{"offsets": [1.5]}]},
        {"groups": [{"payoff_delay": [2]}]},
        {"groups": [{}], "bots": [{"copies": [0], "mutate": "no"}]},
        {"groups": [5]},
        [],
    ],
)
def test_spec_of_the_wrong_shape_rejected(raw):
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict(raw)


G = GroupSpec()


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"chain_ids": ()}, "chain_ids must list 1 or 2 chains, got ()"),
        ({"chain_ids": (1, 56, 137)}, "chain_ids must list 1 or 2 chains, got (1, 56, 137)"),
        ({"chain_ids": (1, 1)}, "chain_ids must be distinct"),
        ({"n_blocks": 0}, "n_blocks must be positive and start_block non-negative"),
        ({"start_block": -1}, "n_blocks must be positive and start_block non-negative"),
        ({"n_benign_users": 1}, "need at least 2 benign users for background traffic"),
        ({"n_stablecoins": 0}, "need at least one stablecoin"),
        ({"groups": (replace(G, n_attacks=0),)}, "group 0: n_attacks must be >= 1"),
        ({"groups": (replace(G, strategies=()),)}, "group 0: strategies must come from"),
        ({"groups": (G, replace(G, strategies=("tiny", "dust")))}, "group 1: strategies must come from"),
        ({"groups": (replace(G, scores=()),)}, "group 0: scores must name at least one score"),
        ({"groups": (replace(G, scores=((-1, 4),)),)}, "group 0: infeasible score (-1, 4)"),
        ({"groups": (replace(G, scores=((20, 21),)),)}, "group 0: infeasible score (20, 21)"),
        ({"groups": (replace(G, payoff_rate=1.5),)}, "group 0: payoff_rate must be in [0, 1]"),
        ({"groups": (replace(G, bundle_size=0),)}, "group 0: bundle_size and n_attackers must be >= 1"),
        ({"groups": (replace(G, n_attackers=0),)}, "group 0: bundle_size and n_attackers must be >= 1"),
        ({"groups": (replace(G, payoff_delay=(0, 5)),)}, "group 0: bad payoff_delay (0, 5)"),
        ({"groups": (replace(G, payoff_delay=(5, 4)),)}, "group 0: bad payoff_delay (5, 4)"),
        ({"groups": (replace(G, sibling_bundles=5),)}, "group 0: more special attacks than n_attacks"),
        ({"groups": (replace(G, history_upgrades=5),)}, "group 0: more special attacks than n_attacks"),
        ({"groups": (replace(G, sibling_bundles=2, history_upgrades=3),)}, "group 0: sibling and upgrade attacks overlap"),
        ({"groups": (replace(G, offsets=(5, 0)),)}, "group 0: offsets must be >= 1"),
        (
            {"groups": (replace(G, history_upgrades=1),), "n_other_tokens": 0},
            "history_upgrades need at least one non-stablecoin token",
        ),
        ({"groups": (G,), "bots": (BotSpec(copies=()),)}, "bot 0: copies must name at least one group"),
        ({"groups": (G,), "bots": (BotSpec(copies=(-1,)),)}, "bot 0: copies reference unknown group"),
        ({"groups": (G,), "bots": (BotSpec(copies=(0,), delay_blocks=-1),)}, "bot 0: bad delay or copy count"),
        ({"groups": (G,), "bots": (BotSpec(copies=(0,), n_copies=0),)}, "bot 0: bad delay or copy count"),
        ({"contested_winners": (0, 2)}, "contested_winners entries must be 0 or 1"),
        ({"typos": -1}, "event counts must be non-negative"),
        ({"decoy_payoffs": -1}, "event counts must be non-negative"),
        ({"contested_payoffs": -1}, "event counts must be non-negative"),
        ({"cross_chain_reuse": -1}, "event counts must be non-negative"),
        ({"gas_used": -1}, "gas values must be non-negative"),
        ({"gas_price": -1}, "gas values must be non-negative"),
    ],
)
def test_each_validate_rule_has_its_message(fields, message):
    # the default spec is valid, and one bad field makes validate say which rule it breaks;
    # the rules that other tests raise are left out
    ScenarioSpec().validate()
    with pytest.raises(ScenarioError) as raised:
        ScenarioSpec(**fields).validate()
    assert str(raised.value).startswith(message)


def test_too_few_blocks_rejected():
    with pytest.raises(ScenarioError):
        ScenarioSpec(n_blocks=200, groups=(tiny_group(),)).validate()


def test_spec_json_roundtrip():
    spec = small_spec(
        groups=(tiny_group(), GroupSpec(strategies=("zero", "counterfeit"), payoff_rate=0.0)),
        bots=(BotSpec(copies=(1,), delay_blocks=1),),
        typos=2,
    )
    assert ScenarioSpec.from_dict(spec.to_json_dict()) == spec


# ---------------------------------------------------------------------------
# surgery

@pytest.mark.parametrize("a,b", [(3, 4), (0, 7), (7, 0), (20, 19), (0, 0), (5, 34)])
def test_surgery_hits_exact_scores(a, b):
    rng = random.Random(5)
    used: set[str] = set()
    intended = f"0x{rng.getrandbits(160):040x}"
    for _ in range(5):
        look = _surgery(rng, used, intended, a, b)
        got = score(look, intended)
        assert (got.a, got.b) == (a, b)


# ---------------------------------------------------------------------------
# generation basics


def test_generation_is_deterministic():
    spec = small_spec(groups=(tiny_group(),), typos=1, decoy_payoffs=1)
    first = generate(spec)
    second = generate(spec)
    assert first.events() == second.events()
    assert first.truth.rows == second.truth.rows
    assert first.accounts == second.accounts


def test_stream_passes_ingest_validation_and_roundtrip(tmp_path):
    spec = small_spec(groups=(tiny_group(bundle_size=2),), typos=1)
    bundle = generate(spec)
    events = bundle.events()
    validate_stream(events)
    paths = bundle.write(tmp_path)
    assert sorted(p.name for p in paths.values()) == sorted(
        [
            "events.jsonl",
            "config.json",
            "registry.jsonl",
            "prices.csv",
            "accounts.csv",
            "ground_truth.jsonl",
            "scenario.json",
        ]
    )
    assert tuple(iter_events(paths["events.jsonl"])) == events
    reread = GroundTruth.read_jsonl(paths["ground_truth.jsonl"])
    assert reread.rows == bundle.truth.rows
    assert reread.bots == bundle.truth.bots


def test_deterministic_spec_gives_exact_counts():
    spec = small_spec(groups=(tiny_group(),))
    truth = generate(spec).truth
    counts = truth.label_counts(1)
    assert counts[Label.TINY] == 5
    assert counts[Label.INTENDED] == 5
    assert counts[Label.PAYOFF_CONFIRMED] == 5
    assert Label.ZERO not in counts


def test_strategies_cycle_exactly():
    spec = small_spec(
        groups=(
            GroupSpec(
                n_attacks=6,
                strategies=("tiny", "zero", "counterfeit"),
                payoff_rate=0.0,
            ),
        )
    )
    counts = generate(spec).truth.label_counts(1)
    assert counts[Label.TINY] == 2
    assert counts[Label.ZERO] == 2
    assert counts[Label.COUNTERFEIT] == 2


def test_bundles_share_one_transaction():
    spec = small_spec(groups=(tiny_group(n_attacks=2, bundle_size=3, payoff_rate=0.0),))
    bundle = generate(spec)
    rows = bundle.truth.rows_for(1, [Label.TINY])
    assert len(rows) == 6
    tx_of = {}
    for event in bundle.events():
        tx_of[event.key] = event.tx_hash
    hashes = sorted({tx_of[r["key"]] for r in rows})
    assert len(hashes) == 2


def test_sibling_bundle_plants_out_of_window_context():
    spec = small_spec(
        groups=(GroupSpec(n_attacks=1, strategies=("zero",), sibling_bundles=1, payoff_rate=0.0),)
    )
    bundle = generate(spec)
    rows = bundle.truth.rows_for(1, [Label.ZERO])
    assert len(rows) == 2
    offsets = sorted(r["offset"] for r in rows)
    window = bundle.configs[1].window_blocks
    assert offsets[0] <= window
    assert offsets[1] > window + 1
    tx_of = {e.key: e.tx_hash for e in bundle.events()}
    assert tx_of[rows[0]["key"]] == tx_of[rows[1]["key"]]


def test_out_of_window_attacks_are_unlabeled():
    spec = small_spec(
        groups=(
            GroupSpec(
                n_attacks=4,
                strategies=("tiny",),
                offsets=(50, 150),
                payoff_rate=0.0,
            ),
        )
    )
    bundle = generate(spec)
    rows = bundle.truth.rows_for(1, [Label.TINY])
    assert len(rows) == 2
    assert all(r["offset"] == 50 for r in rows)


def test_payoff_rate_within_binomial_bounds():
    spec = small_spec(
        n_blocks=900,
        groups=(tiny_group(n_attacks=40, payoff_rate=0.5),),
    )
    counts = generate(spec).truth.label_counts(1)
    n, p = 40, 0.5
    bound = 3 * math.sqrt(n * p * (1 - p))
    assert abs(counts.get(Label.PAYOFF_CONFIRMED, 0) - n * p) <= bound


# ---------------------------------------------------------------------------
# bots, typos, decoys, contests


def test_bot_copies_and_history():
    spec = small_spec(
        groups=(
            GroupSpec(n_attacks=4, strategies=("zero",), payoff_rate=0.0),
            GroupSpec(n_attacks=4, strategies=("counterfeit",), payoff_rate=0.0),
        ),
        bots=(BotSpec(copies=(0, 1), delay_blocks=0, n_copies=3),),
    )
    bundle = generate(spec)
    assert len(bundle.truth.bots) == 1
    bot = next(iter(bundle.truth.bots))
    copies = [
        e for e in bundle.events() if e.tx is not None and e.tx.initiator == bot
    ]
    assert len(copies) == 6
    bot_rows = [r for r in bundle.truth.rows if r["group"] is None and r["label"] in Label.POISONS]
    assert len(bot_rows) == 6
    assert bundle.accounts[1][bot] == 60
    bodies = {
        (e.token, e.from_addr, e.to_addr, e.value)
        for e in bundle.events()
        if e.tx is not None and e.tx.initiator != bot
    }
    assert all((c.token, c.from_addr, c.to_addr, c.value) in bodies for c in copies)


def test_same_block_copies_follow_originals():
    spec = small_spec(
        groups=(GroupSpec(n_attacks=2, strategies=("zero",), payoff_rate=0.0),),
        bots=(BotSpec(copies=(0,), delay_blocks=0, n_copies=2),),
    )
    bundle = generate(spec)
    bot = next(iter(bundle.truth.bots))
    by_key = {e.key: e for e in bundle.events()}
    zero_rows = bundle.truth.rows_for(1, [Label.ZERO])
    blocks = {}
    for row in zero_rows:
        event = by_key[row["key"]]
        owner = "bot" if event.tx.initiator == bot else "group"
        blocks.setdefault((row["victim"], owner), event.order)
    for (victim, owner), order in blocks.items():
        if owner == "bot":
            original = blocks[(victim, "group")]
            assert order[0] == original[0] and order[1] > original[1]


def test_typos_are_dormant_high_positional_single_edits():
    spec = small_spec(typos=3)
    bundle = generate(spec)
    rows = bundle.truth.rows_for(1, [Label.ACCIDENTAL])
    assert len(rows) == 3
    senders = {e.from_addr for e in bundle.events()}
    for row in rows:
        assert row["edit_distance"] == 1
        assert positional_matches(row["lookalike"], row["intended"]) > 20
        assert row["a"] >= 3 and row["b"] >= 4
        assert row["lookalike"] not in senders


def test_decoys_spend_their_funds():
    spec = small_spec(decoy_payoffs=2)
    bundle = generate(spec)
    rows = bundle.truth.rows_for(1, [Label.PAYOFF_UNCONFIRMED])
    assert len(rows) == 2
    senders = {e.from_addr for e in bundle.events()}
    for row in rows:
        assert row["lookalike"] in senders
        assert positional_matches(row["lookalike"], row["intended"]) <= 20


def test_contested_winners_follow_pattern():
    spec = small_spec(
        groups=(
            GroupSpec(n_attacks=1, strategies=("zero",), payoff_rate=0.0),
            GroupSpec(n_attacks=1, strategies=("zero",), payoff_rate=0.0),
        ),
        contested_payoffs=4,
        contested_winners=(0, 0, 0, 1),
    )
    bundle = generate(spec)
    payoffs = bundle.truth.rows_for(1, [Label.PAYOFF_CONFIRMED])
    winner_groups = sorted(r["group"] for r in payoffs)
    assert winner_groups == [0, 0, 0, 1]
    zero_rows = bundle.truth.rows_for(1, [Label.ZERO])
    contested_victims = {r["victim"] for r in payoffs}
    for victim in contested_victims:
        groups = sorted(r["group"] for r in zero_rows if r["victim"] == victim)
        assert groups == [0, 1]


# ---------------------------------------------------------------------------
# cross-chain


def test_cross_chain_reuse_replays_lookalikes():
    spec = small_spec(
        chain_ids=(1, 56),
        groups=(GroupSpec(n_attacks=3, strategies=("zero",), payoff_rate=0.0),),
        cross_chain_reuse=2,
    )
    bundle = generate(spec)
    rows1 = bundle.truth.rows_for(1, [Label.ZERO])
    rows2 = bundle.truth.rows_for(56, [Label.ZERO])
    assert len(rows2) == 2
    looks1 = {r["lookalike"] for r in rows1}
    looks2 = {r["lookalike"] for r in rows2}
    assert looks2 <= looks1
    victims1 = {r["victim"] for r in rows1}
    assert {r["victim"] for r in rows2} <= victims1
    validate_stream(bundle.chains[56])


# ---------------------------------------------------------------------------
# scoring


def test_score_labels_perfect_and_degenerate():
    spec = small_spec(groups=(tiny_group(),), typos=1)
    truth = generate(spec).truth
    perfect = {r["key"]: r["label"] for r in truth.rows}
    card = score_labels(perfect, truth, 1)
    assert card.precision == 1.0 and card.recall == 1.0 and card.f1 == 1.0
    empty = score_labels({}, truth, 1)
    assert empty.recall == 0.0 and empty.precision == 1.0
    wrong = dict(perfect)
    some_key = next(iter(wrong))
    wrong[some_key] = Label.ZERO if wrong[some_key] != Label.ZERO else Label.TINY
    card = score_labels(wrong, truth, 1)
    assert card.precision < 1.0 and card.recall < 1.0


def test_score_labels_rand_index():
    spec = small_spec(
        groups=(
            GroupSpec(n_attacks=2, strategies=("zero",), payoff_rate=0.0),
            GroupSpec(n_attacks=2, strategies=("zero",), payoff_rate=0.0),
        )
    )
    truth = generate(spec).truth
    labels = {r["key"]: r["label"] for r in truth.rows}
    true_groups = {
        r["key"]: r["group"] for r in truth.rows if r["label"] in Label.POISONS
    }
    card = score_labels(labels, truth, 1, predicted_groups=true_groups)
    assert card.rand_index == 1.0
    merged = {k: 0 for k in true_groups}
    card = score_labels(labels, truth, 1, predicted_groups=merged)
    assert card.rand_index is not None and card.rand_index < 1.0


# ---------------------------------------------------------------------------
# benchmark stream


def test_benign_stream_shape_and_determinism():
    events, registry, prices, config = benign_stream(3000, n_users=200, seed=3, n_attacks=2)
    assert len(events) == 3000
    validate_stream(events)
    again, _, _, _ = benign_stream(3000, n_users=200, seed=3, n_attacks=2)
    assert events == again
    stable = next(iter(registry)).token
    assert stable.address in registry.stablecoins(1)
    from poisonscan.core import event_date

    assert prices.get_or_none(stable.address, event_date(events[0].timestamp)) == 1


# ---------------------------------------------------------------------------
# pinned bytes and the validate gate


def every_kind_spec() -> ScenarioSpec:
    """A two-chain spec that plants every attack kind the generator knows."""
    return small_spec(
        chain_ids=(1, 56),
        groups=(
            GroupSpec(
                n_attacks=6,
                scores=((3, 4), (4, 5)),
                bundle_size=2,
                sibling_bundles=1,
                history_upgrades=1,
                payoff_rate=1.0,
                payoff_delay=(2, 120),
            ),
            GroupSpec(n_attacks=4, strategies=("zero",), scores=((5, 6),), offsets=(30, 80)),
        ),
        bots=(
            BotSpec(copies=(0,), n_copies=3),
            BotSpec(copies=(0, 1), delay_blocks=2, mutate=True),
        ),
        typos=2,
        decoy_payoffs=1,
        contested_payoffs=2,
        contested_winners=(0, 1),
        cross_chain_reuse=3,
    )


# sha256 of each file that generate(every_kind_spec()).write() writes
EVERY_KIND_DIGESTS = {
    "accounts_1.csv": "9725289c503f5f12bac4352c9b76be974465ae4e83bcdb6909acf703214e015e",
    "accounts_56.csv": "bc331ebe8c2bc0cc93942713e515c69845e423922a106af18fdc86421f2999fd",
    "config_1.json": "ab595079724c54dffbe9282efe4539e73647a2fe98dc5f96637e743a884cdd81",
    "config_56.json": "8d56c13ea2e38326bf8ee89793360c493b5b62229a7b3ffba4c67c7bb78ab65e",
    "events_1.jsonl": "c5991c4ccff38b7b9928b676ba3ca49d4515133641a64e0389423633368b672c",
    "events_56.jsonl": "08a58b4fe4145ba90a5a08efb795d149b19de0777606beffc4af3c4c663de0df",
    "ground_truth.jsonl": "900ee616352a844cc90e4cc15b0a1496c6ae849251f7824896300031e33079b2",
    "prices.csv": "ef7c04d6d143712723589e16b5687094c5faf25f416de9b5f99e298997e72407",
    "registry.jsonl": "a591f3a121d28bc35d05aab861e719cca56cd01c57a0377d6e87091729d5046b",
    "scenario.json": "16a3e7743d3df72a1b23b52ee0019d7fa81ac030244165a804d6aaf13dd715ad",
}


def test_every_kind_bundle_bytes_are_pinned(tmp_path):
    bundle = generate(every_kind_spec())
    assert set(bundle.truth.label_counts(1)) == Label.ALL - {Label.BENIGN}
    assert bundle.truth.label_counts(56) == {Label.INTENDED: 3, Label.ZERO: 3}
    assert len(bundle.truth.bots) == 2
    paths = bundle.write(tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == EVERY_KIND_DIGESTS


def random_spec(rng: random.Random) -> ScenarioSpec:
    """A spec from a small grid that straddles the edge of what the
    generator can place."""
    groups = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        n_attacks = rng.randint(1, 4)
        n_scores = rng.choice((0, 1, 1, 2))
        offsets = (None, None, (), (rng.randint(1, 250),), (5, rng.randint(1, 400)))
        groups.append(
            GroupSpec(
                n_attacks=n_attacks,
                strategies=tuple(rng.sample(("tiny", "zero", "counterfeit"), rng.randint(1, 3))),
                scores=tuple((rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n_scores)),
                offsets=rng.choice(offsets),
                bundle_size=rng.randint(1, 3),
                payoff_rate=rng.choice((0.0, 1.0)),
                payoff_delay=(2, rng.choice((40, 150, 300))),
                n_attackers=rng.randint(1, 2),
                sibling_bundles=rng.randint(0, 1),
                history_upgrades=rng.choice((0, 0, n_attacks // 2)),
            )
        )
    bots = tuple(
        BotSpec(
            copies=(rng.randrange(len(groups)),),
            delay_blocks=rng.randint(0, 3),
            n_copies=rng.randint(1, 3),
            mutate=rng.random() < 0.5,
        )
        for _ in range(rng.randint(0, 2) if groups else 0)
    )
    contested = rng.choice((0, 0, 1, 2)) if len(groups) > 1 else 0
    chain_ids = rng.choice(((1,), (1,), (56,), (1, 56), (56, 1)))
    return ScenarioSpec(
        seed=rng.randrange(1000),
        chain_ids=chain_ids,
        n_blocks=rng.randint(100, 700),
        n_benign_users=4,
        benign_per_block=rng.randint(0, 1),
        n_stablecoins=1,
        groups=tuple(groups),
        bots=bots,
        typos=rng.choice((0, 0, 1, 2)),
        decoy_payoffs=rng.choice((0, 0, 1)),
        contested_payoffs=contested,
        contested_winners=rng.choice(((), (1,), (0, 1))),
        cross_chain_reuse=rng.choice((0, 1, 3)) if len(chain_ids) == 2 else 0,
    )


def test_validate_is_the_generators_only_gate():
    """A spec either generates or is rejected with a ScenarioError."""
    rng = random.Random(2024)
    outcomes = {"generated": 0, "rejected": 0}
    for _ in range(300):
        spec = random_spec(rng)
        try:
            spec.validate()
        except ScenarioError:
            outcomes["rejected"] += 1
            continue
        generate(spec)
        outcomes["generated"] += 1
    assert min(outcomes.values()) >= 50, outcomes
