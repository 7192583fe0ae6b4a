"""Deterministic synthetic chain generator with planted ground truth.

Builds ordered transfer streams containing benign background traffic plus
planted attacks of every poisoning flavor: tiny, zero-value, and
counterfeit transfers, bundled transactions, copying bots, accidental
typo payments, decoy payoffs, contested victims, and optional cross-chain
lookalike reuse. Every planted event carries a ground-truth label, which
makes the generator the oracle for detector, clustering, and analytics
tests and benchmarks.
"""

from __future__ import annotations

import hashlib
import json
import random
import reprlib
import string
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from .core import (
    ChainConfig,
    Label,
    PriceTable,
    RegistryEntry,
    ScenarioError,
    TokenRef,
    TokenRegistry,
    TransactionRecord,
    TransferEvent,
    check_fields,
    default_config,
    event_date,
    from_json,
    hex_digits,
    jsonl_objects,
    parse_json,
    read_fields,
    to_json,
    write_json,
)
from .clustering import rand_index
from .ingest import validate_stream, write_account_history, write_events
from .similarity import score

__all__ = [
    "BotSpec",
    "GroundTruth",
    "GroupSpec",
    "ScenarioBundle",
    "ScenarioSpec",
    "ScoreCard",
    "benign_stream",
    "generate",
    "score_labels",
]

_HEX = string.hexdigits[:16]
_NATIVE_PRICE = {"ETH": Decimal("2000"), "BNB": Decimal("300")}
_DEFAULT_NATIVE_PRICE = Decimal("1000")
_STABLE_PRICE = Decimal("1.00")
_OTHER_PRICE = Decimal("5.00")

_LABELS = {"tiny": Label.TINY, "zero": Label.ZERO, "counterfeit": Label.COUNTERFEIT}
_STRATEGIES = tuple(_LABELS)


def _other_digit(rng: random.Random, avoid: str, current: str) -> str:
    if current != avoid:
        return current
    return rng.choice([d for d in _HEX if d != avoid])


def _surgery(rng: random.Random, used: set[str], intended: str, a: int, b: int) -> str:
    """Rewrite the middle of an address so exactly the first a and last b
    digits still match the original."""
    digits = hex_digits(intended)
    while True:
        chars = list(digits)
        for i in range(a, 40 - b):
            chars[i] = rng.choice(_HEX)
        chars[a] = _other_digit(rng, digits[a], chars[a])
        chars[39 - b] = _other_digit(rng, digits[39 - b], chars[39 - b])
        candidate = "0x" + "".join(chars)
        if candidate not in used:
            used.add(candidate)
            got = score(candidate, intended)
            if (got.a, got.b) != (a, b):
                raise ScenarioError(f"surgery produced ({got.a}, {got.b}) instead of ({a}, {b})")
            return candidate


def _binding(
    victim: str, intended: str, lookalike: str | None, a: int | None, b: int | None, offset: int
) -> dict:
    """The (victim, intended, lookalike) binding every truth row carries."""
    return {
        "victim": victim,
        "intended": intended,
        "lookalike": lookalike,
        "a": a,
        "b": b,
        "offset": offset,
    }


@dataclass(frozen=True)
class GroupSpec:
    """One attack group: how many poisoning transactions it launches and
    with what shape.

    strategies and scores are cycled attack by attack, so label counts are
    exact for a fixed spec. offsets (poison block minus trigger block) are
    cycled too when given; otherwise drawn uniformly inside the window.
    sibling_bundles makes that many leading attacks bundle extra victims
    whose triggers sit outside the window, reachable only through shared-
    transaction expansion. history_upgrades converts that many trailing
    attacks into non-stablecoin tiny poisonings that the windowed scan
    cannot see, so their payoffs confirm only through a full-history pass.
    """

    n_attacks: int = 4
    strategies: tuple[str, ...] = _STRATEGIES
    scores: tuple[tuple[int, int], ...] = ((3, 4), (4, 5), (5, 6), (7, 6))
    offsets: tuple[int, ...] | None = None
    bundle_size: int = 1
    payoff_rate: float = 0.5
    payoff_delay: tuple[int, int] = (2, 150)
    n_attackers: int = 2
    sibling_bundles: int = 0
    history_upgrades: int = 0


@dataclass(frozen=True)
class BotSpec:
    """A copying bot replaying other groups' poisoning transactions.

    delay_blocks 0 lands each copy in the same block as its original.
    Only zero-value and counterfeit poisonings are copyable; tiny
    transfers would need the lookalike's balance.
    """

    copies: tuple[int, ...]
    delay_blocks: int = 0
    n_copies: int = 4
    mutate: bool = False


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    chain_ids: tuple[int, ...] = (1,)
    n_blocks: int = 2000
    start_block: int = 1000
    n_benign_users: int = 40
    benign_per_block: int = 2
    n_stablecoins: int = 2
    n_other_tokens: int = 1
    groups: tuple[GroupSpec, ...] = ()
    bots: tuple[BotSpec, ...] = ()
    typos: int = 0
    decoy_payoffs: int = 0
    contested_payoffs: int = 0
    contested_winners: tuple[int, ...] = ()
    cross_chain_reuse: int = 0
    gas_used: int = 60_000
    gas_price: int = 30 * 10**9
    genesis_timestamp: int = 1_704_067_200

    def validate(self) -> None:
        check_fields(self, ScenarioError)
        if not 1 <= len(self.chain_ids) <= 2:
            raise ScenarioError(f"chain_ids must list 1 or 2 chains, got {self.chain_ids}")
        if len(set(self.chain_ids)) != len(self.chain_ids):
            raise ScenarioError("chain_ids must be distinct")
        if self.n_blocks < 1 or self.start_block < 0:
            raise ScenarioError("n_blocks must be positive and start_block non-negative")
        if self.n_benign_users < 2 and self.benign_per_block > 0:
            raise ScenarioError("need at least 2 benign users for background traffic")
        if self.n_stablecoins < 1:
            raise ScenarioError("need at least one stablecoin")
        for i, g in enumerate(self.groups):
            if g.n_attacks < 1:
                raise ScenarioError(f"group {i}: n_attacks must be >= 1")
            if not g.strategies or any(s not in _STRATEGIES for s in g.strategies):
                raise ScenarioError(f"group {i}: strategies must come from {_STRATEGIES}")
            if not g.scores:
                raise ScenarioError(f"group {i}: scores must name at least one score")
            for a, b in g.scores:
                if a < 0 or b < 0 or a + b > 40:
                    raise ScenarioError(f"group {i}: infeasible score ({a}, {b})")
                if a + b > 39:
                    raise ScenarioError(
                        f"group {i}: score ({a}, {b}) leaves no digit free to differ"
                    )
            if not 0.0 <= g.payoff_rate <= 1.0:
                raise ScenarioError(f"group {i}: payoff_rate must be in [0, 1]")
            if g.bundle_size < 1 or g.n_attackers < 1:
                raise ScenarioError(f"group {i}: bundle_size and n_attackers must be >= 1")
            if g.payoff_delay[0] < 1 or g.payoff_delay[1] < g.payoff_delay[0]:
                raise ScenarioError(f"group {i}: bad payoff_delay {g.payoff_delay}")
            if g.sibling_bundles > g.n_attacks or g.history_upgrades > g.n_attacks:
                raise ScenarioError(f"group {i}: more special attacks than n_attacks")
            if g.sibling_bundles + g.history_upgrades > g.n_attacks:
                raise ScenarioError(f"group {i}: sibling and upgrade attacks overlap")
            if g.offsets is not None and any(o < 1 for o in g.offsets):
                raise ScenarioError(f"group {i}: offsets must be >= 1")
            if g.history_upgrades > 0 and self.n_other_tokens < 1:
                raise ScenarioError("history_upgrades need at least one non-stablecoin token")
        for i, b in enumerate(self.bots):
            if not b.copies:
                raise ScenarioError(f"bot {i}: copies must name at least one group")
            if any(g < 0 or g >= len(self.groups) for g in b.copies):
                raise ScenarioError(f"bot {i}: copies reference unknown group")
            if b.delay_blocks < 0 or b.n_copies < 1:
                raise ScenarioError(f"bot {i}: bad delay or copy count")
        if self.contested_payoffs > 0 and len(self.groups) < 2:
            raise ScenarioError("contested payoffs need at least two groups")
        if any(w not in (0, 1) for w in self.contested_winners):
            raise ScenarioError("contested_winners entries must be 0 or 1")
        if self.cross_chain_reuse > 0 and len(self.chain_ids) < 2:
            raise ScenarioError("cross_chain_reuse needs two chains")
        if self.cross_chain_reuse > 0 and not self.groups:
            raise ScenarioError("cross_chain_reuse needs a group to replay")
        if min(self.typos, self.decoy_payoffs, self.contested_payoffs, self.cross_chain_reuse) < 0:
            raise ScenarioError("event counts must be non-negative")
        if self.gas_used < 0 or self.gas_price < 0:
            raise ScenarioError("gas values must be non-negative")
        # every block the generator draws comes from one of these spans
        spans = [_poison_span(self, g) for g in self.groups]
        counts = {
            10: self.typos,
            30: self.cross_chain_reuse,
            220: self.decoy_payoffs + self.contested_payoffs,
        }
        spans += [_span(self, margin) for margin, n in counts.items() if n]
        short = max((lo - hi + 1 for lo, hi in spans), default=0)
        if short > 0:
            raise ScenarioError(
                f"n_blocks {self.n_blocks} too small for requested attacks; "
                f"need >= {self.n_blocks + short}"
            )

    def to_json_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioSpec":
        spec = from_json(cls, raw, ScenarioError)
        spec.validate()
        return spec

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(parse_json(Path(path).read_text(encoding="utf-8"), path))


def _span(spec: ScenarioSpec, margin: int) -> tuple[int, int]:
    """The [lo, hi) blocks a trigger may take when what follows it ends
    within the first chain's window plus ``margin`` blocks."""
    window = default_config(spec.chain_ids[0]).window_blocks
    return spec.start_block + 2, spec.start_block + spec.n_blocks - window - margin


def _poison_span(spec: ScenarioSpec, group: GroupSpec) -> tuple[int, int]:
    """The [lo, hi) blocks a poisoning of ``group`` may take: room behind it
    for its furthest trigger or sibling, ahead of it for its latest payoff."""
    window = default_config(spec.chain_ids[0]).window_blocks
    max_offset = max(group.offsets) if group.offsets else window
    return (
        spec.start_block + max(max_offset, window + 45) + 2,
        spec.start_block + spec.n_blocks - max(group.payoff_delay[1], 250) - 10,
    )


# ---------------------------------------------------------------------------
# ground truth


class GroundTruth:
    """Planted labels for a generated scenario.

    Events absent from the rows are benign. Each row records the label,
    the true group index (None for bot copies and accidental transfers),
    and the (victim, intended, lookalike) binding.
    """

    def __init__(self, rows: Iterable[dict], bots: Iterable[str] = ()):
        self.rows = tuple(sorted(rows, key=lambda r: (r["chain_id"], r["key"])))
        self.bots = frozenset(bots)
        if len({(r["chain_id"], r["key"]) for r in self.rows}) != len(self.rows):
            raise ScenarioError("duplicate ground-truth keys")

    def rows_for(self, chain_id: int, labels: Iterable[str] | None = None) -> tuple[dict, ...]:
        wanted = frozenset(labels) if labels is not None else None
        return tuple(
            r
            for r in self.rows
            if r["chain_id"] == chain_id and (wanted is None or r["label"] in wanted)
        )

    def label_counts(self, chain_id: int | None = None) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rows:
            if chain_id is None or r["chain_id"] == chain_id:
                counts[r["label"]] = counts.get(r["label"], 0) + 1
        return counts

    def write_jsonl(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps({"kind": "event", **row}, sort_keys=True) + "\n")
            for account in sorted(self.bots):
                handle.write(json.dumps({"kind": "bot", "account": account}) + "\n")

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "GroundTruth":
        rows, bots = [], []
        for error, obj in jsonl_objects(path):
            kind = obj.pop("kind", None)
            if kind == "bot":
                bots += read_fields(obj, error, account=str)
            elif kind != "event":
                raise error(f"field 'kind' must be 'event' or 'bot', got {reprlib.repr(kind)}")
            else:
                # the fields that scoring reads
                read_fields(obj, error, chain_id=int, key=str, label=str, group=int | None)
                rows.append(obj)
        return cls(rows, bots)


@dataclass(frozen=True)
class ScoreCard:
    precision: float
    recall: float
    f1: float
    n_truth: int
    n_predicted: int
    true_positives: int
    rand_index: float | None = None


def score_labels(
    predicted: Mapping[str, str],
    truth: GroundTruth,
    chain_id: int,
    predicted_groups: Mapping[str, object] | None = None,
) -> ScoreCard:
    """Precision, recall, and F1 of predicted labels against planted truth.

    A prediction counts as correct only when the key and label both match.
    When predicted_groups maps poisoning keys to group ids, the pairwise
    Rand index over keys grouped in both partitions is included.
    """
    truth_pairs = {
        (r["key"], r["label"]) for r in truth.rows if r["chain_id"] == chain_id
    }
    pred_pairs = {(k, lab) for k, lab in predicted.items() if lab != Label.BENIGN}
    tp = len(truth_pairs & pred_pairs)
    precision = tp / len(pred_pairs) if pred_pairs else 1.0
    recall = tp / len(truth_pairs) if truth_pairs else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    rand = None
    if predicted_groups is not None:
        true_groups = {
            r["key"]: r["group"]
            for r in truth.rows
            if r["chain_id"] == chain_id and r["label"] in Label.POISONS and r["group"] is not None
        }
        rand = rand_index(true_groups, predicted_groups)
    return ScoreCard(
        precision=precision,
        recall=recall,
        f1=f1,
        n_truth=len(truth_pairs),
        n_predicted=len(pred_pairs),
        true_positives=tp,
        rand_index=rand,
    )


# ---------------------------------------------------------------------------
# generation internals


@dataclass
class _PlannedEvent:
    token: TokenRef
    from_addr: str
    to_addr: str
    value: int
    truth: dict | None = None


@dataclass
class _PlannedTx:
    seq: int
    chain_id: int
    block: int
    events: list[_PlannedEvent]
    initiator: str | None = None
    target: str | None = None
    with_gas: bool = False


@dataclass
class _GroupState:
    """Planning artifacts for one group, reused by bots, contested
    payoffs, and cross-chain replays."""

    index: int
    attackers: list[str]
    contract: str
    counterfeit: TokenRef
    # (block, event, tx target, binding, label) per copyable poisoning
    copyable: list[tuple[int, _PlannedEvent, str, dict, str]] = field(default_factory=list)
    # (binding of the first victim, attacker) per attack but history upgrades
    replayable: list[tuple[dict, str]] = field(default_factory=list)


class _Generator:
    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.used_addresses: set[str] = set()
        self.txs: list[_PlannedTx] = []
        self.seq = 0
        self.bots: list[str] = []
        self.tx_counts: dict[tuple[int, str], int] = {}
        self.accounts: dict[int, dict[str, int]] = {c: {} for c in spec.chain_ids}
        self.configs = {c: default_config(c) for c in spec.chain_ids}
        self.window = self.configs[spec.chain_ids[0]].window_blocks
        self.stablecoins: dict[int, list[TokenRef]] = {}
        self.others: dict[int, list[TokenRef]] = {}
        self.registry_entries: list[RegistryEntry] = []
        self.group_states: list[_GroupState] = []

    # -- primitives -------------------------------------------------------

    def new_address(self) -> str:
        while True:
            addr = f"0x{self.rng.getrandbits(160):040x}"
            if addr not in self.used_addresses:
                self.used_addresses.add(addr)
                return addr

    def lookalike(self, intended: str, a: int, b: int) -> str:
        """String surgery on the intended address hitting (a, b) exactly."""
        return _surgery(self.rng, self.used_addresses, intended, a, b)

    def add_tx(
        self,
        chain_id: int,
        block: int,
        events: list[_PlannedEvent],
        initiator: str | None = None,
        target: str | None = None,
        with_gas: bool = False,
    ) -> _PlannedTx:
        tx = _PlannedTx(self.seq, chain_id, block, events, initiator, target, with_gas)
        self.seq += 1
        self.txs.append(tx)
        if initiator is not None:
            key = (chain_id, initiator)
            self.tx_counts[key] = self.tx_counts.get(key, 0) + 1
        return tx

    def usd_value(self, lo: int, hi: int) -> int:
        """A stablecoin raw value worth lo..hi whole dollars."""
        return self.rng.randrange(lo, hi) * 10**6

    # -- tokens and traffic ----------------------------------------------

    def build_tokens(self) -> None:
        for chain in self.spec.chain_ids:
            stables, others = [], []
            for i in range(self.spec.n_stablecoins):
                token = TokenRef(chain, self.new_address(), f"USD{chr(65 + i)}", 6)
                stables.append(token)
                self.registry_entries.append(RegistryEntry(token, authentic=True, stablecoin=True))
            for i in range(self.spec.n_other_tokens):
                token = TokenRef(chain, self.new_address(), f"TOK{i}", 18)
                others.append(token)
                self.registry_entries.append(RegistryEntry(token, authentic=True, stablecoin=False))
            self.stablecoins[chain] = stables
            self.others[chain] = others

    def plan_benign(self, chain_id: int) -> None:
        spec = self.spec
        users = [self.new_address() for _ in range(spec.n_benign_users)]
        stables = self.stablecoins[chain_id]
        for block in range(spec.start_block, spec.start_block + spec.n_blocks):
            for _ in range(spec.benign_per_block):
                sender, receiver = self.rng.sample(users, 2)
                token = stables[self.rng.randrange(len(stables))]
                value = self.usd_value(10, 5000)
                self.add_tx(chain_id, block, [_PlannedEvent(token, sender, receiver, value)])
        for user in users[: min(6, len(users))]:
            self.accounts[chain_id][user] = 50 + self.rng.randrange(500)

    # -- attacks ----------------------------------------------------------

    def plan_trigger(
        self, chain: int, victim: str, intended: str, block: int, truth: dict | None = None
    ) -> _PlannedEvent:
        """The victim's payment to the counterparty it meant to pay."""
        token = self.stablecoins[chain][0]
        ev = _PlannedEvent(token, victim, intended, self.usd_value(100, 2000), truth)
        self.add_tx(chain, block, [ev])
        return ev

    def plan_payment(self, chain: int, block: int, victim: str, dest: str, truth: dict) -> None:
        """The victim's stablecoin payment to ``dest``, with gas paid."""
        token = self.stablecoins[chain][0]
        pay = _PlannedEvent(token, victim, dest, self.usd_value(100, 2000), truth)
        self.add_tx(chain, block, [pay], victim, token.address, with_gas=True)

    def plan_groups(self) -> None:
        chain = self.spec.chain_ids[0]
        for g_idx, gspec in enumerate(self.spec.groups):
            state = _GroupState(
                index=g_idx,
                attackers=[self.new_address() for _ in range(gspec.n_attackers)],
                contract=self.new_address(),
                counterfeit=TokenRef(chain, self.new_address(), f"FAKE{g_idx}", 6),
            )
            self.group_states.append(state)
            lo, hi = _poison_span(self.spec, gspec)
            upgrade_from = gspec.n_attacks - gspec.history_upgrades
            for i in range(gspec.n_attacks):
                if i >= upgrade_from:
                    self.plan_history_upgrade(chain, gspec, state, lo, hi)
                    continue
                self.plan_attack(chain, gspec, state, i, lo, hi)

    def plan_attack(
        self, chain: int, gspec: GroupSpec, state: _GroupState, i: int, lo: int, hi: int
    ) -> None:
        rng = self.rng
        strategy = gspec.strategies[i % len(gspec.strategies)]
        a, b = gspec.scores[i % len(gspec.scores)]
        sibling = i < gspec.sibling_bundles
        n_ctx = max(2, gspec.bundle_size) if sibling else gspec.bundle_size
        poison_block = rng.randrange(lo, hi)
        if gspec.offsets:
            offset0 = gspec.offsets[i % len(gspec.offsets)]
        else:
            offset0 = rng.randint(1, self.window)
        attacker = state.attackers[i % len(state.attackers)]
        poison_events: list[_PlannedEvent] = []
        # (trigger, binding) per bundled victim
        contexts: list[tuple[_PlannedEvent, dict]] = []
        for j in range(n_ctx):
            victim = self.new_address()
            intended = self.new_address()
            look = self.lookalike(intended, a, b)
            if j == 0:
                offset = offset0
            elif sibling:
                offset = self.window + 2 + rng.randint(0, 40)
            else:
                offset = rng.randint(1, self.window)
            trigger = self.plan_trigger(chain, victim, intended, poison_block - offset)
            token = self.stablecoins[chain][rng.randrange(len(self.stablecoins[chain]))]
            if strategy == "tiny":
                ev = _PlannedEvent(token, look, victim, self.usd_value(1, 9))
            elif strategy == "zero":
                ev = _PlannedEvent(token, victim, look, 0)
            else:
                ev = _PlannedEvent(state.counterfeit, victim, look, self.usd_value(100, 2000))
            poison_events.append(ev)
            contexts.append((trigger, _binding(victim, intended, look, a, b, offset)))
        label = _LABELS[strategy]
        # one in-window hit makes every transfer in the transaction
        # classifiable through shared-transaction expansion
        planted = any(binding["offset"] <= self.window + 1 for _, binding in contexts)
        if planted:
            for ev, (trigger, binding) in zip(poison_events, contexts):
                trigger.truth = {"label": Label.INTENDED, "group": state.index, **binding}
                ev.truth = {"label": label, "group": state.index, **binding}
        tx_target = state.contract if n_ctx > 1 else poison_events[0].token.address
        self.add_tx(chain, poison_block, poison_events, attacker, tx_target, with_gas=True)
        if strategy != "tiny":
            for ev, (_, binding) in zip(poison_events, contexts):
                state.copyable.append((poison_block, ev, tx_target, binding, label))
        binding = contexts[0][1]
        if planted and rng.random() < gspec.payoff_rate:
            pay_block = poison_block + rng.randint(*gspec.payoff_delay)
            truth = {"label": Label.PAYOFF_CONFIRMED, "group": state.index, **binding}
            self.plan_payment(chain, pay_block, binding["victim"], binding["lookalike"], truth)
        state.replayable.append((binding, attacker))

    def plan_history_upgrade(
        self, chain: int, gspec: GroupSpec, state: _GroupState, lo: int, hi: int
    ) -> None:
        """Attack whose poisoning is a non-stablecoin tiny transfer: the
        windowed scan cannot collect it, so the payoff starts unconfirmed
        and upgrades only on the full-history pass."""
        rng = self.rng
        a, b = gspec.scores[0]
        victim = self.new_address()
        intended = self.new_address()
        look = self.lookalike(intended, a, b)
        block = rng.randrange(lo, hi)
        offset = rng.randint(1, self.window - 10)
        pay_offset = rng.randint(offset + 1, self.window)
        row = {"group": state.index, **_binding(victim, intended, look, a, b, offset)}
        self.plan_trigger(chain, victim, intended, block, {"label": Label.INTENDED, **row})
        other = self.others[chain][0]
        ev = _PlannedEvent(other, look, victim, rng.randrange(2, 18) * 10**17)
        self.add_tx(chain, block + offset, [ev], state.attackers[0], other.address, with_gas=True)
        truth = {"label": Label.PAYOFF_CONFIRMED, **row}
        self.plan_payment(chain, block + pay_offset, victim, look, truth)

    def plan_bots(self) -> None:
        chain = self.spec.chain_ids[0]
        for bspec in self.spec.bots:
            bot = self.new_address()
            self.bots.append(bot)
            for g_idx in bspec.copies:
                state = self.group_states[g_idx]
                for block, original, target, binding, label in state.copyable[: bspec.n_copies]:
                    copy_block = block + bspec.delay_blocks
                    value = original.value
                    if bspec.mutate and value > 0:
                        value += 1
                    copy = _PlannedEvent(original.token, original.from_addr, original.to_addr, value)
                    copy_offset = binding["offset"] + bspec.delay_blocks
                    # each copy rides alone in its own transaction, so it is
                    # only detectable when it lands inside the victim window
                    if copy_offset <= self.window + 1:
                        copy.truth = {"label": label, "group": None}
                        copy.truth.update(binding, offset=copy_offset)
                    self.add_tx(chain, copy_block, [copy], bot, target, with_gas=True)
            self.accounts[chain][bot] = max(10 * self.tx_counts.get((chain, bot), 0), 10)

    def plan_typos(self) -> None:
        chain = self.spec.chain_ids[0]
        rng = self.rng
        lo, hi = _span(self.spec, 10)
        for _ in range(self.spec.typos):
            victim = self.new_address()
            intended = self.new_address()
            block = rng.randrange(lo, hi)
            offset = rng.randint(2, self.window - 5)
            dest = self.typo_of(intended)
            sc = score(dest, intended)
            row = {"group": None, **_binding(victim, intended, dest, sc.a, sc.b, offset)}
            self.plan_trigger(chain, victim, intended, block, {"label": Label.INTENDED, **row})
            truth = {"label": Label.ACCIDENTAL, "edit_distance": 1, **row}
            self.plan_payment(chain, block + offset, victim, dest, truth)

    def typo_of(self, intended: str) -> str:
        """Single-edit corruption of the intended address, placed so the
        result still clears the (3, 4) collection thresholds."""
        rng = self.rng
        digits = hex_digits(intended)
        while True:
            if rng.random() < 0.5:
                pos = rng.randint(3, 35)
                chars = list(digits)
                chars[pos] = _other_digit(rng, chars[pos], chars[pos])
            else:
                spots = [j for j in range(3, 35) if digits[j] != digits[j + 1]]
                if not spots:
                    continue
                j = rng.choice(spots)
                chars = list(digits)
                chars[j], chars[j + 1] = chars[j + 1], chars[j]
            candidate = "0x" + "".join(chars)
            if candidate not in self.used_addresses:
                self.used_addresses.add(candidate)
                return candidate

    def plan_decoys(self) -> None:
        """Lookalike-shaped payments that stay unconfirmed: low positional
        overlap and the destination later spends the funds."""
        chain = self.spec.chain_ids[0]
        rng = self.rng
        token = self.stablecoins[chain][0]
        lo, hi = _span(self.spec, 220)
        for _ in range(self.spec.decoy_payoffs):
            victim = self.new_address()
            intended = self.new_address()
            dest = self.lookalike(intended, 5, 5)
            spender_sink = self.new_address()
            block = rng.randrange(lo, hi)
            offset = rng.randint(2, self.window - 5)
            row = {"group": None, **_binding(victim, intended, dest, 5, 5, offset)}
            self.plan_trigger(chain, victim, intended, block, {"label": Label.INTENDED, **row})
            truth = {"label": Label.PAYOFF_UNCONFIRMED, **row}
            self.plan_payment(chain, block + offset, victim, dest, truth)
            spend = _PlannedEvent(token, dest, spender_sink, self.usd_value(10, 90))
            spend_block = block + offset + 40 + rng.randint(0, 160)
            self.add_tx(chain, spend_block, [spend], dest, token.address)

    def plan_contested(self) -> None:
        """Two groups poison the same victim; the configured winner takes
        the payoff. Winner index 0 means the first (higher-similarity)
        group wins."""
        spec = self.spec
        chain = spec.chain_ids[0]
        rng = self.rng
        token = self.stablecoins[chain][0]
        lo, hi = _span(spec, 220)
        winners = spec.contested_winners or (0,)
        for c in range(spec.contested_payoffs):
            victim = self.new_address()
            intended = self.new_address()
            look_a = self.lookalike(intended, 5, 6)
            look_b = self.lookalike(intended, 3, 4)
            block = rng.randrange(lo, hi)
            row = {"group": None, **_binding(victim, intended, None, None, None, 0)}
            self.plan_trigger(chain, victim, intended, block, {"label": Label.INTENDED, **row})
            offset_a = rng.randint(1, 10)
            offset_b = offset_a + rng.randint(1, 10)
            pay_offset = offset_b + rng.randint(2, 60)
            rows = []
            for state, look, a, b, offset in (
                (self.group_states[0], look_a, 5, 6, offset_a),
                (self.group_states[1], look_b, 3, 4, offset_b),
            ):
                row = {"group": state.index, **_binding(victim, intended, look, a, b, offset)}
                rows.append(row)
                ev = _PlannedEvent(token, victim, look, 0, {"label": Label.ZERO, **row})
                attacker = state.attackers[0]
                self.add_tx(chain, block + offset, [ev], attacker, token.address, with_gas=True)
            row = rows[winners[c % len(winners)]]
            truth = {**row, "label": Label.PAYOFF_CONFIRMED, "offset": pay_offset}
            self.plan_payment(chain, block + pay_offset, victim, row["lookalike"], truth)

    def plan_cross_chain(self) -> None:
        """Replay leading group-0 contexts on the second chain with the
        same victim, intended, and lookalike addresses."""
        spec = self.spec
        if not spec.cross_chain_reuse:
            return
        chain = spec.chain_ids[1]
        rng = self.rng
        token = self.stablecoins[chain][0]
        lo, hi = _span(spec, 30)
        for binding, attacker in self.group_states[0].replayable[: spec.cross_chain_reuse]:
            block = rng.randrange(lo, hi)
            offset = rng.randint(1, self.window)
            row = {"group": 0, **binding, "offset": offset}
            victim, intended, look = binding["victim"], binding["intended"], binding["lookalike"]
            self.plan_trigger(chain, victim, intended, block, {"label": Label.INTENDED, **row})
            ev = _PlannedEvent(token, victim, look, 0, {"label": Label.ZERO, **row})
            self.add_tx(chain, block + offset, [ev], attacker, token.address, with_gas=True)

    # -- assembly ---------------------------------------------------------

    def finish_accounts(self) -> None:
        for state in self.group_states:
            for i, attacker in enumerate(state.attackers):
                for chain in self.spec.chain_ids:
                    count = self.tx_counts.get((chain, attacker), 0)
                    if count:
                        self.accounts[chain][attacker] = count + (i % 2)

    def materialize(self) -> "ScenarioBundle":
        spec = self.spec
        chains: dict[int, tuple[TransferEvent, ...]] = {}
        truth_rows: list[dict] = []
        for chain_id in spec.chain_ids:
            config = self.configs[chain_id]
            chain_txs = sorted(
                (t for t in self.txs if t.chain_id == chain_id), key=lambda t: (t.block, t.seq)
            )
            events: list[TransferEvent] = []
            block = None
            log_index = 0
            tx_pos = 0
            for tx in chain_txs:
                if tx.block != block:
                    block = tx.block
                    log_index = 0
                    tx_pos = 0
                digest = hashlib.sha256(
                    f"{chain_id}:{block}:{tx_pos}:{spec.seed}".encode()
                ).hexdigest()
                tx_hash = "0x" + digest
                tx_pos += 1
                record = None
                if tx.initiator is not None:
                    record = TransactionRecord(
                        initiator=tx.initiator,
                        target=tx.target,
                        gas_used=spec.gas_used if tx.with_gas else None,
                        gas_price=spec.gas_price if tx.with_gas else None,
                    )
                timestamp = spec.genesis_timestamp + block * config.block_time_seconds
                for ev in tx.events:
                    event = TransferEvent(
                        chain_id=chain_id,
                        block_number=block,
                        timestamp=timestamp,
                        tx_hash=tx_hash,
                        log_index=log_index,
                        token=ev.token.address,
                        from_addr=ev.from_addr,
                        to_addr=ev.to_addr,
                        value=ev.value,
                        tx=record,
                    )
                    log_index += 1
                    events.append(event)
                    if ev.truth is not None:
                        truth_rows.append({"chain_id": chain_id, "key": event.key, **ev.truth})
            validate_stream(events, name=f"chain {chain_id}")
            chains[chain_id] = tuple(events)
        prices = self.build_prices(chains)
        registry = TokenRegistry(self.registry_entries)
        truth = GroundTruth(truth_rows, self.bots)
        return ScenarioBundle(
            spec=spec,
            chains=chains,
            registry=registry,
            prices=prices,
            accounts={c: dict(m) for c, m in self.accounts.items()},
            truth=truth,
            configs=dict(self.configs),
        )

    def build_prices(self, chains: Mapping[int, tuple[TransferEvent, ...]]) -> PriceTable:
        rows: dict[tuple[str, object], Decimal] = {}
        for chain_id, events in chains.items():
            if not events:
                continue
            first = event_date(events[0].timestamp)
            last = event_date(events[-1].timestamp)
            days = []
            day = first
            while day <= last:
                days.append(day)
                day = day.fromordinal(day.toordinal() + 1)
            assets: list[tuple[str, Decimal]] = []
            for token in self.stablecoins[chain_id]:
                assets.append((token.address, _STABLE_PRICE))
            for token in self.others[chain_id]:
                assets.append((token.address, _OTHER_PRICE))
            native = self.configs[chain_id].native_asset
            assets.append((native, _NATIVE_PRICE.get(native, _DEFAULT_NATIVE_PRICE)))
            for asset, price in assets:
                for day in days:
                    rows[(asset, day)] = price
        return PriceTable(rows)

    def run(self) -> "ScenarioBundle":
        self.build_tokens()
        for chain_id in self.spec.chain_ids:
            self.plan_benign(chain_id)
        self.plan_groups()
        self.plan_bots()
        self.plan_typos()
        self.plan_decoys()
        self.plan_contested()
        self.plan_cross_chain()
        self.finish_accounts()
        return self.materialize()


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class ScenarioBundle:
    spec: ScenarioSpec
    chains: Mapping[int, tuple[TransferEvent, ...]]
    registry: TokenRegistry
    prices: PriceTable
    accounts: Mapping[int, dict[str, int]]
    truth: GroundTruth
    configs: Mapping[int, ChainConfig]

    def events(self, chain_id: int | None = None) -> tuple[TransferEvent, ...]:
        if chain_id is None:
            chain_id = self.spec.chain_ids[0]
        return self.chains[chain_id]

    def write(self, outdir: str | Path) -> dict[str, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        single = len(self.spec.chain_ids) == 1
        for chain_id in self.spec.chain_ids:
            name = "events.jsonl" if single else f"events_{chain_id}.jsonl"
            path = outdir / name
            write_events(path, self.chains[chain_id])
            paths[name] = path
            cfg_name = "config.json" if single else f"config_{chain_id}.json"
            cfg_path = outdir / cfg_name
            write_json(cfg_path, self.configs[chain_id].to_dict())
            paths[cfg_name] = cfg_path
            acct_name = "accounts.csv" if single else f"accounts_{chain_id}.csv"
            acct_path = outdir / acct_name
            write_account_history(acct_path, self.accounts[chain_id])
            paths[acct_name] = acct_path
        registry_path = outdir / "registry.jsonl"
        self.registry.to_jsonl(registry_path)
        paths["registry.jsonl"] = registry_path
        prices_path = outdir / "prices.csv"
        self.prices.write_csv(prices_path)
        paths["prices.csv"] = prices_path
        truth_path = outdir / "ground_truth.jsonl"
        self.truth.write_jsonl(truth_path)
        paths["ground_truth.jsonl"] = truth_path
        spec_path = outdir / "scenario.json"
        write_json(spec_path, self.spec.to_json_dict())
        paths["scenario.json"] = spec_path
        return paths


def generate(spec: ScenarioSpec) -> ScenarioBundle:
    """Generate a scenario bundle. Deterministic for a fixed spec."""
    return _Generator(spec).run()


def benign_stream(
    n_events: int,
    n_users: int = 20_000,
    seed: int = 0,
    chain_id: int = 1,
    events_per_block: int = 200,
    n_attacks: int = 5,
) -> tuple[list[TransferEvent], TokenRegistry, PriceTable, ChainConfig]:
    """Fast mostly-benign stream for throughput benchmarks.

    Skips the planning machinery: events are built directly in order,
    with n_attacks tiny-poisoning triples spread through the middle so a
    scan over the stream exercises its non-trivial paths. Prices resolve
    through the stablecoin parity fallback, so no price rows are needed.
    """
    rng = random.Random(seed)
    config = default_config(chain_id)
    stable = TokenRef(chain_id, f"0x{rng.getrandbits(160):040x}", "USDA", 6)
    registry = TokenRegistry([RegistryEntry(stable, authentic=True, stablecoin=True)])
    prices = PriceTable({}, parity_assets=[stable.address])
    used = {stable.address}
    users = []
    for _ in range(n_users):
        addr = f"0x{rng.getrandbits(160):040x}"
        users.append(addr)
        used.add(addr)
    token = stable.address
    events: list[TransferEvent] = []
    start_block = 1_000_000
    genesis = 1_704_067_200
    block_time = config.block_time_seconds
    attack_spacing = max(1, n_events // (n_attacks + 1)) if n_attacks else n_events + 1
    # (emit-at-counter, from, to, value); poison lands one block after its
    # trigger and the payoff two blocks after that, well inside the window
    pending: list[tuple[int, str, str, int]] = []
    counter = 0
    block = start_block
    in_block = 0
    while counter < n_events:
        if in_block == events_per_block:
            block += 1
            in_block = 0
        emit: tuple[str, str, int] | None = None
        if pending and pending[0][0] <= counter:
            _, frm, to, value = pending.pop(0)
            emit = (frm, to, value)
        elif n_attacks and counter and counter % attack_spacing == 0:
            victim = users[rng.randrange(n_users)]
            intended = users[rng.randrange(n_users)]
            while intended == victim:
                intended = users[rng.randrange(n_users)]
            look = _surgery(rng, used, intended, 3, 4)
            emit = (victim, intended, rng.randrange(100, 2000) * 10**6)
            pending.append((counter + events_per_block, look, victim, 2_500_000))
            pending.append((counter + 3 * events_per_block, victim, look, 900 * 10**6))
        if emit is None:
            frm = users[rng.randrange(n_users)]
            to = users[rng.randrange(n_users)]
            while to == frm:
                to = users[rng.randrange(n_users)]
            emit = (frm, to, rng.randrange(10, 5000) * 10**6)
        frm, to, value = emit
        events.append(
            TransferEvent(
                chain_id=chain_id,
                block_number=block,
                timestamp=genesis + block * block_time,
                tx_hash=f"0x{counter:064x}",
                log_index=in_block,
                token=token,
                from_addr=frm,
                to_addr=to,
                value=value,
            )
        )
        counter += 1
        in_block += 1
    return events, registry, prices, config
