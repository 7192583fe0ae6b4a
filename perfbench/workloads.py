"""Seeded inputs for the benchmark workloads and the checks on their outputs.

Every input is made from the workload's seed alone and written to files;
the program under test only ever sees those files. Each input's sha256 is
recorded so that two commits, or two machines, can be shown to have run
identical bytes.

Workloads and the layers each one is meant to load:

- uniform: benign_stream-shaped quiet-chain traffic (C10's stream). Parse
  and the windowed scan do the work; the finding layers see no transfer
  sets.
- hub: the same format and length, but both ends of a transfer are drawn
  from a Zipf-like law over the accounts, so a few exchange-like accounts
  touch a large share of transfers. The scan's walk over a victim's active
  counterparties dominates.
- campaigns: an attack-dense generate() scenario with tx metadata, account
  history and a full-history pass, the only workload where clustering,
  analytics and the bundle writers do real work, and the only one with
  ground truth for precision and recall.
- mining: `gen` over a fixed target list and budget; secp256k1, Keccak and
  addrgen share no code with the stream path.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from poisonscan import (
    BotSpec,
    ChainConfig,
    DetectionReport,
    GroundTruth,
    GroupSpec,
    Label,
    RegistryEntry,
    ScenarioSpec,
    TokenRef,
    TokenRegistry,
    TransferEvent,
    benign_stream,
    birthday_collision_prob,
    default_config,
    derive_address,
    generate,
    score,
    score_labels,
    write_events,
)

NAMES = ("uniform", "hub", "campaigns", "mining")


@dataclass(frozen=True)
class Scale:
    stream_events: int
    campaign_groups: int
    mining_trials: int


SCALES = {
    "full": Scale(stream_events=40_000, campaign_groups=300, mining_trials=2048),
    "tiny": Scale(stream_events=4_000, campaign_groups=8, mining_trials=48),
}

# benign_stream's shape, shared by the hub stream
N_USERS = 20_000
EVENTS_PER_BLOCK = 200
N_PLANTED = 6
START_BLOCK = 1_000_000
GENESIS = 1_704_067_200

# Zipf exponent of the hub stream's counterparty draw
HUB_EXPONENT = 0.8

MINING_TARGETS = 16
MINING_A_MIN = 2
MINING_B_MIN = 1


@dataclass
class Workload:
    """Generated inputs of one workload, and how to run and check it."""

    # poisonscan CLI arguments without --out, paths relative to the checkout root
    argv: list[str]
    # `gen` writes one file where `report` writes a directory
    out_file: str | None
    # stream events in a `report` run, or key trials in a `gen` run
    items: int
    # input files the set-up measurement loads, by loader
    loads: dict[str, str]
    # outdir -> (problems, figures worth printing)
    check: Callable[[Path], tuple[list[str], dict]]
    # outdir -> digest of report.json, the whole bundle or the match list
    output: Callable[[Path], str]
    digests: dict[str, str] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def bundle_digest(outdir: Path) -> str:
    """One digest over every file of an output bundle, names included."""
    digest = hashlib.sha256()
    for path in sorted(p for p in outdir.iterdir() if p.is_file()):
        digest.update(f"{path.name}\0{sha256_file(path)}\n".encode())
    return digest.hexdigest()


def build(name: str, seed: int, scale: str, directory: Path, root: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `directory`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    directory.mkdir(parents=True, exist_ok=True)
    size = SCALES[scale]
    rel = directory.relative_to(root)
    if name == "uniform":
        wl = _uniform(seed, size, directory, rel)
    elif name == "hub":
        wl = _hub(seed, size, directory, rel)
    elif name == "campaigns":
        wl = _campaigns(seed, size, directory, rel)
    else:
        wl = _mining(seed, size, directory, rel)
    wl.digests = {
        path.name: sha256_file(path)
        for path in sorted(directory.iterdir())
        if path.is_file()
    }
    return wl


# ---------------------------------------------------------------------------
# stream workloads


def _stream_files(directory: Path, events, registry: TokenRegistry, config: ChainConfig) -> None:
    write_events(directory / "events.jsonl", events)
    registry.to_jsonl(directory / "registry.jsonl")
    # the stream's only token prices through stablecoin parity, so the
    # price table holds no rows
    (directory / "prices.csv").write_text("asset,date,usd_price\n", encoding="utf-8")
    config = config.with_overrides(stablecoin_parity=True)
    (directory / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _report_argv(rel: Path, history: bool = False) -> list[str]:
    argv = [
        "report",
        "--events", str(rel / "events.jsonl"),
        "--config", str(rel / "config.json"),
        "--registry", str(rel / "registry.jsonl"),
        "--prices", str(rel / "prices.csv"),
        # unused by report, but manifest.json records it and its default
        # is the machine's core count
        "--workers", "1",
    ]
    if history:
        argv += ["--accounts", str(rel / "accounts.csv"), "--history", str(rel / "events.jsonl")]
    return argv


def _stream_loads(rel: Path) -> dict[str, str]:
    return {
        "config": str(rel / "config.json"),
        "registry": str(rel / "registry.jsonl"),
        "prices": str(rel / "prices.csv"),
    }


def _planted_check(planted: dict[str, str], hub_victims: set[str]):
    """Every planted poisoning and payoff carries its label; on the hub
    stream every planted hub victim, and no other, is birthday-excluded."""

    def check(outdir: Path) -> tuple[list[str], dict]:
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        labels = report["labels"]
        problems = [
            f"planted {key} labelled {labels.get(key, Label.BENIGN)!r}, expected {label!r}"
            for key, label in sorted(planted.items())
            if labels.get(key) != label
        ]
        if hub_victims:
            excluded = set(report["excluded_victims"])
            if not excluded or excluded != hub_victims & set(report["victim_recipients"]):
                problems.append(f"birthday-excluded {sorted(excluded)}, expected the hub victims {sorted(hub_victims)}")
        found = sum(1 for key, label in planted.items() if labels.get(key) == label)
        return problems, {"planted_found": found, "planted": len(planted)}

    return check


def _report_digest(outdir: Path) -> str:
    return sha256_file(outdir / "report.json")


def _uniform(seed: int, size: Scale, directory: Path, rel: Path) -> Workload:
    events, registry, _, config = benign_stream(
        size.stream_events, n_users=N_USERS, seed=seed, n_attacks=N_PLANTED
    )
    _stream_files(directory, events, registry, config)
    # benign traffic moves at least $10, so the $2.50 transfers are exactly
    # the planted poisonings; each payoff pays the poisoner back
    planted: dict[str, str] = {}
    poisons = {(ev.from_addr, ev.to_addr): ev for ev in events if ev.value == 2_500_000}
    for ev in events:
        if (ev.to_addr, ev.from_addr) in poisons:
            planted[ev.key] = Label.PAYOFF_CONFIRMED
    for ev in poisons.values():
        planted[ev.key] = Label.TINY
    return Workload(
        argv=_report_argv(rel),
        out_file=None,
        items=len(events),
        loads=_stream_loads(rel),
        check=_planted_check(planted, set()),
        output=_report_digest,
    )


def _lookalike(rng: random.Random, intended: str, taken: set[str]) -> str:
    """An address sharing exactly the first 3 and last 4 hex digits."""
    digits = intended[2:]
    while True:
        middle = [f"{rng.getrandbits(4):x}" for _ in range(33)]
        middle[0] = rng.choice([d for d in "0123456789abcdef" if d != digits[3]])
        middle[-1] = rng.choice([d for d in "0123456789abcdef" if d != digits[35]])
        candidate = "0x" + digits[:3] + "".join(middle) + digits[36:]
        if candidate not in taken:
            taken.add(candidate)
            return candidate


def _hub_events(n_events: int, seed: int) -> tuple[list[TransferEvent], TokenRegistry, ChainConfig, dict[str, str], set[str]]:
    """benign_stream's layout with Zipf-like counterparties.

    Returns the events, registry, config, the planted poisoning and payoff
    keys with their labels, and the planted victims that are hubs.
    """
    rng = random.Random(seed)
    chain_id = 1
    config = default_config(chain_id)
    stable = TokenRef(chain_id, f"0x{rng.getrandbits(160):040x}", "USDA", 6)
    registry = TokenRegistry([RegistryEntry(stable, authentic=True, stablecoin=True)])
    taken = {stable.address}
    users = []
    while len(users) < N_USERS:
        addr = f"0x{rng.getrandbits(160):040x}"
        if addr not in taken:
            taken.add(addr)
            users.append(addr)
    cumulative = []
    total = 0.0
    for rank in range(1, N_USERS + 1):
        total += rank ** -HUB_EXPONENT
        cumulative.append(total)

    def draw() -> str:
        return users[min(bisect.bisect_left(cumulative, rng.random() * total), N_USERS - 1)]

    spacing = n_events // (N_PLANTED + 1)
    # (emit at counter, from, to, value), as in benign_stream: the poison
    # lands one block after its trigger and the payoff two blocks later
    pending: list[tuple[int, str, str, int]] = []
    planted: dict[str, str] = {}
    hub_victims: set[str] = set()
    events: list[TransferEvent] = []
    block = START_BLOCK
    in_block = 0
    for counter in range(n_events):
        if in_block == EVENTS_PER_BLOCK:
            block += 1
            in_block = 0
        label = None
        if pending and pending[0][0] <= counter:
            _, frm, to, value = pending.pop(0)
            label = Label.TINY if value == 2_500_000 else Label.PAYOFF_CONFIRMED
        elif counter and counter % spacing == 0:
            # odd attacks target the busiest account, even ones a uniform draw
            attack = counter // spacing
            frm = users[0] if attack % 2 else users[rng.randrange(N_USERS)]
            if attack % 2:
                hub_victims.add(frm)
            to = draw()
            while to == frm:
                to = draw()
            look = _lookalike(rng, to, taken)
            value = rng.randrange(100, 2000) * 10**6
            pending.append((counter + EVENTS_PER_BLOCK, look, frm, 2_500_000))
            pending.append((counter + 3 * EVENTS_PER_BLOCK, frm, look, 900 * 10**6))
        else:
            frm = draw()
            to = draw()
            while to == frm:
                to = draw()
            value = rng.randrange(10, 5000) * 10**6
        tx_hash = f"0x{counter:064x}"
        if label is not None:
            planted[f"{tx_hash}:{in_block}"] = label
        events.append(
            TransferEvent(
                chain_id=chain_id,
                block_number=block,
                timestamp=GENESIS + block * config.block_time_seconds,
                tx_hash=tx_hash,
                log_index=in_block,
                token=stable.address,
                from_addr=frm,
                to_addr=to,
                value=value,
            )
        )
        in_block += 1
    # The default birthday_alpha of 0.999 excludes a victim only past about
    # 61k distinct counterparties, more accounts than the stream has. Set it
    # where the busiest account, with half its counterparties, would be
    # excluded, so birthday_filter removes the hub victims and no other.
    recipients = len({ev.to_addr for ev in events if ev.from_addr == users[0]})
    alpha = birthday_collision_prob(max(1, recipients // 2), digits=config.a_min + config.b_min)
    config = config.with_overrides(birthday_alpha=alpha)
    return events, registry, config, planted, hub_victims


def _hub(seed: int, size: Scale, directory: Path, rel: Path) -> Workload:
    events, registry, config, planted, hub_victims = _hub_events(size.stream_events, seed)
    _stream_files(directory, events, registry, config)
    return Workload(
        argv=_report_argv(rel),
        out_file=None,
        items=len(events),
        loads=_stream_loads(rel),
        check=_planted_check(planted, hub_victims),
        output=_report_digest,
    )


# ---------------------------------------------------------------------------
# campaigns

# four group shapes cycled over the groups: every poisoning strategy,
# similarity depth, bundled and sibling-bundled victims, several
# attackers, and history upgrades that only confirm_payoffs can confirm
_GROUP_SHAPES = (
    GroupSpec(n_attacks=6, strategies=("tiny", "zero", "counterfeit"), scores=((3, 4), (4, 5)),
              bundle_size=2, sibling_bundles=1, history_upgrades=1, payoff_rate=0.9, n_attackers=2),
    GroupSpec(n_attacks=8, strategies=("zero",), scores=((5, 6),), payoff_rate=0.6, n_attackers=1),
    GroupSpec(n_attacks=10, strategies=("counterfeit", "tiny"), scores=((7, 6), (4, 4)),
              history_upgrades=1, payoff_rate=0.8, n_attackers=3),
    GroupSpec(n_attacks=12, strategies=("tiny",), scores=((3, 4),), bundle_size=3,
              sibling_bundles=1, payoff_rate=0.7, n_attackers=2),
)


def campaign_spec(seed: int, n_groups: int) -> ScenarioSpec:
    groups = tuple(_GROUP_SHAPES[i % len(_GROUP_SHAPES)] for i in range(n_groups))
    bots = tuple(
        BotSpec(copies=(g, g + 1), n_copies=2, delay_blocks=g % 3)
        for g in range(0, min(n_groups - 1, 40), 4)
    )
    extras = max(1, n_groups // 10)
    return ScenarioSpec(
        seed=seed,
        n_blocks=max(600, 10 * n_groups),
        n_benign_users=400,
        benign_per_block=4,
        groups=groups,
        bots=bots,
        typos=extras,
        decoy_payoffs=extras,
        contested_payoffs=extras,
        contested_winners=(0, 1),
    )


def _campaigns(seed: int, size: Scale, directory: Path, rel: Path) -> Workload:
    bundle = generate(campaign_spec(seed, size.campaign_groups))
    bundle.write(directory)
    truth_path = directory / "ground_truth.jsonl"
    chain_id = bundle.spec.chain_ids[0]

    def check(outdir: Path) -> tuple[list[str], dict]:
        truth = GroundTruth.read_jsonl(truth_path)
        report = DetectionReport.read_json(outdir / "report.json")
        card = score_labels(report.labels, truth, chain_id)
        problems = []
        # the detector finds every planted label on generated scenarios,
        # the history upgrades included, and nothing else; any drop is a
        # regression
        if card.precision != 1.0 or card.recall != 1.0:
            problems.append(f"precision {card.precision!r}, recall {card.recall!r}; both should be 1.0")
        return problems, {"precision": card.precision, "recall": card.recall}

    return Workload(
        argv=_report_argv(rel, history=True),
        out_file=None,
        items=len(bundle.events()),
        loads={**_stream_loads(rel), "accounts": str(rel / "accounts.csv")},
        check=check,
        output=bundle_digest,
    )


# ---------------------------------------------------------------------------
# mining


def _mining(seed: int, size: Scale, directory: Path, rel: Path) -> Workload:
    rng = random.Random(seed)
    targets = [f"0x{rng.getrandbits(160):040x}" for _ in range(MINING_TARGETS)]
    (directory / "targets.txt").write_text("\n".join(targets) + "\n", encoding="utf-8")
    trials = size.mining_trials

    def check(outdir: Path) -> tuple[list[str], dict]:
        payload = json.loads((outdir / "matches.json").read_text(encoding="utf-8"))
        problems = []
        if payload["trials"] != trials:
            problems.append(f"{payload['trials']} trials, expected {trials}")
        for match in payload["matches"]:
            address = derive_address(int(match["private_key"], 16))
            got = score(address, match["target"])
            if address != match["address"] or (got.a, got.b) != (match["a"], match["b"]):
                problems.append(f"match {match['address']} does not verify")
            elif got.a < MINING_A_MIN or got.b < MINING_B_MIN:
                problems.append(f"match {match['address']} is below the threshold")
        return problems, {"matches": len(payload["matches"])}

    return Workload(
        argv=[
            "gen",
            "--targets", str(rel / "targets.txt"),
            "--a-min", str(MINING_A_MIN),
            "--b-min", str(MINING_B_MIN),
            "--matches", "0",
            "--budget", str(trials),
            "--seed", str(seed),
            "--workers", "1",
        ],
        out_file="matches.json",
        items=trials,
        loads={"targets": str(rel / "targets.txt")},
        check=check,
        output=lambda outdir: sha256_file(outdir / "matches.json"),
    )
