"""Group detected attacks by shared infrastructure, ignoring copy bots.

Two unrelated campaigns run side by side while a copying bot replays both
of them. Merging on shared transactions, lookalikes, and funded accounts
would fuse the campaigns through the bot; filtering accounts whose history
is mostly non-poisoning traffic keeps them apart.
"""

from poisonscan.clustering import attack_ratio, build_transfer_sets, cluster, temporal_clusters
from poisonscan.detector import scan
from poisonscan.scenario import BotSpec, GroupSpec, ScenarioSpec, generate


def make_bundle():
    spec = ScenarioSpec(
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
    return generate(spec)


def main() -> None:
    bundle = make_bundle()
    config = bundle.configs[1]
    report = scan(bundle.events(), config, bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    ratios = attack_ratio(sets, bundle.accounts[1])

    for threshold in (0.5, 0.0):
        groups = cluster(sets, threshold, ratios=ratios)
        print(f"bot threshold {threshold}: {len(groups)} group(s)")
        for rank, group in enumerate(groups, 1):
            print(
                f"  #{rank} {group.group_id}  lookalikes {group.lookalikes}, "
                f"transfers {group.transfers}, attackers {group.attackers}, "
                f"blocks {group.first_block}-{group.last_block}"
            )
        print()

    mid = (config.window_blocks * 3) + bundle.chains[1][0].block_number
    end = bundle.chains[1][-1].block_number
    rows = temporal_clusters(sets, [mid, end], history=bundle.accounts[1])
    print("growth over time (group lineage across checkpoints):")
    for row in rows:
        print(
            f"  block {row['checkpoint']:>6}  #{row['rank']} {row['group_id']}"
            f"  <- {row['lineage']}  lookalikes {row['lookalikes']}"
        )


if __name__ == "__main__":
    main()
