"""Who makes money, and who loses the race to the same victim?

A scenario where two campaigns poison the same victims and only the
transfer the victim copies last wins. Prints per-group profit and loss,
the head-to-head win matrix, and the most imitated recipients.
"""

from poisonscan.analytics import (
    build_competitions,
    group_economics,
    most_imitated_targets,
    success_ranks,
    win_loss_matrix,
)
from poisonscan.clustering import attack_ratio, build_transfer_sets, cluster
from poisonscan.detector import scan
from poisonscan.scenario import GroupSpec, ScenarioSpec, generate


def main() -> None:
    spec = ScenarioSpec(
        seed=11,
        n_blocks=900,
        groups=(
            GroupSpec(
                n_attacks=4, n_attackers=1, strategies=("zero",), scores=((4, 5),), payoff_rate=0.0
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
    bundle = generate(spec)
    events = list(bundle.events())
    report = scan(events, bundle.configs[1], bundle.registry, bundle.prices)
    sets = build_transfer_sets(report)
    groups = cluster(sets, 0.5, ratios=attack_ratio(sets, bundle.accounts[1]))

    print("per-group economics:")
    for rank, row in enumerate(group_economics(groups, sets, report, bundle.prices), 1):
        outcome = {1: "profit", 0: "break-even", -1: "loss"}[row.profit_sign]
        print(
            f"  #{rank} {row.group_id}  payoffs {row.n_success}, "
            f"revenue {row.revenue_usd} USD, cost {row.cost_usd} USD, "
            f"net {row.profit_usd} USD ({outcome})"
        )

    records = build_competitions(report, sets, groups)
    contested = sum(1 for r in records if r.competitors and len(r.competitors) > 1)
    print()
    print(f"competition: {len(records)} payoffs, {contested} contested by several lookalikes")
    for (left, right), ratio in sorted(win_loss_matrix(records).items()):
        print(f"  {left} beats {right} in {ratio:.0%} of shared contests")

    print()
    print("winning lookalike ranks (1 = best in pool):")
    ranks = success_ranks(records)
    for name in ("similarity_rank", "timing_rank"):
        cells = ", ".join(f"rank {k}: {v}" for k, v in sorted(ranks[name].items()))
        print(f"  {name:<16} {cells}")

    print()
    print("most imitated recipients:")
    for row in most_imitated_targets(report, k=3):
        print(
            f"  {row['intended']}  lookalikes {row['lookalikes']}, "
            f"poisoning transfers {row['transfers']}"
        )


if __name__ == "__main__":
    main()
