"""Plant a poisoning campaign in synthetic traffic, then find every transfer.

Generates a labeled scenario with all three poisoning types, decoy payoffs,
and accidental typos, runs the full detection pipeline, and checks the
findings against the planted ground truth.
"""

from poisonscan.detector import scan
from poisonscan.scenario import GroupSpec, ScenarioSpec, generate, score_labels


def main() -> None:
    spec = ScenarioSpec(
        seed=4,
        n_blocks=900,
        groups=(
            GroupSpec(
                n_attacks=6,
                strategies=("tiny", "zero", "counterfeit"),
                scores=((3, 4), (5, 6)),
                bundle_size=2,
                payoff_rate=0.5,
            ),
            GroupSpec(n_attacks=3, strategies=("zero",), scores=((4, 5),), payoff_rate=1.0),
        ),
        typos=2,
        decoy_payoffs=1,
    )
    bundle = generate(spec)
    events = list(bundle.events())
    config = bundle.configs[1]
    report = scan(events, config, bundle.registry, bundle.prices, history=events)

    print(f"stream: {len(events):,} transfer events over {spec.n_blocks} blocks")
    print("findings:")
    for label, count in sorted(report.headline_counts().items()):
        print(f"  {label:<20} {count}")

    ctx = report.contexts[0]
    print()
    print("one attack, reconstructed:")
    print(f"  victim    {ctx.victim}")
    print(f"  intended  {ctx.intended}")
    print(f"  lookalike {ctx.lookalike}")
    print(f"  evidence  {len(ctx.evidence)} poisoning transfer(s)")

    card = score_labels(report.labels, bundle.truth, config.chain_id)
    print()
    print(
        f"against planted truth: precision {card.precision:.3f}, "
        f"recall {card.recall:.3f} over {card.n_truth} labeled transfers"
    )


if __name__ == "__main__":
    main()
