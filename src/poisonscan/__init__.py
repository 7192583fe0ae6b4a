"""Detection, clustering, and economics of blockchain address-poisoning attacks.

The pipeline reads ordered token-transfer events, labels poisoning and
payoff transfers (detector), merges attacks into groups over shared
infrastructure while discarding copy bots (clustering), and prices each
group's revenue, cost, and competition (analytics). Supporting modules
provide the domain types and file formats (core, ingest), address
similarity and mining-cost models (similarity, addrgen), a labeled
scenario generator for testing and benchmarks (scenario), and a
command-line driver with reproducible output bundles (cli).

Each public name loads its module on first use: ``import poisonscan``
imports no layer, and ``from poisonscan import GenModel`` imports only
``similarity`` and what it needs. ``_EXPORTS`` is the one list of names.

The package does not import ``poisonscan.cli``: ``python -m poisonscan.cli``
would then execute that module twice, once on import and once as
``__main__``.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names the package root lends from it
_EXPORTS: dict[str, tuple[str, ...]] = {
    "addrgen": ("GenStats", "Match", "SearchSpec", "derive_address", "search"),
    "analytics": (
        "CompetitionRecord",
        "Competitor",
        "GroupEconomics",
        "build_competitions",
        "group_economics",
        "most_imitated_targets",
        "similarity_distribution",
        "spearman",
        "success_ranks",
        "targeting_correlation",
        "win_loss_matrix",
    ),
    "clustering": (
        "AccountProfile",
        "AttackGroup",
        "AttackTransferSet",
        "account_profiles",
        "attack_ratio",
        "build_transfer_sets",
        "cluster",
        "cross_chain_reuse",
        "groups_to_csv",
        "rand_index",
        "temporal_clusters",
    ),
    "core": (
        "USD_QUANTUM",
        "Address",
        "AddressError",
        "AnalyticsError",
        "ChainConfig",
        "ClusteringError",
        "ConfigError",
        "Label",
        "OrderingError",
        "ParseError",
        "PoisonscanError",
        "PriceTable",
        "RegistryEntry",
        "RegistryError",
        "ScenarioError",
        "TokenRef",
        "TokenRegistry",
        "TransactionRecord",
        "TransferEvent",
        "default_config",
        "event_date",
        "hex_digits",
        "parse_address",
        "usd_amount",
    ),
    "detector": (
        "AttackContext",
        "DetectionReport",
        "EventDetail",
        "PayoffRecord",
        "birthday_filter",
        "scan",
        "sensitivity_run",
    ),
    "ingest": (
        "iter_events",
        "load_account_history",
        "validate_stream",
        "write_account_history",
        "write_events",
    ),
    "scenario": (
        "BotSpec",
        "GroundTruth",
        "GroupSpec",
        "ScenarioBundle",
        "ScenarioSpec",
        "ScoreCard",
        "benign_stream",
        "generate",
        "score_labels",
    ),
    "similarity": (
        "GenModel",
        "HardwareEstimate",
        "SimilarityScore",
        "birthday_collision_prob",
        "expected_trials",
        "hardware_estimate",
        "match_probability",
        "osa_distance",
        "positional_matches",
        "score",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Import ``name``'s home module on first use and keep the value here,
    so later lookups never reach this function."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
