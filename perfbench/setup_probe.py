"""Set-up time of a fresh process: import poisonscan and load one
workload's inputs through the public loaders.

    python3 perfbench/setup_probe.py LOADS_JSON

LOADS_JSON maps a loader to its input file (config, registry, prices,
accounts, targets). Loading targets also derives one address, which
builds the lazy secp256k1 base table a `gen` run needs. Prints the
seconds taken, from before the import to the last load.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(loads: dict) -> None:
    from poisonscan import (
        ChainConfig,
        PriceTable,
        TokenRegistry,
        derive_address,
        load_account_history,
        parse_address,
    )

    if "config" in loads:
        config = ChainConfig.from_json_file(loads["config"])
        registry = TokenRegistry.from_jsonl(loads["registry"])
        PriceTable.from_csv(loads["prices"], parity_assets=registry.stablecoins(config.chain_id))
    if "accounts" in loads:
        load_account_history(loads["accounts"])
    if "targets" in loads:
        with open(loads["targets"], encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    parse_address(line.strip())
        derive_address(1)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
    print(time.perf_counter() - started)
