"""JSON-RPC client for pulling token transfer logs from a chain node.

Block ranges are fanned out across parallel workers, each fetching a
contiguous sub-range, and results are merged back in stream order.
Transient failures retry with exponential backoff; block timestamps are
resolved once per distinct block.
"""

from __future__ import annotations

import http.client
import itertools
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import replace

from .core import RpcError, TRANSFER_TOPIC, TransferEvent, parse_address

__all__ = ["fetch_logs"]

_id_counter = itertools.count(1)


def _rpc_call(
    endpoint: str,
    method: str,
    params: list,
    *,
    max_attempts: int,
    backoff_base: float,
    timeout: float,
    range_hint: tuple[int, int] | None = None,
):
    last_error = "no attempts made"
    for attempt in range(max_attempts):
        if attempt > 0 and backoff_base > 0:
            time.sleep(backoff_base * 2 ** (attempt - 1))
        body = json.dumps(
            {"jsonrpc": "2.0", "id": next(_id_counter), "method": method, "params": params}
        ).encode()
        request = urllib.request.Request(
            endpoint, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                status = response.status
                raw = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            last_error = f"{method}: HTTP {exc.code}"
            continue
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"{method}: {exc}"
            continue
        if status != 200:
            last_error = f"{method}: HTTP {status}"
            continue
        try:
            payload = json.loads(raw)
        except ValueError:
            last_error = f"{method}: invalid JSON response"
            continue
        if "error" in payload:
            err = payload["error"]
            last_error = f"{method}: node error {err.get('code')}: {err.get('message')}"
            continue
        return payload.get("result")
    if range_hint is not None:
        raise RpcError(
            f"giving up after {max_attempts} attempts: {last_error}",
            from_block=range_hint[0],
            to_block=range_hint[1],
        )
    raise RpcError(f"giving up after {max_attempts} attempts: {last_error}")


def _decode_log(log: dict, chain_id: int) -> TransferEvent | None:
    """Decode one raw log into a transfer event; None if it is not a
    plain two-topic token transfer."""
    if log.get("removed"):
        return None
    topics = log.get("topics") or []
    if len(topics) != 3 or topics[0].lower() != TRANSFER_TOPIC:
        return None
    data = log.get("data") or "0x"
    if len(data) != 66:
        return None
    return TransferEvent(
        chain_id=chain_id,
        block_number=int(log["blockNumber"], 16),
        timestamp=0,
        tx_hash=log["transactionHash"].lower(),
        log_index=int(log["logIndex"], 16),
        token=parse_address(log["address"]),
        from_addr=parse_address("0x" + topics[1][-40:]),
        to_addr=parse_address("0x" + topics[2][-40:]),
        value=int(data, 16),
    )


def _split_range(from_block: int, to_block: int, parts: int) -> list[tuple[int, int]]:
    total = to_block - from_block + 1
    parts = min(parts, total)
    size = -(-total // parts)
    ranges = []
    lo = from_block
    while lo <= to_block:
        hi = min(lo + size - 1, to_block)
        ranges.append((lo, hi))
        lo = hi + 1
    return ranges


def fetch_logs(
    endpoint: str,
    *,
    chain_id: int,
    from_block: int,
    to_block: int,
    tokens: Sequence[str] | None = None,
    parallel: int = 8,
    max_attempts: int = 5,
    backoff_base: float = 0.5,
    timeout: float = 30.0,
) -> list[TransferEvent]:
    """Fetch token transfer events for ``[from_block, to_block]``.

    Only standard two-topic transfer logs are decoded; anything else in
    the response (other event signatures, NFT-style transfers, reorged
    logs) is silently dropped.  Timestamps come from one block-header
    lookup per distinct block.  Raises :class:`RpcError` with the failing
    sub-range after ``max_attempts`` tries.
    """
    if from_block > to_block:
        raise ValueError(f"from_block {from_block} exceeds to_block {to_block}")
    if parallel < 1:
        raise ValueError(f"parallel must be positive, got {parallel}")
    address_filter = sorted(parse_address(t) for t in tokens) if tokens else None
    ranges = _split_range(from_block, to_block, parallel)

    def fetch_range(blocks: tuple[int, int]) -> list[dict]:
        params: dict = {
            "fromBlock": hex(blocks[0]),
            "toBlock": hex(blocks[1]),
            "topics": [TRANSFER_TOPIC],
        }
        if address_filter is not None:
            params["address"] = address_filter
        result = _rpc_call(
            endpoint,
            "eth_getLogs",
            [params],
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            timeout=timeout,
            range_hint=blocks,
        )
        return result or []

    if len(ranges) == 1:
        raw_chunks = [fetch_range(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            raw_chunks = list(pool.map(fetch_range, ranges))

    events = []
    for chunk in raw_chunks:
        for log in chunk:
            event = _decode_log(log, chain_id)
            if event is not None:
                events.append(event)
    events.sort(key=lambda e: e.order)

    blocks_needed = sorted({e.block_number for e in events})
    timestamps: dict[int, int] = {}

    def fetch_timestamp(block: int) -> None:
        header = _rpc_call(
            endpoint,
            "eth_getBlockByNumber",
            [hex(block), False],
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            timeout=timeout,
            range_hint=(block, block),
        )
        if not header or "timestamp" not in header:
            raise RpcError(f"no header for block {block}", from_block=block, to_block=block)
        timestamps[block] = int(header["timestamp"], 16)

    if blocks_needed:
        with ThreadPoolExecutor(max_workers=min(parallel, len(blocks_needed))) as pool:
            list(pool.map(fetch_timestamp, blocks_needed))

    return [replace(e, timestamp=timestamps[e.block_number]) for e in events]
