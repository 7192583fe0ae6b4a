"""Brute-force lookalike address search.

Private keys come from a counter-mode PRF over a caller seed, so every run
is reproducible; a flag switches to OS cryptographic randomness for real
key material. Candidates match a target when they share its first a_min and
last b_min hex digits, the same predicate the detector applies to observed
attacks. Each batch of keys is derived in one call, through the batched
fixed-base multiply and the many-message Keccak, and then tested in order.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .core import address_at
from .keccak import keccak256_many
from .secp256k1 import CURVE_ORDER, scalar_base_mult_many
from .similarity import score

__all__ = [
    "GenStats",
    "Match",
    "SearchSpec",
    "derive_address",
    "derive_addresses",
    "search",
]

_PRF_TAG = b"poisonscan.keygen.v1"
_BATCH = 512
_FIRST_BATCH = 8


def derive_addresses(private_keys: Sequence[int]) -> list[str]:
    """EVM addresses of many private keys, derived together: the last 20
    bytes of keccak-256 over each uncompressed 64-byte public point."""
    points = scalar_base_mult_many(private_keys)
    digests = keccak256_many([x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in points])
    return ["0x" + digest[12:].hex() for digest in digests]


def derive_address(private_key: int) -> str:
    """EVM address of one private key; the one-key case of derive_addresses."""
    return derive_addresses([private_key])[0]


def _prf_key(seed: int, counter: int) -> int:
    # imported here, not at module level: hashlib loads OpenSSL, about 5 ms
    # that a process which only derives addresses does not need
    import hashlib

    material = hashlib.sha256(
        _PRF_TAG + seed.to_bytes(8, "big", signed=True) + counter.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(material, "big")


def _draw_keys(seed: int, counter: int, want: int, crypto_random: bool) -> list[int]:
    """The next `want` valid keys from stream position counter. A key
    outside [1, n-1] is skipped, not a trial."""
    if crypto_random:  # imported here for the reason given in _prf_key
        import secrets

    keys = []
    while len(keys) < want:
        if crypto_random:
            key = int.from_bytes(secrets.token_bytes(32), "big")
        else:
            key = _prf_key(seed, counter)
        counter += 1
        if 1 <= key < CURVE_ORDER:
            keys.append(key)
    return keys


@dataclass(frozen=True, slots=True)
class SearchSpec:
    """What to search for and when to stop.

    Stops after max_matches hits or max_trials candidate keys, whichever
    comes first; at least one bound must be set.
    """

    targets: tuple[str, ...]
    a_min: int = 3
    b_min: int = 4
    max_matches: int | None = 1
    max_trials: int | None = None
    crypto_random: bool = False

    def __post_init__(self):
        if not self.targets:
            raise ValueError("search needs at least one target address")
        canonical = tuple(address_at(t, ValueError) for t in self.targets)
        for i, target in enumerate(canonical):
            if target in canonical[:i]:
                raise ValueError(f"target {target} is given more than once")
        object.__setattr__(self, "targets", canonical)
        if not 0 <= self.a_min <= 40:
            raise ValueError(f"a_min must be in [0, 40], got {self.a_min}")
        if not 0 <= self.b_min <= 40:
            raise ValueError(f"b_min must be in [0, 40], got {self.b_min}")
        if self.max_matches is None and self.max_trials is None:
            raise ValueError("set max_matches or max_trials, otherwise the search never stops")
        if self.max_matches is not None and self.max_matches < 1:
            raise ValueError(f"max_matches must be >= 1, got {self.max_matches}")
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")


@dataclass(frozen=True, slots=True)
class Match:
    private_key: int
    address: str
    target: str
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class GenStats:
    """Outcome of a search: the keys tried, the matches in stream order, and
    the throughput in keys per second (aps)."""

    trials: int
    matches: tuple[Match, ...]
    elapsed_seconds: float
    aps: float
    seed: int | None
    workers: int


def _target_info(spec: SearchSpec) -> list[tuple[str, str, str, str]]:
    info = []
    for target in spec.targets:
        digits = target[2:]
        prefix = digits[: spec.a_min]
        suffix = digits[40 - spec.b_min :] if spec.b_min else ""
        info.append((target, digits, prefix, suffix))
    return info


def _batches(spec: SearchSpec) -> Iterator[tuple[int, int]]:
    """(offset, size) of each batch of the key stream, in stream order and
    cut at max_trials. Batches hold _BATCH keys; with a match quota they
    start at _FIRST_BATCH keys and double up to _BATCH, so that a quota
    filled after a few keys does not pay for a full batch."""
    budget = spec.max_trials
    size = _BATCH if spec.max_matches is None else _FIRST_BATCH
    offset = 0
    while budget is None or offset < budget:
        n = size if budget is None else min(size, budget - offset)
        yield offset, n
        offset += n
        size = min(2 * size, _BATCH)


def _scan_range(
    spec: SearchSpec, seed: int, batch: tuple[int, int]
) -> tuple[int, list[tuple[int, Match]]]:
    """Test the keys of one batch in stream order and collect threshold hits.

    Returns the stream offset after the last key examined and the hits with
    their stream offsets. The scan stops at the key where its own hits reach
    max_matches, so its result does not depend on earlier batches. The batch
    is derived in one call.
    """
    offset, size = batch
    keys = _draw_keys(seed, offset, size, spec.crypto_random)
    info = _target_info(spec)
    a_min, b_min, quota = spec.a_min, spec.b_min, spec.max_matches
    hits: list[tuple[int, Match]] = []
    for at, (key, address) in enumerate(zip(keys, derive_addresses(keys)), offset):
        digits = address[2:]
        for target, tdigits, prefix, suffix in info:
            if digits[:a_min] == prefix and (not b_min or digits[-b_min:] == suffix):
                s = score(digits, tdigits)
                hits.append((at, Match(key, address, target, s.a, s.b)))
                if len(hits) == quota:
                    return at + 1, hits
    return offset + size, hits


def _in_order(pool, fn: Callable, items: Iterable, depth: int) -> Iterator:
    """fn over items on a process pool, yielded in item order, with at most
    depth calls submitted ahead of the consumer."""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def search(
    spec: SearchSpec,
    seed: int = 0,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> GenStats:
    """Run the seeded search. Deterministic for a fixed seed and spec at any
    worker count: batches are consumed in stream order whoever derives them,
    and a batch stops only after max_matches hits of its own, by which point
    the quota is filled in that batch or an earlier one."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    scan = partial(_scan_range, spec, seed)
    pool = None
    if workers == 1:
        results = map(scan, _batches(spec))
    else:
        # imported here, not at module level: the process pool machinery adds
        # about 2.4 MB and 30 ms to every process that imports poisonscan
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        results = _in_order(pool, scan, _batches(spec), 2 * workers)
    quota = spec.max_matches
    trials = 0
    matches: list[Match] = []
    try:
        for end, hits in results:
            trials = end
            for at, match in hits:
                matches.append(match)
                if len(matches) == quota:
                    trials = at + 1
                    break
            if progress is not None:
                progress(trials, len(matches))
            if len(matches) == quota:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    elapsed = time.perf_counter() - started
    return GenStats(
        trials=trials,
        matches=tuple(matches),
        elapsed_seconds=elapsed,
        aps=trials / elapsed if elapsed > 0 else 0.0,
        seed=None if spec.crypto_random else seed,
        workers=workers,
    )
