"""Brute-force lookalike address search and its cost benchmark.

Private keys come from a counter-mode PRF over a caller seed, so every run
is reproducible; a flag switches to OS cryptographic randomness for real
key material. Candidates match a target when they share its first a_min and
last b_min hex digits, the same predicate the detector applies to observed
attacks. Two derivation strategies exist: "naive" does a generic
double-and-add and a one-message Keccak per key; "optimized" derives a batch
of keys in one call, through the batched fixed-base multiply and the
many-message Keccak, and then tests them in order. Both produce identical
addresses; benchmark() measures their throughput gap.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .core import AddressError, parse_address
from .keccak import keccak256, keccak256_many
from .secp256k1 import CURVE_ORDER, GX, GY, scalar_base_mult_many, scalar_mult
from .similarity import score

__all__ = [
    "GenStats",
    "Match",
    "SearchSpec",
    "benchmark",
    "derive_address",
    "derive_addresses",
    "read_matches",
    "search",
    "write_matches",
]

_PRF_TAG = b"poisonscan.keygen.v1"
_BATCH = 512
_FIRST_BATCH = 8
_MODES = ("naive", "optimized")


def derive_addresses(private_keys: Sequence[int]) -> list[str]:
    """EVM addresses of many private keys, derived together: the last 20
    bytes of keccak-256 over each uncompressed 64-byte public point."""
    points = scalar_base_mult_many(private_keys)
    digests = keccak256_many([x.to_bytes(32, "big") + y.to_bytes(32, "big") for x, y in points])
    return ["0x" + digest[12:].hex() for digest in digests]


def derive_address(private_key: int) -> str:
    """EVM address of one private key; the one-key case of derive_addresses."""
    return derive_addresses([private_key])[0]


def _derive_naive(private_key: int) -> str:
    x, y = scalar_mult(private_key, (GX, GY))
    public = x.to_bytes(32, "big") + y.to_bytes(32, "big")
    return "0x" + keccak256(public)[12:].hex()


def _derive(keys: list[int], mode: str) -> Iterable[str]:
    """Addresses of keys: all at once, or in naive mode one key at a time
    as the caller consumes them."""
    return derive_addresses(keys) if mode == "optimized" else map(_derive_naive, keys)


def _prf_key(seed: int, counter: int) -> int:
    material = hashlib.sha256(
        _PRF_TAG + seed.to_bytes(8, "big", signed=True) + counter.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(material, "big")


def _draw_keys(seed: int, counter: int, want: int, crypto_random: bool) -> tuple[list[int], int]:
    """The next `want` valid keys from stream position counter, and the
    position after them. A key outside [1, n-1] is skipped, not a trial."""
    keys = []
    while len(keys) < want:
        if crypto_random:
            key = int.from_bytes(secrets.token_bytes(32), "big")
        else:
            key = _prf_key(seed, counter)
        counter += 1
        if 1 <= key < CURVE_ORDER:
            keys.append(key)
    return keys, counter


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
        try:
            canonical = tuple(parse_address(t) for t in self.targets)
        except AddressError as exc:
            raise ValueError(str(exc)) from None
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
    """Outcome of a search or benchmark run."""

    trials: int
    matches: tuple[Match, ...]
    elapsed_seconds: float
    aps: float
    mode: str
    seed: int | None
    workers: int
    addresses: tuple[str, ...] = ()


def _target_info(spec: SearchSpec) -> list[tuple[str, str, str, str]]:
    info = []
    for target in spec.targets:
        digits = target[2:]
        prefix = digits[: spec.a_min]
        suffix = digits[40 - spec.b_min :] if spec.b_min else ""
        info.append((target, digits, prefix, suffix))
    return info


def _scan_range(
    spec: SearchSpec,
    seed: int,
    start: int,
    n: int,
    mode: str,
    quota: int | None,
) -> tuple[int, list[tuple[int, Match]]]:
    """Derive up to n keys from stream offset start; collect threshold hits.

    Returns (keys examined, [(offset, match), ...]). Keys are drawn and
    derived in batches, then tested in stream order. With a quota the scan
    stops at the key that fills it, so the examined count is exact, and the
    batches start at _FIRST_BATCH keys and double, so that a quota filled
    after a few keys does not pay for n of them. Naive mode derives one key
    at a time, only as the test reaches it.
    """
    info = _target_info(spec)
    b_min = spec.b_min
    a_min = spec.a_min
    hits: list[tuple[int, Match]] = []
    examined = 0
    counter = start
    size = n if quota is None else _FIRST_BATCH
    while examined < n:
        keys, counter = _draw_keys(seed, counter, min(size, n - examined), spec.crypto_random)
        for key, address in zip(keys, _derive(keys, mode)):
            examined += 1
            digits = address[2:]
            for target, tdigits, prefix, suffix in info:
                if digits[:a_min] == prefix and (not b_min or digits[-b_min:] == suffix):
                    s = score(digits, tdigits)
                    hits.append((examined - 1, Match(key, address, target, s.a, s.b)))
                    if quota is not None and len(hits) >= quota:
                        return examined, hits
        size *= 2
    return examined, hits


def search(
    spec: SearchSpec,
    seed: int = 0,
    workers: int = 1,
    mode: str = "optimized",
    progress: Callable[[int, int], None] | None = None,
) -> GenStats:
    """Run the seeded search. Deterministic for a fixed seed and spec at any
    worker count: workers only change who derives which stream segment."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    if workers == 1:
        trials, matches = _search_serial(spec, seed, mode, progress)
    else:
        trials, matches = _search_parallel(spec, seed, mode, workers, progress)
    elapsed = time.perf_counter() - started
    return GenStats(
        trials=trials,
        matches=tuple(matches),
        elapsed_seconds=elapsed,
        aps=trials / elapsed if elapsed > 0 else 0.0,
        mode=mode,
        seed=None if spec.crypto_random else seed,
        workers=workers,
    )


def _search_serial(spec, seed, mode, progress):
    trials = 0
    matches: list[Match] = []
    for start in count(0, _BATCH):
        room = _BATCH
        if spec.max_trials is not None:
            room = min(room, spec.max_trials - trials)
        quota = None if spec.max_matches is None else spec.max_matches - len(matches)
        examined, hits = _scan_range(spec, seed, start, room, mode, quota)
        trials += examined
        matches.extend(m for _, m in hits)
        if progress is not None:
            progress(trials, len(matches))
        if spec.max_matches is not None and len(matches) >= spec.max_matches:
            break
        if spec.max_trials is not None and trials >= spec.max_trials:
            break
    return trials, matches


def _search_parallel(spec, seed, mode, workers, progress):
    """Batches go to a process pool but are consumed in stream order, so the
    result is identical to the serial scan."""
    # imported here, not at module level: the process pool machinery adds
    # about 2.4 MB and 30 ms to every process that imports poisonscan
    from concurrent.futures import ProcessPoolExecutor

    trials = 0
    matches: list[Match] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        next_submit = 0
        next_consume = 0

        def submit_until(limit: int):
            nonlocal next_submit
            while len(pending) < limit:
                start = next_submit * _BATCH
                if spec.max_trials is not None and start >= spec.max_trials:
                    break
                room = _BATCH
                if spec.max_trials is not None:
                    room = min(room, spec.max_trials - start)
                pending[next_submit] = pool.submit(
                    _scan_range, spec, seed, start, room, mode, None
                )
                next_submit += 1

        while True:
            submit_until(workers * 2)
            if next_consume not in pending:
                break
            future = pending.pop(next_consume)
            batch_index = next_consume
            next_consume += 1
            examined, hits = future.result()
            base = batch_index * _BATCH
            done = False
            for offset, m in hits:
                matches.append(m)
                if spec.max_matches is not None and len(matches) >= spec.max_matches:
                    trials = base + offset + 1
                    done = True
                    break
            if not done:
                trials = base + examined
            if progress is not None:
                progress(trials, len(matches))
            if done:
                for f in pending.values():
                    f.cancel()
                break
    return trials, matches


def benchmark(
    n_keys: int = 512,
    mode: str = "optimized",
    seed: int = 0,
    workers: int = 1,
    keep_addresses: bool = False,
) -> GenStats:
    """Measure derivation throughput (addresses per second) over n_keys,
    derived as search derives them: in batches of up to _BATCH keys, or one
    key at a time in naive mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    list(_derive([1], mode))  # pay any one-time table setup outside the timed region
    addresses: list[str] = []
    started = time.perf_counter()
    counter = 0
    done = 0
    while done < n_keys:
        keys, counter = _draw_keys(seed, counter, min(_BATCH, n_keys - done), crypto_random=False)
        derived = list(_derive(keys, mode))
        done += len(keys)
        if keep_addresses:
            addresses.extend(derived)
    elapsed = time.perf_counter() - started
    return GenStats(
        trials=n_keys,
        matches=(),
        elapsed_seconds=elapsed,
        aps=n_keys / elapsed if elapsed > 0 else 0.0,
        mode=mode,
        seed=seed,
        workers=workers,
        addresses=tuple(addresses),
    )


def write_matches(path: str | Path, matches: Iterable[Match]) -> None:
    """Matches as JSONL rows: key (64-digit hex), address, target, a, b."""
    with open(path, "w", encoding="utf-8") as handle:
        for m in matches:
            handle.write(
                json.dumps(
                    {
                        "key": f"{m.private_key:064x}",
                        "address": m.address,
                        "target": m.target,
                        "a": m.a,
                        "b": m.b,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_matches(path: str | Path) -> tuple[Match, ...]:
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            out.append(
                Match(
                    private_key=int(row["key"], 16),
                    address=row["address"],
                    target=row["target"],
                    a=int(row["a"]),
                    b=int(row["b"]),
                )
            )
    return tuple(out)
