"""Benchmark inputs and the benchmark's own counts of them.

Nothing here imports ``openbounded``: the variant-less log is drawn with
numpy and written by a hand-rolled JSON writer, and logs are counted with
the standard ``json`` module, so a change to the library can change neither
an input nor the figures its outputs are checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K_DAYS = 14
BOUNDED_D = 7
# Bounded(d) admits users first active on or before day k - d.
BOUNDED_DEADLINE = K_DAYS - BOUNDED_D


@dataclass(frozen=True)
class LogCounts:
    """Rows, distinct users and admitted users of one event log."""

    rows: int
    users: int
    users_by_day7: int

    def included(self, policy: str) -> int:
        return self.users if policy == "open" else self.users_by_day7


def write_raw_log(path: Path, seed: int, n_users: int, p: float, c: float, sigma: float) -> LogCounts:
    """Write a Model 1 log without variants: Bernoulli(p) presence over 14 days,
    outcome ``c + N(0, sigma)`` on each active day. Returns its counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    present = rng.random((n_users, K_DAYS)) < p
    values = (c + rng.normal(0.0, sigma, (n_users, K_DAYS))).tolist()
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u, (mask, row) in enumerate(zip(present.tolist(), values)):
            for t in range(K_DAYS):
                if mask[t]:
                    fh.write(f'{{"day":{t + 1},"user_id":"r{u:07d}","value":{row[t]!r},"variant":null}}\n')
                    rows += 1
    first = np.where(present.any(axis=1), present.argmax(axis=1) + 1, K_DAYS + 1)
    return LogCounts(
        rows=rows,
        users=int((first <= K_DAYS).sum()),
        users_by_day7=int((first <= BOUNDED_DEADLINE).sum()),
    )


def count_log(path: Path) -> LogCounts:
    """Count rows, distinct users and users first active by day 7 in a JSONL log."""
    first: dict[str, int] = {}
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rows += 1
            obj = json.loads(line)
            user, day = obj["user_id"], int(obj["day"])
            if day < first.get(user, K_DAYS + 1):
                first[user] = day
    return LogCounts(
        rows=rows,
        users=len(first),
        users_by_day7=sum(1 for day in first.values() if day <= BOUNDED_DEADLINE),
    )
