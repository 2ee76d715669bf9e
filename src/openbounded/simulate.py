"""Monte-Carlo trace generators and replay-style effect injection.

Every generator is deterministic: the same parameters and seed always
produce the same trace collection, byte for byte after serialization. Each
user's randomness occupies a fixed stretch of the stream (one row of a
users x days draw) keyed by user index, so a user's draws never depend on
other users' activity.

Both population models share one body: each model gives only its presence,
one block of users at a time, and its arm size, and ``_simulated_table``
keeps the present cells as rows, draws the per-user levels and the
day-level noise and adds the treatment effect.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from dataclasses import replace
from itertools import chain
from typing import Callable, Literal, Sequence

import numpy as np

from .analytic import Model1Params, Model2Params
from .core import (
    ConfigurationError,
    DataFormatError,
    ExperimentCalendar,
    InsufficientDataError,
    TraceTable,
    block_rows,
    day_dtype,
    require_cells,
    row_blocks,
    user_blocks,
)

NoiseKind = Literal["normal", "lognormal"]
# Cells (users x days) per block of the simulators' draws, whose presence and
# noise are drawn one block at a time; rows per block of ``inject_effect``.
DRAW_CELLS = 16_384
# Id tuples of this many user counts are kept: a Monte-Carlo loop
# simulates one or two sizes many times over.
USER_ID_CACHE_SIZE = 4


@dataclass(frozen=True)
class Seed:
    """Reproducibility root. Child streams are pure functions of (base, indices)."""

    base: int

    def __post_init__(self) -> None:
        if not 0 <= self.base < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.base}")

    def sequence(self, *indices: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.base, *indices))

    def generator(self, *indices: int) -> np.random.Generator:
        return np.random.default_rng(self.sequence(*indices))


class EffectKind(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE_LIFT = "relative"


@dataclass(frozen=True)
class EffectSpec:
    """Injected treatment effect: base tau plus tau_prime extra on weekends.

    RELATIVE_LIFT reads both as fractions of the realized control-arm mean
    outcome (0.01 means a 1% average lift); ABSOLUTE adds them as-is.
    """

    kind: EffectKind
    tau: float
    tau_prime: float = 0.0

    def __post_init__(self) -> None:
        for label, value in (("lift", self.tau), ("weekend lift", self.tau_prime)):
            if not math.isfinite(value):
                raise ConfigurationError(f"injected {label} must be a finite number, got {value}")


def _noise_matrix(
    rng: np.random.Generator, shape: tuple[int, int], sigma: float, kind: NoiseKind
) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0.0, sigma, shape) if sigma > 0 else np.zeros(shape)
    if kind == "lognormal":
        # Zero-mean heavy-tailed noise; sigma acts as the log-scale shape.
        try:
            mean = np.exp(sigma**2 / 2.0)
        except OverflowError:
            mean = np.inf
        noise = rng.lognormal(0.0, sigma, shape)
        noise -= mean
        return noise
    raise ConfigurationError(f"unknown noise kind: {kind!r}")


@functools.lru_cache(maxsize=USER_ID_CACHE_SIZE)
def _user_ids(total: int) -> tuple[str, ...]:
    """``u0000000``, ``u0000001``, ... for ``total`` users, formatted once per count."""
    return tuple(map("u{:07d}".format, range(total)))


# Overflow is caught by the finiteness check below, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def _simulated_table(
    params: Model1Params | Model2Params, total: int, presence: Callable[[slice], np.ndarray],
    n_treated: int, rng: np.random.Generator, sigma_user: float, noise_kind: NoiseKind,
) -> TraceTable:
    """Users ``u0000000``, ... with the first ``n_treated`` in treatment.

    Takes each block of users' presence from ``presence`` (the block's users
    x days bool mask) and keeps the present cells as rows. Then draws each
    user's level (c, plus a Normal(0, sigma_user^2) draw when sigma_user > 0)
    and the noise of every cell from ``rng``, keeps the noise of the present
    cells, and adds the levels and, to treatment outcomes, tau plus tau_prime
    on weekend days. A block holds about ``DRAW_CELLS`` cells, and the draws
    come in the order of one users x days draw, so no users x days array is
    made. Outcomes past float range raise ConfigurationError: the parameters
    cannot describe a log.
    """
    if not 0.0 <= sigma_user < math.inf:
        raise ConfigurationError(f"sigma_user must be a finite number >= 0, got {sigma_user}")
    k = params.calendar.k
    blocks = row_blocks(total, k, DRAW_CELLS)
    # The day of each cell of a block, row after row, and each row's first cell.
    cell_days = np.tile(np.arange(1, k + 1, dtype=day_dtype(k)), blocks[0].stop)
    first_cells = np.arange(0, cell_days.size + 1, k)
    starts = np.zeros(total + 1, dtype=np.intp)
    days = []
    for block in blocks:
        present = presence(block)
        cells = np.flatnonzero(present)
        ends = cells.searchsorted(first_cells[1:present.shape[0] + 1])
        starts[block.start + 1:block.start + ends.size + 1] = ends + starts[block.start]
        days.append(cell_days.take(cells))
    days = np.concatenate(days)
    levels = params.c
    if sigma_user > 0.0:
        levels = levels + rng.normal(0.0, sigma_user, total)
    values = np.empty(days.size)
    lift = np.concatenate(([0.0], params.tau + params.tau_prime * params.calendar.weekend_mask()))
    for block in blocks:
        offsets = starts[block.start:block.stop + 1]
        lo, hi = offsets[0], offsets[-1]
        counts = offsets[1:] - offsets[:-1]
        noise = _noise_matrix(rng, (counts.size, k), params.sigma, noise_kind)
        rows = values[lo:hi]
        cells = np.repeat(first_cells[:counts.size], counts)
        cells += days[lo:hi]
        cells -= 1
        np.take(noise, cells, out=rows)
        rows += np.repeat(levels[block], counts) if sigma_user > 0.0 else levels
        treated = max(0, min(hi, starts[n_treated]) - lo)
        rows[:treated] += lift.take(days[lo:lo + treated])  # lift is indexed by day
        finite = np.isfinite(rows)
        if not finite.all():
            row = lo + int(finite.argmin())
            user = int(starts.searchsorted(row, side="right")) - 1
            raise ConfigurationError(
                f"simulated outcome of user u{user:07d} on day {days[row]} is not finite: "
                "the parameters reach past float range"
            )
    variants = np.zeros(total, dtype=np.int8)
    variants[:n_treated] = 1
    return TraceTable(user_ids=_user_ids(total), variants=variants, k=k, starts=starts,
                      days=days, values=values)


def simulate_model1(
    params: Model1Params,
    n_per_arm: int,
    seed: Seed,
    *,
    sigma_user: float = 0.0,
    noise_kind: NoiseKind = "normal",
) -> TraceTable:
    """Fixed-population traces: Bernoulli(p) presence on every day.

    Generates ``n_per_arm`` treatment users followed by ``n_per_arm``
    control users. Active-day outcomes are c (optionally per-user
    heterogeneous with spread ``sigma_user``) plus the treatment effect and
    a fresh noise draw per user-day. Users who never show up are emitted
    with no active days and fall out of any downstream analysis. Presence
    is drawn first, then levels and noise.
    """
    if n_per_arm < 1:
        raise ConfigurationError(f"n_per_arm must be >= 1, got {n_per_arm}")
    total, k = 2 * n_per_arm, params.calendar.k
    require_cells(total, k, "the users x days matrix")
    rng = seed.generator()

    def presence(block: slice) -> np.ndarray:
        return rng.random((min(block.stop, total) - block.start, k)) < params.p

    return _simulated_table(params, total, presence, n_per_arm, rng, sigma_user, noise_kind)


def simulate_model2(
    params: Model2Params,
    seed: Seed,
    *,
    sigma_user: float = 0.0,
    noise_kind: NoiseKind = "normal",
) -> TraceTable:
    """Evolving-population traces: ``ns`` arrivals per day per arm, then
    present every remaining day.

    Per arm there are ``k * ns`` users; the user arriving on day i is active
    on exactly days i..k. Presence draws nothing, so levels and noise are
    the only draws. Outcome structure matches ``simulate_model1``.
    """
    k = params.calendar.k
    per_arm = k * params.ns
    require_cells(2 * per_arm, k, "the users x days matrix")
    arrival = (np.arange(2 * per_arm) % per_arm) // params.ns + 1
    return _simulated_table(params, 2 * per_arm,
                            lambda block: np.arange(1, k + 1) >= arrival[block, None],
                            per_arm, seed.generator(), sigma_user, noise_kind)


def strip_variants(traces: TraceTable) -> TraceTable:
    """Drop variant assignments, e.g. to replay a log through ``inject_effect``."""
    return replace(traces, variants=np.full(len(traces), -1, dtype=np.int8))


def _assign_treatment(seed: Seed, user_ids: Sequence[str]) -> np.ndarray:
    """Stable fair coin per user: order-invariant, a pure function of (seed, user_id).

    The keyed hash is set up once and copied for each id; the digests are
    those of a fresh ``blake2b`` per id.
    """
    import hashlib

    keyed = hashlib.blake2b(digest_size=8, key=seed.base.to_bytes(8, "little"))

    def heads(user_id: str) -> bool:
        digest = keyed.copy()
        digest.update(user_id.encode("utf-8"))
        return bool(digest.digest()[0] & 1)

    return np.array([heads(u) for u in user_ids], dtype=bool)


def inject_effect(
    traces: TraceTable,
    spec: EffectSpec,
    calendar: ExperimentCalendar,
    assignment_seed: Seed,
) -> TraceTable:
    """Randomize variants 50/50 and add the effect to treatment outcomes.

    Control users keep their activity pattern and outcomes untouched;
    treatment users get the effect added on every active day, with the
    weekend extra on weekend days. Input users must not carry variants.
    """
    if not len(traces):
        raise InsufficientDataError("cannot inject an effect into an empty trace collection")
    assigned = np.flatnonzero(traces.variants >= 0)
    if assigned.size:
        raise ConfigurationError(
            f"user {traces.user_ids[assigned[0]]} already carries a variant; refusing to reassign"
        )
    traces.require_calendar(calendar)
    treated = _assign_treatment(assignment_seed, traces.user_ids)

    blocks = user_blocks(traces.starts, DRAW_CELLS)
    if spec.kind is EffectKind.RELATIVE_LIFT:
        sizes = []

        def control_values(block: slice) -> list[float]:
            offsets, users = block_rows(traces.starts, block)
            values = traces.values[offsets[0]:offsets[-1]][~treated[block][users]]
            sizes.append(values.size)
            return values.tolist()

        # One block of control rows at a time: fsum rounds the exact sum of
        # all it is given once, however it arrives.
        try:
            total = math.fsum(chain.from_iterable(map(control_values, blocks)))
        except OverflowError:
            raise DataFormatError(
                "control outcomes sum past float range; cannot anchor the relative lift"
            ) from None
        if not sum(sizes):
            raise InsufficientDataError("no control outcomes to anchor the relative lift")
        base = total / sum(sizes)
    else:
        base = 1.0
    tau = spec.tau * base
    tau_prime = spec.tau_prime * base
    if not (math.isfinite(tau) and math.isfinite(tau_prime)):
        raise ConfigurationError(
            f"injected lift {spec.tau} (weekend {spec.tau_prime}) times the control mean "
            f"{base} is past float range"
        )

    # One copy, lifted in place one block of rows at a time: (value + tau) +
    # weekend extra on treated rows. A lifted value past float range is the
    # parameters' fault, as in the simulators.
    values = traces.values.copy()
    weekend = np.concatenate(([0.0], np.where(calendar.weekend_mask(), tau_prime, 0.0)))
    for block in blocks:
        offsets, users = block_rows(traces.starts, block)
        lo, hi = offsets[0], offsets[-1]
        rows, lift = values[lo:hi], treated[block][users]
        with np.errstate(over="ignore"):
            np.add(rows, tau, out=rows, where=lift)
            np.add(rows, weekend.take(traces.days[lo:hi]), out=rows, where=lift)  # by day
        overflowed = lift & np.isinf(rows)
        if overflowed.any():
            row = int(overflowed.argmax())
            raise ConfigurationError(
                f"injected outcome of user {traces.user_ids[block.start + users[row]]} on day "
                f"{traces.days[lo + row]} is not finite: the lift reaches past float range"
            )
    return replace(traces, variants=treated.astype(np.int8), values=values)
