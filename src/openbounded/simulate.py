"""Monte-Carlo trace generators and replay-style effect injection.

Every generator is deterministic: the same parameters and seed always
produce the same trace collection, byte for byte after serialization. Each
user's randomness occupies a fixed block (one matrix row) keyed by user
index, so a user's draws never depend on other users' activity.

Both population models share one body: each model builds only its presence
matrix and arm size, and ``_simulated_table`` draws the per-user levels and
the day-level noise and adds the treatment effect.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from dataclasses import replace
from typing import Literal, Sequence

import numpy as np

from .analytic import Model1Params, Model2Params
from .core import (
    ConfigurationError,
    DataFormatError,
    ExperimentCalendar,
    InsufficientDataError,
    TraceTable,
    require_cells,
)

NoiseKind = Literal["normal", "lognormal"]


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
        return rng.lognormal(0.0, sigma, shape) - mean
    raise ConfigurationError(f"unknown noise kind: {kind!r}")


# Overflow is caught by the finiteness check below, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def _simulated_table(
    params: Model1Params | Model2Params, presence: np.ndarray, n_treated: int,
    rng: np.random.Generator, sigma_user: float, noise_kind: NoiseKind,
) -> TraceTable:
    """Users ``u0000000``, ... with the first ``n_treated`` in treatment.

    Draws each user's level (c, plus a Normal(0, sigma_user^2) draw when
    sigma_user > 0) and then the day-level noise from ``rng``, and adds tau
    plus tau_prime on weekend days to treatment outcomes. Outcomes past
    float range raise ConfigurationError: the parameters cannot describe a
    log.
    """
    if not 0.0 <= sigma_user < math.inf:
        raise ConfigurationError(f"sigma_user must be a finite number >= 0, got {sigma_user}")
    total, k = presence.shape
    levels = np.full(total, params.c)
    if sigma_user > 0.0:
        levels = levels + rng.normal(0.0, sigma_user, total)
    values = _noise_matrix(rng, (total, k), params.sigma, noise_kind)
    values += levels[:, None]
    values[:n_treated] += params.tau + params.tau_prime * params.calendar.weekend_mask()
    np.copyto(values, 0.0, where=~presence)
    if not np.isfinite(values).all():
        user, column = np.argwhere(~np.isfinite(values))[0]
        raise ConfigurationError(
            f"simulated outcome of user u{user:07d} on day {column + 1} is not finite: "
            "the parameters reach past float range"
        )
    return TraceTable(
        user_ids=[f"u{i:07d}" for i in range(total)],
        variants=(np.arange(total) < n_treated).astype(np.int8),
        present=presence,
        values=values,
    )


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
    require_cells(2 * n_per_arm, params.calendar.k, "the users x days matrix")
    rng = seed.generator()
    presence = rng.random((2 * n_per_arm, params.calendar.k)) < params.p
    return _simulated_table(params, presence, n_per_arm, rng, sigma_user, noise_kind)


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
    presence = np.arange(1, k + 1) >= arrival[:, None]
    return _simulated_table(params, presence, per_arm, seed.generator(), sigma_user, noise_kind)


def strip_variants(traces: TraceTable) -> TraceTable:
    """Drop variant assignments, e.g. to replay a log through ``inject_effect``."""
    return replace(traces, variants=np.full(len(traces), -1, dtype=np.int8))


def _assign_treatment(seed: Seed, user_ids: Sequence[str]) -> np.ndarray:
    """Stable fair coin per user: order-invariant, a pure function of (seed, user_id).

    The keyed hash is set up once and copied for each id; the digests are
    those of a fresh ``blake2b`` per id.
    """
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

    if spec.kind is EffectKind.RELATIVE_LIFT:
        control_values = traces.values[~treated][traces.present[~treated]]
        if not control_values.size:
            raise InsufficientDataError("no control outcomes to anchor the relative lift")
        try:
            base = math.fsum(control_values) / control_values.size
        except OverflowError:
            raise DataFormatError(
                "control outcomes sum past float range; cannot anchor the relative lift"
            ) from None
    else:
        base = 1.0
    tau = spec.tau * base
    tau_prime = spec.tau_prime * base
    if not (math.isfinite(tau) and math.isfinite(tau_prime)):
        raise ConfigurationError(
            f"injected lift {spec.tau} (weekend {spec.tau_prime}) times the control mean "
            f"{base} is past float range"
        )

    lifted = traces.values + tau + np.where(calendar.weekend_mask(), tau_prime, 0.0)
    return replace(
        traces,
        variants=treated.astype(np.int8),
        values=np.where(treated[:, None] & traces.present, lifted, traces.values),
    )
