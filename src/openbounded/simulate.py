"""Monte-Carlo trace generators and replay-style effect injection.

Every generator is deterministic: the same parameters and seed always
produce the same trace collection, byte for byte after serialization. Each
user's randomness occupies a fixed block (one matrix row) keyed by user
index, so a user's draws never depend on other users' activity.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from dataclasses import replace
from typing import Literal

import numpy as np

from .analytic import Model1Params, Model2Params
from .core import ConfigurationError, ExperimentCalendar, InsufficientDataError, TraceTable

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

    def derive(self, *indices: int) -> "Seed":
        return Seed(int(self.sequence(*indices).generate_state(1, dtype=np.uint64)[0]))


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


def _noise_matrix(
    rng: np.random.Generator, shape: tuple[int, int], sigma: float, kind: NoiseKind
) -> np.ndarray:
    if kind == "normal":
        return rng.normal(0.0, sigma, shape) if sigma > 0 else np.zeros(shape)
    if kind == "lognormal":
        # Zero-mean heavy-tailed noise; sigma acts as the log-scale shape.
        return rng.lognormal(0.0, sigma, shape) - np.exp(sigma**2 / 2.0)
    raise ConfigurationError(f"unknown noise kind: {kind!r}")


def _simulated_table(
    presence: np.ndarray,
    levels: np.ndarray,
    noise: np.ndarray,
    effect: np.ndarray,
    n_treated: int,
) -> TraceTable:
    """Users ``u0000000``, ... with the first ``n_treated`` in treatment."""
    total = presence.shape[0]
    values = noise
    values += levels[:, None]
    values[:n_treated] += effect
    np.copyto(values, 0.0, where=~presence)
    return TraceTable(
        user_ids=np.char.mod("u%07d", np.arange(total)).tolist(),
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
    with no active days and fall out of any downstream analysis.
    """
    if n_per_arm < 1:
        raise ConfigurationError(f"n_per_arm must be >= 1, got {n_per_arm}")
    calendar = params.calendar
    k = calendar.k
    total = 2 * n_per_arm
    rng = seed.generator()
    presence = rng.random((total, k)) < params.p
    levels = np.full(total, params.c)
    if sigma_user > 0.0:
        levels = levels + rng.normal(0.0, sigma_user, total)
    noise = _noise_matrix(rng, (total, k), params.sigma, noise_kind)

    effect = params.tau + params.tau_prime * calendar.weekend_mask()
    return _simulated_table(presence, levels, noise, effect, n_per_arm)


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
    on exactly days i..k. Outcome structure matches ``simulate_model1``.
    """
    calendar = params.calendar
    k = calendar.k
    per_arm = k * params.ns
    total = 2 * per_arm
    rng = seed.generator()
    levels = np.full(total, params.c)
    if sigma_user > 0.0:
        levels = levels + rng.normal(0.0, sigma_user, total)
    noise = _noise_matrix(rng, (total, k), params.sigma, noise_kind)

    arrival = (np.arange(total) % per_arm) // params.ns + 1
    presence = np.arange(1, k + 1) >= arrival[:, None]
    effect = params.tau + params.tau_prime * calendar.weekend_mask()
    return _simulated_table(presence, levels, noise, effect, per_arm)


def strip_variants(traces: TraceTable) -> TraceTable:
    """Drop variant assignments, e.g. to replay a log through ``inject_effect``."""
    return replace(traces, variants=np.full(len(traces), -1, dtype=np.int8))


def _assign_treatment(seed: Seed, user_id: str) -> bool:
    # Stable fair coin: order-invariant, pure function of (seed, user_id).
    digest = hashlib.blake2b(
        user_id.encode("utf-8"), digest_size=8, key=seed.base.to_bytes(8, "little")
    ).digest()
    return bool(digest[0] & 1)


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
    treated = np.array([_assign_treatment(assignment_seed, u) for u in traces.user_ids])

    if spec.kind is EffectKind.RELATIVE_LIFT:
        control_values = traces.values[~treated][traces.present[~treated]]
        if not control_values.size:
            raise InsufficientDataError("no control outcomes to anchor the relative lift")
        base = math.fsum(control_values) / control_values.size
    else:
        base = 1.0
    tau = spec.tau * base
    tau_prime = spec.tau_prime * base

    lifted = traces.values + tau + np.where(calendar.weekend_mask(), tau_prime, 0.0)
    return replace(
        traces,
        variants=treated.astype(np.int8),
        values=np.where(treated[:, None] & traces.present, lifted, traces.values),
    )
