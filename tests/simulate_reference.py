"""The one-shot simulators that ``simulate`` replaced with row-block passes, kept as a reference.

Each draws the whole users x days presence (Model 1) and noise matrices in one
call and adds levels and lift to the whole matrix at once. The row-block
simulators draw the same numbers in the same order and do the same float
operations, so their tables must equal these, bit for bit.
"""

import numpy as np

from openbounded.simulate import _user_ids
from conftest import from_dense


def _table(params, presence, n_treated, rng, sigma_user, noise_kind):
    total, k = presence.shape
    levels = np.full(total, params.c)
    if sigma_user > 0.0:
        levels = levels + rng.normal(0.0, sigma_user, total)
    if noise_kind == "normal":
        values = rng.normal(0.0, params.sigma, (total, k)) if params.sigma > 0 else np.zeros((total, k))
    else:
        values = rng.lognormal(0.0, params.sigma, (total, k)) - np.exp(params.sigma**2 / 2.0)
    values += levels[:, None]
    values[:n_treated] += params.tau + params.tau_prime * params.calendar.weekend_mask()
    np.copyto(values, 0.0, where=~presence)
    return from_dense(
        user_ids=_user_ids(total),
        variants=(np.arange(total) < n_treated).astype(np.int8),
        present=presence,
        values=values,
    )


def simulate_model1(params, n_per_arm, seed, *, sigma_user=0.0, noise_kind="normal"):
    rng = seed.generator()
    presence = rng.random((2 * n_per_arm, params.calendar.k)) < params.p
    return _table(params, presence, n_per_arm, rng, sigma_user, noise_kind)


def simulate_model2(params, seed, *, sigma_user=0.0, noise_kind="normal"):
    k = params.calendar.k
    per_arm = k * params.ns
    arrival = (np.arange(2 * per_arm) % per_arm) // params.ns + 1
    presence = np.arange(1, k + 1) >= arrival[:, None]
    return _table(params, presence, per_arm, seed.generator(), sigma_user, noise_kind)
