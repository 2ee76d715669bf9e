"""The per-mask Python census that the chunked numpy census replaced, kept as a reference.

It walks all 2^k presence masks one at a time with ``int.bit_count`` and a
dict of counts. ``analytic._pattern_census`` must return exactly the same
tuple for every calendar, effect-day set, policy and admission deadline.
"""

from openbounded.core import PolicyKind


def pattern_census(
    k: int, effect_mask: int, kind: PolicyKind, d: int | None, deadline: int
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """Group the 2^k presence patterns by (total active, analyzed, effect) counts.

    Returns admitted groups as (total_active, analyzed_days, effect_days,
    pattern_count) plus, indexed by total_active, the count of patterns that
    are active somewhere but not admitted. Day t maps to bit t-1.
    """
    census: dict[tuple[int, int, int], int] = {}
    excluded = [0] * (k + 1)
    full_mask = (1 << k) - 1
    for mask in range(1, full_mask + 1):
        total_active = mask.bit_count()
        t0 = (mask & -mask).bit_length()
        if t0 > deadline:
            excluded[total_active] += 1
            continue
        if kind is PolicyKind.BOUNDED:
            window = ((1 << d) - 1) << (t0 - 1)
        else:
            window = full_mask
        analyzed = mask & window
        key = (total_active, analyzed.bit_count(), (analyzed & effect_mask).bit_count())
        census[key] = census.get(key, 0) + 1
    return tuple((*key, count) for key, count in sorted(census.items())), tuple(excluded)
