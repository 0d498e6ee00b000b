"""Cleaning and unique-access extraction.

Section 4.1: "To avoid biasing our results, we removed all accesses made
to honey accounts by IP addresses from our monitoring infrastructure.  We
also removed all accesses that originated from the city where our
monitoring infrastructure is located."  Then each *unique access* is a
cookie identifier; repeated visits with the same cookie collapse into one
access with ``t0`` (first observation) and ``t_last`` (last observation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.records import ObservedDataset


@dataclass(frozen=True, slots=True)
class UniqueAccess:
    """One unique access: all observations of one cookie on one account."""

    account_address: str
    cookie_id: str
    t0: float
    t_last: float
    observation_count: int
    ip_addresses: tuple[str, ...]
    city: str | None
    country: str | None
    latitude: float | None
    longitude: float | None
    device_kind: str
    browser: str
    os_family: str
    empty_user_agent: bool

    @property
    def duration(self) -> float:
        """Observed activity span (a lower bound, as in the paper)."""
        return self.t_last - self.t0

    @property
    def has_location(self) -> bool:
        return self.city is not None


def extract_unique_accesses(
    dataset: ObservedDataset,
) -> list[UniqueAccess]:
    """Drop monitoring rows, then collapse the rest into cookie-level
    unique accesses.

    Cleaning removes rows from a monitor IP and rows geolocated in the
    monitor city.  Location and fingerprint fields come from the first
    located observation of the cookie (cookies are per-device, so these
    are stable in practice; the first row wins on conflict).  One pass
    over the raw columns; no intermediate row objects.
    """
    store = dataset.access_store
    strings = store.strings
    lookup = strings.lookup
    monitor_ip_ids = {
        ident
        for ident in map(strings.id_of, dataset.monitor_ips)
        if ident is not None
    }
    blocked_city_id = (
        strings.id_of(dataset.monitor_city)
        if dataset.monitor_city is not None
        else None
    )
    ip_ids = store.ip_ids
    city_ids = store.city_ids
    timestamps = store.timestamps
    account_ids = store.account_ids
    cookie_ids = store.cookie_ids
    by_cookie: dict[tuple[int, int], list[int]] = {}
    setdefault = by_cookie.setdefault
    # The cleaning filter runs vectorised over views of the raw int64
    # id columns — in a honey run the overwhelming majority of rows are
    # the scraper's own logins, so the per-row Python loop below only
    # ever touches the few-percent survivor set.  (numpy is already a
    # hard dependency of the analysis layer: ecdf/cvm.)  The scan goes
    # chunk by chunk: resident stores yield one full zero-copy view,
    # spilled stores one mmap'd chunk at a time, so no full column is
    # ever materialised.
    from repro.telemetry.spill import iter_column_chunks

    blocked_id = -1 if blocked_city_id is None else blocked_city_id
    monitor_id_array = (
        np.fromiter(monitor_ip_ids, np.int64) if monitor_ip_ids else None
    )
    survivors: list[int] = []
    base = 0
    for city_chunk, ip_chunk in zip(
        iter_column_chunks(city_ids, np.int64),
        iter_column_chunks(ip_ids, np.int64),
    ):
        keep = city_chunk != blocked_id
        if monitor_id_array is not None:
            keep &= ~np.isin(ip_chunk, monitor_id_array)
        survivors.extend((np.nonzero(keep)[0] + base).tolist())
        base += len(city_chunk)
    for index in survivors:
        setdefault((account_ids[index], cookie_ids[index]), []).append(index)
    unique: list[UniqueAccess] = []
    for (account_id, cookie_id), indices in by_cookie.items():
        indices.sort(key=timestamps.__getitem__)
        first = indices[0]
        located = next(
            (i for i in indices if city_ids[i]), first
        )
        unique.append(
            UniqueAccess(
                account_address=lookup(account_id),
                cookie_id=lookup(cookie_id),
                t0=timestamps[first],
                t_last=timestamps[indices[-1]],
                observation_count=len(indices),
                ip_addresses=tuple(
                    dict.fromkeys(lookup(ip_ids[i]) for i in indices)
                ),
                city=lookup(city_ids[located]),
                country=lookup(store.country_ids[located]),
                latitude=(
                    store.latitudes[located]
                    if store.latitude_mask[located]
                    else None
                ),
                longitude=(
                    store.longitudes[located]
                    if store.longitude_mask[located]
                    else None
                ),
                device_kind=lookup(store.device_ids[first]),
                browser=lookup(store.browser_ids[first]),
                os_family=lookup(store.os_ids[first]),
                empty_user_agent=(lookup(store.ua_ids[first]) == ""),
            )
        )
    unique.sort(key=lambda u: (u.t0, u.account_address, u.cookie_id))
    return unique


def observed_ip_strings(unique_accesses: list[UniqueAccess]) -> set[str]:
    """All distinct IPs across unique accesses (for blacklist checks)."""
    ips: set[str] = set()
    for access in unique_accesses:
        ips.update(access.ip_addresses)
    return ips
