"""Memoization of Monte-Carlo estimates with observable statistics.

Greedy seeding algorithms re-evaluate the same seed group many times
(CELF-style lazy evaluation, fallback comparisons, DR re-planning), so
the estimator memoizes Monte-Carlo estimates keyed by the
*realization* they simulated — the canonicalized seed group, the
horizon and the full estimator configuration — together with the
*fields* the estimate holds.  The cache counts hits and misses so
callers (``DysimResult``, benchmarks) can report how much Monte-Carlo
work memoization saved.

One simulation per realization
------------------------------
Requests that play the same realization but ask for different extras
(restricted sigma, likelihood, mean weights) share one run: a lookup
is a hit on any entry of its realization that holds every field it
asks for, and the hit is served a view of that entry with the fields
it did not ask for cleared.  A field is an
``(attribute, qualifier)`` pair naming the estimate attribute it fills;
the qualifier carries what the value depends on beyond the realization
(the user set of a restricted sigma or likelihood), so those are shared
only for the same users.  Each entry's views are memoized, so repeated
requests get the same object back.

An entry may hold *spare* fields: fields its run produced that its own
request did not ask for (a likelihood run's mean final weights, which
the next DRE step of Dysim reads).  Spares cost memory — a weights
matrix per entry — so the cache keeps them on one entry per *spare
slot*, which the caller names (the estimator's is its configuration
and horizon): storing an entry with spares in a slot sheds the spares
of the slot's previous holder.  A spare field that serves a hit stops
being spare and stays, as the asked fields of every entry do.

The cache is unbounded: each one is built for one algorithm run (or
one estimator) and dropped with it.

Keys include the sample count, trigger model and root RNG seed, so one
:class:`SigmaCache` can safely back several estimators — estimates from
incompatible configurations can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.diffusion.montecarlo import MonteCarloEstimate

__all__ = ["CacheStats", "SigmaCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`SigmaCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry:
    """One stored estimate, its spare fields and the views served from it."""

    __slots__ = ("estimate", "fields", "spare", "views")

    def __init__(
        self, estimate: "MonteCarloEstimate", fields: frozenset, spare: frozenset
    ):
        self.estimate = estimate
        self.fields = fields
        self.spare = spare
        self.views = {fields: estimate}

    def view(self, asked: frozenset) -> "MonteCarloEstimate":
        """The estimate with every field not in ``asked`` cleared."""
        view = self.views.get(asked)
        if view is None:
            dropped = {name for name, _ in self.fields - asked}
            view = replace(self.estimate, **dict.fromkeys(dropped))
            self.views[asked] = view
        return view

    def shed(self) -> None:
        """Drop the spare fields, with every view that holds one."""
        if self.spare:
            kept = self.fields - self.spare
            self.estimate = self.view(kept)
            self.fields, self.spare = kept, frozenset()
            self.views = {a: v for a, v in self.views.items() if a <= kept}


class SigmaCache:
    """Memoization of Monte-Carlo estimates, one run per realization."""

    def __init__(self):
        #: Entries by ``(key, fields put)``.
        self._entries: dict[tuple, _Entry] = {}
        #: Realization index: key -> its entries.
        self._realizations: dict[Hashable, list[_Entry]] = {}
        #: Spare slot -> the entry last put with spare fields there.
        self._spare_holders: dict[Hashable, _Entry] = {}
        self._pins: list[object] = []
        self.hits = 0
        self.misses = 0

    def pin(self, obj: object) -> None:
        """Keep ``obj`` alive as long as this cache.

        Estimators key entries by ``id(instance)``; pinning the
        instance guarantees that id cannot be recycled by a different
        object while its entries are still retrievable.
        """
        if not any(pinned is obj for pinned in self._pins):
            self._pins.append(obj)

    # ------------------------------------------------------------------
    def get(
        self, key: Hashable, fields: frozenset = frozenset()
    ) -> "MonteCarloEstimate | None":
        """Look up an estimate of ``key`` holding ``fields``.

        Any entry of the realization that holds them serves the
        request (a hit, viewed down to ``fields``, whose spare fields
        among them stay for good); none is a miss.
        """
        for entry in self._realizations.get(key, ()):
            if fields <= entry.fields:
                self.hits += 1
                entry.spare -= fields
                return entry.view(fields)
        self.misses += 1
        return None

    def put(
        self,
        key: Hashable,
        estimate: "MonteCarloEstimate",
        fields: frozenset = frozenset(),
        asked: frozenset | None = None,
        spare_slot: Hashable = None,
    ) -> "MonteCarloEstimate":
        """Store an estimate of ``key`` holding ``fields``.

        The fields beyond ``asked`` (which defaults to all of them) are
        spare: this entry holds them until the next put with spares in
        ``spare_slot``.  Returns the view for ``asked`` — the object
        later lookups asking the same get.
        """
        asked = fields if asked is None else asked
        ident = (key, fields)
        self._drop(ident)
        entry = _Entry(estimate, fields, fields - asked)
        self._entries[ident] = entry
        self._realizations.setdefault(key, []).append(entry)
        if entry.spare:
            holder = self._spare_holders.get(spare_slot)
            if holder is not None:
                holder.shed()
            self._spare_holders[spare_slot] = entry
        return entry.view(asked)

    def _drop(self, ident: tuple) -> None:
        """Remove one entry (if present) from the store and the index."""
        entry = self._entries.pop(ident, None)
        if entry is None:
            return
        entry.shed()
        siblings = self._realizations[ident[0]]
        siblings.remove(entry)
        if not siblings:
            del self._realizations[ident[0]]

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()
        self._realizations.clear()
        self._spare_holders.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._realizations

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/entry counters."""
        return CacheStats(
            hits=self.hits, misses=self.misses, entries=len(self._entries)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SigmaCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
