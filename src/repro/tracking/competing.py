"""THM-style competing counters.

THM (Sim et al., MICRO 2014) tracks activity with **one counter per
segment**, where a segment groups one fast page with N slow pages.  The
counter "competes": an access to a slow page of the segment increments
it (evidence the resident fast page should be replaced); an access to
the currently fast-resident page decrements it (evidence it should
stay).  When the counter crosses a threshold, the most recently accessed
slow page swaps with the fast-resident one and the counter resets.

The paper notes the scheme's false-positive failure mode — a cold page
that happens to be accessed near the threshold crossing gets migrated —
which this implementation reproduces by nominating the *last accessing*
slow page, exactly as the competing-counter hardware would.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as _np

from ..common.config import require_positive_int
from .base import ActivityTracker

#: Below this many records the numpy set-up cost exceeds the loop.
_BATCH_MIN = 32


class CompetingCounterArray(ActivityTracker):
    """One up/down counter per segment with threshold-triggered swaps.

    Parameters
    ----------
    segments:
        Segment count (= number of fast pages in THM).
    threshold:
        Counter value that triggers a migration nomination.
    counter_bits:
        Saturating width (paper: 8 bits per fast page -> 512 kB).
    """

    def __init__(self, segments: int, threshold: int = 4, counter_bits: int = 8) -> None:
        require_positive_int("segments", segments)
        require_positive_int("threshold", threshold)
        require_positive_int("counter_bits", counter_bits)
        self.segments = segments
        self.threshold = threshold
        self.counter_bits = counter_bits
        self._max_count = (1 << counter_bits) - 1
        self._counts = [0] * segments
        self._last_challenger: List[Optional[int]] = [None] * segments
        self.triggers = 0

    def access_resident(self, segment: int) -> None:
        """The fast-resident page of ``segment`` was accessed: defend it."""
        if self._counts[segment] > 0:
            self._counts[segment] -= 1

    def access_challenger(self, segment: int, slow_page: int) -> Optional[int]:
        """A slow page of ``segment`` was accessed: attack the resident.

        Returns the page to migrate (the last challenger — THM's
        false-positive mechanism) when the threshold is crossed, else
        ``None``.  The counter resets on a trigger.
        """
        self._last_challenger[segment] = slow_page
        count = self._counts[segment]
        if count < self._max_count:
            count += 1
            self._counts[segment] = count
        if count >= self.threshold:
            self._counts[segment] = 0
            self.triggers += 1
            return slow_page
        return None

    def counter(self, segment: int) -> int:
        """Current counter value of ``segment``."""
        return self._counts[segment]

    def access_batch(self, segments, pages, challenger) -> Optional[int]:
        """Replay a run of accesses; stop *before* the first trigger.

        ``segments``/``pages``/``challenger`` are parallel columns: one
        access per element, attacking (``challenger`` true →
        :meth:`access_challenger`) or defending (false →
        :meth:`access_resident`).  Every access before the first
        threshold crossing is applied — counters and last-challenger
        state end exactly as the scalar calls would leave them — and the
        crossing access itself is **not** applied; its index is
        returned so the caller can replay it through
        :meth:`access_challenger` and handle the migration it demands.
        Returns ``None`` when the whole run is trigger-free.

        The numpy path closes the clamped counter recursion per segment
        (a Lindley recursion: ``c_i = S_i + max(c_0, -min_{k<=i} S_k)``
        over the ±1 prefix sums ``S``) with grouped cumulative sums and
        running minima.  Upper saturation never binds before a trigger
        when ``threshold <= 2**counter_bits - 1``; otherwise — and for
        short runs — :meth:`_access_loop` walks the run scalar.
        """
        n = len(segments)
        if n == 0:
            return None
        if self.threshold > self._max_count or n < _BATCH_MIN:
            # Keep stored pages plain ints even for ndarray columns.
            if isinstance(pages, _np.ndarray):
                pages = pages.tolist()
            return self._access_loop(segments, pages, challenger)
        seg = _np.asarray(segments, dtype=_np.int64)
        chal = _np.asarray(challenger, dtype=bool)
        order = _np.argsort(seg, kind="stable")
        sseg = seg[order]
        schal = chal[order]
        delta = _np.where(schal, 1, -1)
        starts = _np.ones(n, dtype=bool)
        starts[1:] = sseg[1:] != sseg[:-1]
        start_pos = _np.flatnonzero(starts)
        gid = _np.cumsum(starts) - 1
        counts = self._counts
        group_segs = sseg[start_pos].tolist()
        c0 = _np.asarray([counts[s] for s in group_segs], dtype=_np.int64)
        prefix = _np.cumsum(delta)
        base = (prefix - delta)[start_pos]
        within = prefix - base[gid]
        # Grouped running minimum via the offset trick: stagger groups
        # far enough apart (|within| <= n) that an accumulate never
        # crosses a group boundary.
        big = 2 * (n + 1)
        staggered = within - gid * big
        running_min = _np.minimum.accumulate(staggered) + gid * big
        c = within + _np.maximum(c0[gid], -running_min)
        triggered = schal & (c >= self.threshold)
        if triggered.any():
            first = int(order[triggered].min())
            if first:
                # Apply the trigger-free prefix.  Short prefixes replay
                # scalar — a second full vector pass costs more than the
                # records it would collapse (frequent triggers otherwise
                # pay the set-up twice per crossing).
                if first < 4 * _BATCH_MIN:
                    self._access_loop(
                        segments[:first],
                        pages[:first].tolist()
                        if isinstance(pages, _np.ndarray)
                        else pages[:first],
                        challenger[:first],
                    )
                else:
                    self.access_batch(
                        segments[:first], pages[:first], challenger[:first]
                    )
            return first
        end_pos = _np.append(start_pos[1:], n) - 1
        for s, value in zip(group_segs, c[end_pos].tolist()):
            counts[s] = value
        # Last challenger per segment: running max of challenger
        # positions, same offset trick (positions are >= 0, misses -1).
        marked = _np.where(schal, _np.arange(n), -1) + gid * (n + 1)
        last_pos = (_np.maximum.accumulate(marked) - gid * (n + 1))[end_pos]
        sorted_pages = _np.asarray(pages, dtype=_np.int64)[order]
        last = self._last_challenger
        for s, li in zip(group_segs, last_pos.tolist()):
            if li >= 0:
                last[s] = int(sorted_pages[li])
        return None

    def _access_loop(self, segments, pages, challenger) -> Optional[int]:
        """Per-record form of :meth:`access_batch`: short runs, and the
        exact fallback when upper saturation can bind before a trigger."""
        counts = self._counts
        last = self._last_challenger
        threshold = self.threshold
        max_count = self._max_count
        for i, (segment, page, attacks) in enumerate(zip(segments, pages, challenger)):
            count = counts[segment]
            if attacks:
                if count < max_count:
                    count += 1
                if count >= threshold:
                    return i
                counts[segment] = count
                last[segment] = page
            elif count > 0:
                counts[segment] = count - 1
        return None

    # -- ActivityTracker protocol (segment-granularity view) -------------

    def record(self, page: int) -> None:
        """Protocol adapter: treat ``page`` as a challenger of its segment.

        Online THM drives :meth:`access_resident` /
        :meth:`access_challenger` directly; this adapter exists so the
        offline oracle harness can exercise competing counters too.
        """
        self.access_challenger(page % self.segments, page)

    def hot_pages(self) -> List[int]:
        """Last challenger of every over-threshold-half segment.

        Ranked by counter value, highest first, ties broken by lower
        page — the same deterministic ``(-count, page)`` order the MEA
        and full-counter trackers pin, so downstream consumers see a
        stable nomination order regardless of segment layout.
        """
        nominations = []
        for segment in range(self.segments):
            challenger = self._last_challenger[segment]
            if challenger is not None and self._counts[segment] * 2 >= self.threshold:
                nominations.append((-self._counts[segment], challenger))
        nominations.sort()
        return [challenger for _, challenger in nominations]

    def reset(self) -> None:
        """Zero every counter and forget challengers."""
        self._counts = [0] * self.segments
        self._last_challenger = [None] * self.segments
        self.triggers = 0

    def storage_bits(self) -> int:
        """One counter per segment."""
        return self.segments * self.counter_bits
