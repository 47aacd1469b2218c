"""Batched replay kernels — the reference loop, faster, bit for bit.

The reference path (:func:`repro.system.simulator.reference_simulate`)
calls ``manager.handle`` per record, which re-resolves the same
attribute chains and re-takes the same never-taken branches millions of
times.  The kernels here replay the *identical* sequence of state
mutations with the per-record overhead hoisted out:

* input comes from a :class:`~repro.trace.packed.PackedTrace`: columnar
  record fields plus memoised page numbers; channel/bank/row decodes
  are computed vectorised from the address column, one formula per
  memory kind (:func:`_single_decode_np`, :func:`_hybrid_decode_np`);
* one specialised loop per manager type inlines ``handle`` with every
  attribute lookup bound to a local and the common case fast-pathed —
  no blocked page (both block structures empty), identity remapping
  (the sparse tables never store identity entries, so ``get(page) is
  None`` *is* the identity test), empty swap queue;
* the CPU throttle samples in chunks of exactly
  ``THROTTLE_SAMPLE_PERIOD`` records, which is equivalent to the
  reference countdown because the offset only ever changes at sample
  points; the peak-bus probe itself goes through the memory's
  dirty-channel cache instead of scanning every controller per sample;
* the DRAM datapath is **batched**: instead of one
  ``ChannelController.enqueue`` call per record, each throttle chunk is
  regrouped by controller index (``PackedTrace.chunk_groups``, memoised
  per memory layout, numpy stable-argsort) and
  whole columns go down one ``enqueue_batch`` call per controller —
  exact because controllers share no state, intra-controller order is
  preserved within a chunk, and the offset only changes at chunk
  boundaries.  Direct kernels (tlm / single-level) batch every chunk
  this way; the migrating kernels (mempod / hma / thm) run a columnar
  interval engine: a binary search over the arrival column locates
  where the next event lands (an interval boundary, a due swap, an
  inline THM migration trigger), the event-free slice before it is
  processed by one shared vectorised penalty/translation/decode/
  grouping pass (:func:`_slice_pusher`) plus batched tracker updates
  (``record_batch`` / ``access_batch``), the event itself replays
  scalar, and swap traffic goes down the same ``enqueue_batch``
  datapath (``MigrationEngine.batch_swaps``).
  Translation is one gather from a dense page-to-frame array, seeded
  once per replay and kept in step by the swap journal the kernel
  attaches to the manager's remap tables (:func:`_absorb_journal`).

**Equality contract**: for every supported configuration the fast
kernel produces a ``SimulationResult`` equal field-for-field to the
reference loop's (``tests/test_kernel_differential.py`` enforces this
across all ``MANAGER_KINDS``).  Guaranteeing that requires exactness,
not plausibility, so dispatch is deliberately conservative:

* dispatch keys on the mechanism's declared ``(trigger, flexibility)``
  shape, but then requires ``type(manager) is`` the canonical class the
  loop was written against — a subclass or a novel registered spec may
  override anything, so both fall back to the reference loop;
* configurations with metadata caches or the CAMEO predictor fall back
  (their per-record cache state makes hoisting a wash anyway);
* traces with any out-of-range address fall back, because the direct
  controller enqueues below bypass ``memory.access`` bounds checking
  and the reference loop's ``AddressError`` must surface at the same
  record.

The fallback *is* the reference loop, so ``fast_simulate`` is total:
anything it cannot accelerate it still simulates correctly.

**Mapped traces** (``packed.mapped`` — columns are memory-mapped planes
of a columnar trace file, see :mod:`repro.trace.store`) and in-memory
traces replay through the same decode code.  The migrating kernels
decode each event-free slice from its (translated) address column and
their scalar paths decode inline through the mappers; CAMEO decodes
once per streaming window (:func:`_stream_window`).  Only the direct
kernels branch on ``packed.mapped``: in-memory traces keep the
memoised ``PackedTrace.chunk_groups``, mapped ones stream through
``chunk_groups_streamed``.  No kernel builds a trace-length decode
column for a mapped trace, so the decode working set is bounded by
the window (plus, once a page has moved, the geometry-sized
page-to-frame view).  Manager state is not: CAMEO's line-location
tables still grow with the lines it touches and dominate its peak, so
flat RSS is not claimed for CAMEO.  Results are pinned byte-identical
to the reference loop and to the in-memory path by
``tests/test_trace_store.py``.
"""

from __future__ import annotations

from itertools import chain, islice

from ..core.mempod import MemPodManager
from ..dram.request import DEMAND, MIGRATION
from ..managers.cameo import LINE_BYTES, CameoManager
from ..managers.hma import HmaManager
from ..managers.static import NoMigrationManager, SingleLevelManager
from ..managers.thm import ThmManager
from ..system.simulator import (
    DEFAULT_THROTTLE_CAP_PS,
    THROTTLE_SAMPLE_PERIOD,
    reference_simulate,
)
from ..system.stats import collect_result
from ..trace.store import DEFAULT_TRACE_WINDOW

import numpy as _np

LINE_SHIFT = LINE_BYTES.bit_length() - 1

#: Event-free slices at or below this length replay per record inside the
#: columnar engine: a handful of scalar buffer appends is cheaper than the
#: per-slice column set-up (view gather, block-snapshot search, argsort,
#: tolist).
_SCALAR_SLICE = 32


# -- address decode --------------------------------------------------------
#
# One vectorised decode formula per memory kind, applied to whatever
# address column a kernel holds: a whole in-memory trace (memoised
# through PackedTrace.chunk_groups), one streaming window, or one
# translated event-free slice.  Scalar paths decode through the same
# mappers' fast_decode.


def _mapper_key(mapper) -> tuple:
    return (
        mapper._row_shift,
        mapper._bank_shift,
        mapper._chan_shift,
        mapper._bank_mask,
        mapper._chan_mask,
    )


def _single_layout_key(device) -> tuple:
    return ("single", _mapper_key(device.mapper))


def _tier_table(memory):
    """Per-tier decode rows: ``(start, end, ctrl_base, mapper)``.

    One row per tier in address order, with flat controller indices
    (tier 0's channels first) — the table :func:`_hybrid_decode_np`
    walks instead of re-deriving the old single fast/slow threshold.
    """
    table = []
    start = 0
    base = 0
    for device, end in zip(memory.tiers, memory._tier_ends):
        table.append((start, end, base, device.mapper))
        start = end
        base += device.channels
    return table


def _hybrid_layout_key(memory) -> tuple:
    return ("hybrid",) + tuple(
        (end - start, base, _mapper_key(mapper))
        for start, end, base, mapper in _tier_table(memory)
    )


def _hybrid_controllers(memory):
    """Flat controller list matching :func:`_hybrid_decode_np`'s
    controller indices (tier 0's channels first)."""
    return list(memory._controllers)


def _single_decode_np(device):
    """``int64 address array -> (ctrl, bank, row)`` decoder for a
    single-device memory."""
    mapper = device.mapper
    row_shift = mapper._row_shift
    bank_shift = mapper._bank_shift
    chan_shift = mapper._chan_shift
    bank_mask = mapper._bank_mask
    chan_mask = mapper._chan_mask

    def decode(addresses):
        return (
            (addresses >> bank_shift) & chan_mask,
            (addresses >> row_shift) & bank_mask,
            addresses >> chan_shift,
        )

    return decode


def _hybrid_decode_np(memory):
    """``int64 address array -> (ctrl, bank, row)`` decoder for a tiered
    memory.

    Controller indices are flat across every tier — tier 0's channels
    first — matching :func:`_hybrid_controllers`.  The table is walked
    last tier first: the final tier is the unconditional branch and
    earlier tiers overlay it under their ``address < end`` condition,
    which on two-tier systems is exactly the ``is_fast`` select.
    """
    table = _tier_table(memory)
    where = _np.where

    def decode(addresses):
        ctrls = banks = rows = None
        for start, end, base, mapper in reversed(table):
            off = addresses - start
            tier_ctrl = base + ((off >> mapper._bank_shift) & mapper._chan_mask)
            tier_bank = (off >> mapper._row_shift) & mapper._bank_mask
            tier_row = off >> mapper._chan_shift
            if ctrls is None:
                ctrls, banks, rows = tier_ctrl, tier_bank, tier_row
            else:
                here = addresses < end
                ctrls = where(here, tier_ctrl, ctrls)
                banks = where(here, tier_bank, banks)
                rows = where(here, tier_row, rows)
        return ctrls, banks, rows

    return decode


def _stream_window(packed) -> int:
    """The decode window in records: a mapped trace's validated window
    (a positive multiple of the 128-record throttle chunk), else the
    default one."""
    return packed.window or DEFAULT_TRACE_WINDOW


# -- replay loops ----------------------------------------------------------
#
# Shared chunk scaffolding, repeated per kernel so every name in the hot
# loop is a local: process runs of THROTTLE_SAMPLE_PERIOD records, then
# sample the CPU throttle exactly as the reference countdown would.  The
# arrival offset only changes at sample points, so `arrivals[end-1] +
# offset` equals the reference's per-record `last_ps` at chunk end.


def _replay_tlm(trace, packed, manager, throttle_cap_ps):
    """TLM baseline: every record is one DEMAND enqueue, no remapping."""
    memory = manager.memory
    return _replay_direct(
        trace, packed, manager, throttle_cap_ps, _hybrid_controllers(memory),
        _hybrid_layout_key(memory), _hybrid_decode_np(memory),
    )


def _replay_single(trace, packed, manager, throttle_cap_ps):
    """HBM-only / DDR-only: one device, no remapping."""
    device = manager.memory.device
    return _replay_direct(
        trace, packed, manager, throttle_cap_ps, device.controllers,
        _single_layout_key(device), _single_decode_np(device),
    )


def _replay_direct(
    trace, packed, manager, throttle_cap_ps, ctrls, layout_key, decode
):
    """Shared loop for managers whose handle() is a bare memory access.

    Fully batched: every throttle chunk arrives already regrouped by
    controller index — from the memoised ``PackedTrace.chunk_groups``
    (keyed by ``layout_key``, fed ``decode`` over the whole address
    column) for in-memory traces, or the windowed
    ``chunk_groups_streamed`` generator for mapped ones (identical
    chunks, O(window) memory) — so the replay is one ``enqueue_batch``
    call per (chunk, controller) plus the throttle sample — no
    per-record Python work at all while the offset is zero.
    """
    sample = THROTTLE_SAMPLE_PERIOD if throttle_cap_ps else 0
    if packed.mapped:
        chunks = packed.chunk_groups_streamed(
            decode, sample, _stream_window(packed)
        )
    else:
        chunks = packed.chunk_groups(
            layout_key, *decode(packed.np_addresses()), sample
        )
    batch = [ctrl.enqueue_batch for ctrl in ctrls]
    peak_bus = manager.memory.peak_bus_free_ps
    arrivals = packed.arrivals
    demand = DEMAND
    last_ps = 0
    offset = 0
    pos = 0
    for count, groups in chunks:
        if offset:
            for ci, bank_col, row_col, write_col, arrival_col in groups:
                batch[ci](
                    bank_col, row_col, write_col,
                    [arrival + offset for arrival in arrival_col],
                    None, demand,
                )
        else:
            for ci, bank_col, row_col, write_col, arrival_col in groups:
                batch[ci](bank_col, row_col, write_col, arrival_col, None, demand)
        pos += count
        last_ps = arrivals[pos - 1] + offset
        if count == sample:
            backlog = peak_bus() - last_ps
            if backlog > throttle_cap_ps:
                offset += backlog - throttle_cap_ps
    end_ps = manager.finish(last_ps)
    return collect_result(manager, trace, end_ps)


def _swap_merged_buffers(ctrls, batch):
    """Per-controller column buffers with the swap datapath merged in.

    Returns ``((bk, rw, wr, ar, ac, kd), flush_ctrl, flush_all, sink)``.
    The first five column lists accumulate deferred demand per
    controller; ``kd`` — the per-element request-kind column — is lazy:
    ``None`` while a controller's buffer holds pure demand, materialised
    the first time ``sink`` merges swap traffic into that buffer (from
    then on the owning kernel mirrors its demand appends into it).
    ``flush_ctrl(c)`` / ``flush_all()`` hand the columns to
    ``enqueue_batch`` and reset them.

    ``sink`` has the ``MigrationEngine.swap_sink`` signature: it merges
    one swap's per-controller transaction pattern — exactly the pattern
    ``swap_pages`` would have enqueued — into the buffers instead of
    enqueuing it.  A distinct-controller side (``lines`` same-bank
    same-row reads, then ``lines`` writes — the overwhelmingly common
    shape) *closes* the controller's open buffer segment (a list swap,
    no copying) and queues a run item behind it, so ``flush_ctrl``
    replays the controller as whole ``enqueue_batch`` segments
    alternating with closed-form ``enqueue_run`` calls.  This keeps the
    page copies off the per-element path entirely: expanding them into
    the columns costs list extends plus a per-element drain of every
    copy, and slicing one big column back apart at flush time costs segment
    copies — both measured slower (see EXPERIMENTS.md).  Only
    same-controller swaps, whose two banks interleave per line, expand
    per element (and materialise the lazy ``kd`` column).

    Exact because kernels only issue swaps due at or before the current
    cut, and every already-buffered element arrived strictly before
    that cut, so the merged emission order *is* the reference
    per-controller enqueue order — a due swap no longer ejects the
    buffered demand from the batched path, and the backlog it creates
    drains through the batched path's per-element scan.
    """
    demand = DEMAND
    migration = MIGRATION
    nctrl = len(ctrls)
    buf_bk = [[] for _ in range(nctrl)]
    buf_rw = [[] for _ in range(nctrl)]
    buf_wr = [[] for _ in range(nctrl)]
    buf_ar = [[] for _ in range(nctrl)]
    buf_ac = [[] for _ in range(nctrl)]
    buf_kd = [None] * nctrl
    # Closed emission items per controller: a 6-tuple is a finished
    # column segment, a 5-tuple a (bank, row, is_write, arrival, count)
    # page-copy run.
    segs = [[] for _ in range(nctrl)]
    run_fn = [ctrl.enqueue_run for ctrl in ctrls]
    ctrl_index = {id(ctrl): ci for ci, ctrl in enumerate(ctrls)}

    def flush_ctrl(c):
        sg = segs[c]
        if sg:
            enq_batch = batch[c]
            enq_run = run_fn[c]
            for item in sg:
                if len(item) == 6:
                    enq_batch(
                        item[0], item[1], item[2], item[3], item[4],
                        demand, item[5],
                    )
                else:
                    enq_run(item[0], item[1], item[2], item[3], item[4],
                            migration)
            segs[c] = []
        bk = buf_bk[c]
        if not bk:
            return
        batch[c](
            bk, buf_rw[c], buf_wr[c], buf_ar[c], buf_ac[c], demand, buf_kd[c]
        )
        buf_bk[c] = []
        buf_rw[c] = []
        buf_wr[c] = []
        buf_ar[c] = []
        buf_ac[c] = []
        buf_kd[c] = None

    def flush_all():
        for c in range(nctrl):
            if segs[c] or buf_bk[c]:
                flush_ctrl(c)

    def merge_side(c, bank, row, at_ps, write_ps, lines):
        bk = buf_bk[c]
        sg = segs[c]
        if bk:
            sg.append((bk, buf_rw[c], buf_wr[c], buf_ar[c], buf_ac[c],
                       buf_kd[c]))
            buf_bk[c] = []
            buf_rw[c] = []
            buf_wr[c] = []
            buf_ar[c] = []
            buf_ac[c] = []
            buf_kd[c] = None
        sg.append((bank, row, False, at_ps, lines))
        sg.append((bank, row, True, write_ps, lines))

    def sink(ctrl_a, bank_a, row_a, ctrl_b, bank_b, row_b, at_ps, write_ps, lines):
        ca = ctrl_index[id(ctrl_a)]
        cb = ctrl_index[id(ctrl_b)]
        if ca == cb:
            # One shared controller sees the interleaved a/b pattern:
            # 2*lines reads, then 2*lines writes (cf. swap_pages).
            kd = buf_kd[ca]
            if kd is None:
                buf_kd[ca] = kd = [demand] * len(buf_bk[ca])
            pair_bk = [bank_a, bank_b] * lines
            pair_rw = [row_a, row_b] * lines
            buf_bk[ca].extend(pair_bk + pair_bk)
            buf_rw[ca].extend(pair_rw + pair_rw)
            buf_wr[ca].extend([False] * (2 * lines) + [True] * (2 * lines))
            buf_ar[ca].extend([at_ps] * (2 * lines) + [write_ps] * (2 * lines))
            buf_ac[ca].extend([at_ps] * (2 * lines) + [write_ps] * (2 * lines))
            kd.extend([migration] * (4 * lines))
        else:
            # Distinct controllers share no state: each side's
            # subsequence (lines reads, then lines writes) is the
            # reference per-controller order of the interleaved loop.
            merge_side(ca, bank_a, row_a, at_ps, write_ps, lines)
            merge_side(cb, bank_b, row_b, at_ps, write_ps, lines)

    return (buf_bk, buf_rw, buf_wr, buf_ar, buf_ac, buf_kd), flush_ctrl, flush_all, sink


def _seed_view(manager, total_pages):
    """The manager's forward remap as ``(merged, frame_of)``: one sparse
    ``page -> frame`` dict across every remap table, and its dense int64
    twin over the flat space (``None`` while no page has moved, so
    replays that never migrate never allocate it).  The replay's one
    ``remap_columns`` call; later swaps arrive via the journal."""
    pages, frames = manager.remap_columns()
    frame_of = None
    if pages:
        frame_of = _np.arange(total_pages, dtype=_np.int64)
        frame_of[pages] = frames
    return dict(zip(pages, frames)), frame_of


def _absorb_journal(journal, frame_of, total_pages, merged=None):
    """Apply journalled swaps to the dense view (and ``merged``); clear
    the journal and return the view, built on first use.

    Entries apply in swap order, each placing two pages, so a page
    moved twice ends at its latest frame; a page placed back home gets
    ``frame_of[page] == page`` and leaves ``merged``, keeping the dict
    exactly as sparse as :meth:`RemapTable._set` keeps the tables.
    """
    if frame_of is None:
        frame_of = _np.arange(total_pages, dtype=_np.int64)
    for page_a, frame_b, page_b, frame_a in journal:
        frame_of[page_a] = frame_b
        frame_of[page_b] = frame_a
        if merged is not None:
            for page, frame in ((page_a, frame_b), (page_b, frame_a)):
                if page == frame:
                    merged.pop(page, None)
                else:
                    merged[page] = frame
    journal.clear()
    return frame_of


def _slice_pusher(manager, packed, bufs):
    """The vectorised event-free slice pass, shared by the interval
    engine and THM: returns ``push(i, cut, offset, frame_of,
    blocked_snap) -> blocked_snap``.

    ``push`` replays records ``[i, cut)`` — a slice the caller has
    proven holds no event — into the per-controller column buffers
    ``bufs`` (see :func:`_swap_merged_buffers`):

    * block penalties via binary search against ``blocked_snap``, a
      sorted ``(pages, untils)`` snapshot of the block table
      (``blocked_columns``, rebuilt when ``None``), pruned once per
      slice — state-equivalent to the reference's per-record prune
      because entries expired for an earlier record yield no penalty
      for any later one and nothing is added mid-slice;
    * translation by one gather from the dense page-to-frame view
      ``frame_of`` (``None`` while no page has moved, see
      :func:`_absorb_journal`);
    * one dense decode of the translated addresses
      (:func:`_hybrid_decode_np` — identity records decode from their
      original address);
    * transactions grouped by controller (stable argsort) and appended
      to the buffers — exact because controllers share no state and
      per-controller order is preserved.

    It returns the snapshot, or ``None`` when the prune changed the
    block table and the next slice must rebuild it.
    """
    buf_bk, buf_rw, buf_wr, buf_ar, buf_ac, buf_kd = bufs
    decode = _hybrid_decode_np(manager.memory)
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    (page_col,) = packed.np_columns(
        ("pages", page_shift), (packed.pages(page_shift),)
    )
    (arr_col, write_col) = packed.np_columns(
        ("records",), (packed.arrivals, packed.is_writes)
    )
    addr_col = packed.np_addresses()
    arrivals = packed.arrivals
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    prune_blocked = manager._prune_blocked
    demand = DEMAND
    asarray = _np.asarray
    int64 = _np.int64
    searchsorted = _np.searchsorted
    flatnonzero = _np.flatnonzero
    argsort = _np.argsort

    def push(i, cut, offset, frame_of, blocked_snap):
        arr = arr_col[i:cut]
        if offset:
            arr = arr + offset
        pg = page_col[i:cut]
        acct = None
        if blocked or expiry:
            if blocked:
                if blocked_snap is None:
                    bpages, buntils = manager.blocked_columns()
                    blocked_snap = (
                        asarray(bpages, dtype=int64),
                        asarray(buntils, dtype=int64),
                    )
                bpages, buntils = blocked_snap
                bidx = searchsorted(bpages, pg)
                _np.minimum(bidx, len(bpages) - 1, out=bidx)
                bhit = bpages[bidx] == pg
                if bhit.any():
                    pen = buntils[bidx[bhit]] - arr[bhit]
                    stalled = pen > 0
                    hits = int(stalled.sum())
                    if hits:
                        manager.blocked_hits += hits
                        acct = arr.copy()
                        acct[flatnonzero(bhit)[stalled]] -= pen[stalled]
            size = len(blocked)
            prune_blocked(arrivals[cut - 1] + offset)
            if len(blocked) != size:
                blocked_snap = None
        translated = addr_col[i:cut]
        if frame_of is not None:
            frames = frame_of[pg]
            if (frames != pg).any():
                translated = (frames << page_shift) | (translated & page_mask)
        ci, bk, rw = decode(translated)
        order = argsort(ci, kind="stable")
        ci_s = ci[order]
        cuts = flatnonzero(ci_s[1:] != ci_s[:-1]) + 1
        bounds = [0, *cuts.tolist(), cut - i]
        ci_l = ci_s.tolist()
        bk_l = bk[order].tolist()
        rw_l = rw[order].tolist()
        wr_l = write_col[i:cut][order].tolist()
        ar_l = arr[order].tolist()
        ac_l = ar_l if acct is None else acct[order].tolist()
        for gi in range(len(bounds) - 1):
            lo = bounds[gi]
            hi = bounds[gi + 1]
            c = ci_l[lo]
            buf_bk[c].extend(bk_l[lo:hi])
            buf_rw[c].extend(rw_l[lo:hi])
            buf_wr[c].extend(wr_l[lo:hi])
            buf_ar[c].extend(ar_l[lo:hi])
            buf_ac[c].extend(ac_l[lo:hi])
            kd = buf_kd[c]
            if kd is not None:
                kd.extend([demand] * (hi - lo))
        return blocked_snap

    return push


def _columnar_interval_replay(trace, packed, manager, throttle_cap_ps, flush_trackers):
    """Columnar engine shared by the boundary-triggered kernels.

    Replays the trace interval by interval instead of record by record:
    within each throttle chunk, one ``searchsorted`` over the arrival
    column (:meth:`PackedTrace.cut_at`) finds where the next event — an
    interval boundary or a due paced swap — lands, and everything before
    the cut is one *event-free slice*.  A long slice goes through the
    shared vectorised pass (:func:`_slice_pusher`: block penalties,
    translation through the dense page-to-frame view, one decode of the
    translated address slice, grouping by controller); a slice of at
    most ``_SCALAR_SLICE`` records replays per record through the
    mappers' ``fast_decode`` instead.  Either way the transactions land
    in per-controller column buffers that live across slices and flush
    through one ``enqueue_batch`` call per controller; a due swap
    *merges* its migration runs into the buffered demand columns
    through the engine's swap sink (see :func:`_swap_merged_buffers`)
    instead of flushing them, so only a boundary (whose plans may touch
    any controller and may stall the machine) and the chunk-end
    throttle probe flush everything.  Tracker updates are deferred and
    flushed in one ``record_batch`` call right before each boundary
    runs (trackers are only *read* at boundaries and never touch the
    controllers, so deferral commutes); ``flush_trackers(lo, hi)`` is
    the kernel-specific hook.  Migration traffic is batched too:
    ``engine.batch_swaps`` routes ``swap_pages`` through
    ``enqueue_batch`` for the kernel's duration.

    At the cut the event fires exactly as the reference per-record check
    would: elapsed boundaries run in order (trackers flushed first),
    then due swaps issue; both invalidate the block snapshot, and every
    swap they make lands in the remap journal, which the next slice
    absorbs into the view before it translates.  The ``finally``
    restores the engine flag, detaches the journal, writes the boundary
    cursor back, and flushes trackers for every record already
    replayed, so an exception mid-chunk cannot leave the manager with
    stale state.
    """
    memory = manager.memory
    ctrls = _hybrid_controllers(memory)
    batch = [ctrl.enqueue_batch for ctrl in ctrls]
    peak_bus = memory.peak_bus_free_ps
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    pages_l = packed.pages(page_shift)
    addresses = packed.addresses
    is_writes = packed.is_writes
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    block_penalty = manager._block_penalty_ps
    fast_decode = memory.fast.mapper.fast_decode
    slow_decode = memory.slow.mapper.fast_decode
    queue = manager._swap_queue
    issue_swaps = manager._issue_due_swaps
    run_boundary = manager._run_boundary
    interval = manager.interval_ps
    next_boundary = manager._next_boundary_ps
    fast_bytes = memory.geometry.fast_bytes
    fast_channels = memory.fast.channels
    demand = DEMAND
    engine = manager.engine
    arrivals = packed.arrivals
    cut_at = packed.cut_at
    total_pages = memory.geometry.total_pages

    # Per-controller column buffers.  Demand accumulates here across
    # slices — and due swaps merge their traffic in through the
    # engine's swap sink — flushing through one enqueue_batch per
    # controller; per-controller order — the only order that matters,
    # controllers share no state — is preserved.
    bufs, flush_ctrl, flush_all, swap_sink = _swap_merged_buffers(ctrls, batch)
    buf_bk, buf_rw, buf_wr, buf_ar, buf_ac, buf_kd = bufs
    push = _slice_pusher(manager, packed, bufs)

    total = packed.length
    sample = THROTTLE_SAMPLE_PERIOD if throttle_cap_ps else 0
    # The merged sparse remap the scalar path reads, and its dense twin
    # the vector path gathers from (built on the first remapped page).
    remap, frame_of = _seed_view(manager, total_pages)
    remap_get = remap.get
    journal = []
    tables = manager.remap_tables()
    blocked_snap = None  # sorted (pages, untils) snapshot; None -> rebuild
    last_ps = 0
    offset = 0
    pos = 0
    i = 0
    flushed = 0  # records whose tracker updates have been applied
    # hoists: engine.batch_swaps, engine.swap_sink, table.journal
    engine.batch_swaps = True
    engine.swap_sink = swap_sink
    try:
        for table in tables:
            table.journal = journal
        while pos < total:
            end = pos + sample if sample else total
            if end > total:
                end = total
            i = pos
            while i < end:
                if journal:
                    frame_of = _absorb_journal(journal, frame_of, total_pages, remap)
                event = next_boundary
                if queue and queue[0][0] < event:
                    event = queue[0][0]
                cut = cut_at(event - offset, i, end)
                if i < cut <= i + _SCALAR_SLICE:
                    # -- short event-free slice: per-record replay is
                    # cheaper than the column set-up --------------------
                    checked = len(blocked) if blocked_snap is not None else -1
                    for k in range(i, cut):
                        arrival = arrivals[k] + offset
                        page = pages_l[k]
                        penalty = (
                            block_penalty(page, arrival) if blocked or expiry else 0
                        )
                        frame = remap_get(page)
                        translated = (
                            addresses[k]
                            if frame is None
                            else (frame << page_shift) | (addresses[k] & page_mask)
                        )
                        if translated < fast_bytes:
                            ck, bank, row = fast_decode(translated)
                        else:
                            ck, bank, row = slow_decode(translated - fast_bytes)
                            ck += fast_channels
                        buf_bk[ck].append(bank)
                        buf_rw[ck].append(row)
                        buf_wr[ck].append(is_writes[k])
                        buf_ar[ck].append(arrival)
                        buf_ac[ck].append(arrival - penalty)
                        kd = buf_kd[ck]
                        if kd is not None:
                            kd.append(demand)
                    if checked >= 0 and len(blocked) != checked:
                        blocked_snap = None
                    i = cut
                elif cut > i:
                    blocked_snap = push(i, cut, offset, frame_of, blocked_snap)
                    i = cut
                if i >= end:
                    break
                # -- the record at the cut fires the event(s) -----------
                arrival = arrivals[i] + offset
                if arrival >= next_boundary:
                    flush_trackers(flushed, i)
                    flushed = i
                    # Boundary plans may issue swaps to any controller
                    # and may stall the whole machine (block_until
                    # services controller state directly), so deferred
                    # demand lands first and the sink comes off — swap
                    # traffic a boundary issues goes straight down the
                    # batched datapath against the now-empty buffers,
                    # which is the reference order exactly.
                    flush_all()
                    engine.swap_sink = None
                    while arrival >= next_boundary:
                        run_boundary(next_boundary)
                        next_boundary += interval
                    engine.swap_sink = swap_sink
                    blocked_snap = None
                if queue and queue[0][0] <= arrival:
                    # Due swaps merge into the buffered demand columns
                    # through the swap sink: every buffered element
                    # arrived strictly before the cut, and the cut is at
                    # or before every due issue time, so appending each
                    # swap's runs preserves the per-controller reference
                    # enqueue order — a swap no longer ejects a chunk's
                    # deferred demand from the batched path.
                    issue_swaps(arrival)
                    blocked_snap = None
            flush_all()
            last_ps = arrivals[end - 1] + offset
            if end - pos == sample:
                backlog = peak_bus() - last_ps
                if backlog > throttle_cap_ps:
                    offset += backlog - throttle_cap_ps
            pos = end
        flush_trackers(flushed, total)
        flushed = i = total
        manager._next_boundary_ps = next_boundary
        # finish() issues the still-scheduled swaps and drains the
        # devices — controller-direct work, so the sink comes off first
        # (the buffers are empty: every chunk ends in flush_all()).
        engine.swap_sink = None
        end_ps = manager.finish(last_ps)
    finally:
        engine.batch_swaps = False
        engine.swap_sink = None
        manager._next_boundary_ps = next_boundary
        for table in tables:
            table.journal = None
        if flushed < i:
            flush_trackers(flushed, i)
            flushed = i
    return collect_result(manager, trace, end_ps)


def _replay_mempod(trace, packed, manager, throttle_cap_ps):
    """MemPod without a metadata cache: boundary ticks, paced swaps,
    per-pod MEA recording and remap lookup, block penalties.

    The columnar interval engine replays whole event-free slices at
    once (see :func:`_columnar_interval_replay`); the MEA updates
    deferred across a slice flush through
    :meth:`~repro.tracking.mea.MeaTracker.record_batch` per pod, each
    pod seeing exactly its own page subsequence in order.  Pod ids are
    computed per flushed slice with MemPod's inlined pod-of-page
    formula.
    """
    shift = manager._page_shift
    (page_col,) = packed.np_columns(("pages", shift), (packed.pages(shift),))
    record_batches = [pod.mea.record_batch for pod in manager.pods]
    if len(record_batches) == 1:
        only = record_batches[0]

        def flush_trackers(lo, hi):
            if hi > lo:
                only(page_col[lo:hi])

    else:
        fast_pages = manager._fast_pages
        ppr = manager._ppr
        fast_chan = manager._fast_chan
        fast_cpp = manager._fast_cpp
        slow_chan = manager._slow_chan
        slow_cpp = manager._slow_cpp
        where = _np.where

        def flush_trackers(lo, hi):
            if hi > lo:
                pages_slice = page_col[lo:hi]
                pods_slice = where(
                    pages_slice < fast_pages,
                    ((pages_slice // ppr) % fast_chan) // fast_cpp,
                    (((pages_slice - fast_pages) // ppr) % slow_chan) // slow_cpp,
                )
                for pod_id, record_batch in enumerate(record_batches):
                    member = pages_slice[pods_slice == pod_id]
                    if len(member):
                        record_batch(member)

    return _columnar_interval_replay(
        trace, packed, manager, throttle_cap_ps, flush_trackers
    )


def _replay_hma(trace, packed, manager, throttle_cap_ps):
    """HMA without a counter cache: epoch ticks, paced swaps, full-counter
    recording, page-table lookup, block penalties.

    The columnar interval engine replays whole event-free slices (see
    :func:`_columnar_interval_replay`); the full-counter updates
    deferred across a slice flush through one
    :meth:`~repro.tracking.full_counters.FullCountersTracker.record_batch`
    call per epoch.
    """
    shift = manager._page_shift
    (page_col,) = packed.np_columns(("pages", shift), (packed.pages(shift),))
    record_batch = manager.tracker.record_batch

    def flush_trackers(lo, hi):
        if hi > lo:
            record_batch(page_col[lo:hi])

    return _columnar_interval_replay(
        trace, packed, manager, throttle_cap_ps, flush_trackers
    )


def _replay_thm(trace, packed, manager, throttle_cap_ps):
    """THM without an SRT cache: competing counters, inline migration,
    segment-local remap, block penalties.

    THM has no boundaries, but its only event is the inline migration,
    and :meth:`CompetingCounterArray.access_batch` both applies a run of
    counter updates vectorised *and* reports where the first threshold
    crossing lands.  So each throttle chunk replays as: translate the
    rest of the chunk (one gather from the dense page-to-frame view, see
    :func:`_absorb_journal`), compute each record's segment from its
    page, classify it as challenger or defender from its effective
    frame, let ``access_batch`` find the first trigger, push the
    trigger-free prefix through the shared slice pass
    (:func:`_slice_pusher`), then replay the triggering record itself
    through the exact scalar path (decoded through the mappers) — its
    migration's swap traffic merges into the buffered columns through
    the engine's swap sink, and the trigger's own transaction is
    buffered right behind it — and repeat from the next record, after
    absorbing the migration's journalled swap into the view.  The
    buffers flush through one ``enqueue_batch`` call per controller at
    each chunk end (before the throttle probe reads the bus cursors), so
    the migration backlog drains through the batched path's hoisted
    scan instead of the scalar ``enqueue``.
    """
    memory = manager.memory
    ctrls = _hybrid_controllers(memory)
    batch = [ctrl.enqueue_batch for ctrl in ctrls]
    bufs, flush_ctrl, flush_all, swap_sink = _swap_merged_buffers(ctrls, batch)
    buf_bk, buf_rw, buf_wr, buf_ar, buf_ac, buf_kd = bufs
    push = _slice_pusher(manager, packed, bufs)
    peak_bus = memory.peak_bus_free_ps
    page_shift = manager._page_shift
    page_mask = manager._page_mask
    pages = packed.pages(page_shift)
    (page_col,) = packed.np_columns(("pages", page_shift), (pages,))
    fast_pages = manager.geometry.fast_pages
    access_batch = manager.counters.access_batch
    access_resident = manager.counters.access_resident
    access_challenger = manager.counters.access_challenger
    migrate = manager._migrate
    location_get = manager._location.get
    block_penalty = manager._block_penalty_ps
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    fast_bytes = memory.geometry.fast_bytes
    fast_decode = memory.fast.mapper.fast_decode
    slow_decode = memory.slow.mapper.fast_decode
    fast_channels = memory.fast.channels
    demand = DEMAND
    engine = manager.engine
    arrivals = packed.arrivals
    is_writes = packed.is_writes
    addresses = packed.addresses
    where = _np.where

    total = packed.length
    sample = THROTTLE_SAMPLE_PERIOD if throttle_cap_ps else 0
    total_pages = manager.geometry.total_pages
    _, frame_of = _seed_view(manager, total_pages)
    journal = []
    tables = manager.remap_tables()
    blocked_snap = None
    last_ps = 0
    offset = 0
    pos = 0

    # hoists: engine.batch_swaps, engine.swap_sink, table.journal
    engine.batch_swaps = True
    engine.swap_sink = swap_sink
    try:
        for table in tables:
            table.journal = journal
        while pos < total:
            end = pos + sample if sample else total
            if end > total:
                end = total
            i = pos
            while i < end:
                if journal:
                    frame_of = _absorb_journal(journal, frame_of, total_pages)
                pg = page_col[i:end]
                frames = pg if frame_of is None else frame_of[pg]
                # Challenger iff the *effective* frame lives in slow
                # memory — the same test the scalar path's frame branch
                # makes (location_get default = identity).
                seg = where(pg < fast_pages, pg, (pg - fast_pages) % fast_pages)
                trigger = access_batch(seg, pg, frames >= fast_pages)
                cut = end if trigger is None else i + trigger
                if cut > i:
                    blocked_snap = push(i, cut, offset, frame_of, blocked_snap)
                    i = cut
                if trigger is None:
                    break
                # -- the triggering record replays scalar ---------------
                arrival = arrivals[i] + offset
                page = pages[i]
                segment = (
                    page if page < fast_pages else (page - fast_pages) % fast_pages
                )
                if blocked or expiry:
                    bsize = len(blocked)
                    penalty = block_penalty(page, arrival)
                    if blocked_snap is not None and len(blocked) != bsize:
                        blocked_snap = None
                else:
                    penalty = 0
                frame = location_get(page)
                if (frame if frame is not None else page) < fast_pages:
                    access_resident(segment)
                else:
                    challenger = access_challenger(segment, page)
                    if challenger is not None:
                        # A real swap journals itself and blocks its two
                        # pages; a stale trigger (challenger already
                        # resident) moves nothing.
                        penalty += migrate(segment, challenger, arrival)
                        frame = location_get(page, page)
                        if journal:
                            blocked_snap = None
                translated = (
                    addresses[i]
                    if frame is None
                    else (frame << page_shift) | (addresses[i] & page_mask)
                )
                if translated < fast_bytes:
                    ci, bank, row = fast_decode(translated)
                else:
                    ci, bank, row = slow_decode(translated - fast_bytes)
                    ci += fast_channels
                # The trigger record lands in the buffer *after* any
                # swap traffic its migration merged through the sink —
                # exactly the reference's per-controller enqueue order.
                buf_bk[ci].append(bank)
                buf_rw[ci].append(row)
                buf_wr[ci].append(is_writes[i])
                buf_ar[ci].append(arrival)
                buf_ac[ci].append(arrival - penalty)
                kd = buf_kd[ci]
                if kd is not None:
                    kd.append(demand)
                i += 1
            # The throttle probe reads controller bus cursors, so the
            # deferred columns must land first.
            flush_all()
            last_ps = arrivals[end - 1] + offset
            if end - pos == sample:
                backlog = peak_bus() - last_ps
                if backlog > throttle_cap_ps:
                    offset += backlog - throttle_cap_ps
            pos = end
        # Buffers are empty at chunk boundaries; finish() runs direct.
        engine.swap_sink = None
        end_ps = manager.finish(last_ps)
    finally:
        engine.batch_swaps = False
        engine.swap_sink = None
        for table in tables:
            table.journal = None
    return collect_result(manager, trace, end_ps)


def _replay_cameo(trace, packed, manager, throttle_cap_ps):
    """CAMEO without the location predictor.

    Fast path: an identity-mapped fast-resident line that is not on the
    untouched list — serve it directly (channel/bank/row decode from
    the original address, whose low six line-offset bits sit below
    every mapper shift, so they match ``line * 64`` exactly).
    Everything else — any slow access (it always swaps), any remapped
    line, any untouched-list hit — replays through the real ``handle``
    so the swap/eviction bookkeeping stays exact.  Line numbers and
    decodes are computed once per :func:`_stream_window` window, so no
    trace-length column is built; the record stream chains the windows,
    so throttle chunks (or the one unthrottled chunk) may span them.
    """
    memory = manager.memory
    ctrls = _hybrid_controllers(memory)
    enqueues = [ctrl.enqueue for ctrl in ctrls]
    peak_bus = memory.peak_bus_free_ps
    decode = _hybrid_decode_np(memory)
    location_get = manager._location.get
    untouched = manager._untouched_in_fast
    fast_lines = manager.fast_lines
    handle = manager.handle
    block_penalty = manager._block_penalty_ps
    blocked = manager._blocked
    expiry = manager._blocked_expiry
    demand = DEMAND

    arrivals = packed.arrivals
    addr_col = packed.np_addresses()
    total = packed.length
    window = _stream_window(packed)

    def windows():
        for begin in range(0, total, window):
            stop = begin + window
            block = addr_col[begin:stop]
            ci, bank, row = decode(block)
            yield zip(
                arrivals[begin:stop], packed.is_writes[begin:stop],
                packed.addresses[begin:stop], packed.cores[begin:stop],
                (block >> LINE_SHIFT).tolist(),
                ci.tolist(), bank.tolist(), row.tolist(),
            )

    records = chain.from_iterable(windows())
    last_ps = 0
    offset = 0
    pos = 0
    sample = THROTTLE_SAMPLE_PERIOD if throttle_cap_ps else 0
    while pos < total:
        end = pos + sample if sample else total
        if end > total:
            end = total
        for arrival, is_write, address, core, line, ci, bank, row in islice(
            records, end - pos
        ):
            arrival += offset
            if (
                line < fast_lines
                and location_get(line) is None
                and line not in untouched
            ):
                if blocked or expiry:
                    penalty = block_penalty(line, arrival)
                else:
                    penalty = 0
                enqueues[ci](bank, row, is_write, arrival, demand, arrival - penalty)
            else:
                handle(address, is_write, arrival, core)
        last_ps = arrivals[end - 1] + offset
        if end - pos == sample:
            backlog = peak_bus() - last_ps
            if backlog > throttle_cap_ps:
                offset += backlog - throttle_cap_ps
        pos = end
    end_ps = manager.finish(last_ps)
    return collect_result(manager, trace, end_ps)


# -- dispatch --------------------------------------------------------------

#: The most recent :func:`fast_simulate` dispatch decision, as a
#: ``"specialised:<kind>"`` or ``"fallback:<reason>"`` string.  Dispatch
#: is *structural* (manager type and configuration), never exception
#: driven: a specialised kernel that raises mid-replay propagates the
#: error — it is NEVER caught and silently retried on the reference
#: loop, because a kernel that can fail where the reference loop would
#: not is itself a bug the differential suite must see.  This module
#: global (plus the reason returned by :func:`select_kernel`) exists so
#: tests and debugging sessions can observe *why* a run took the path
#: it took.
last_dispatch = "unused"


def _gate_mempod(manager):
    return "metadata-cache" if manager._caches is not None else None


def _gate_metadata_cache(manager):
    return "metadata-cache" if manager._cache is not None else None


def _gate_cameo(manager):
    return "predictor" if manager.predictor_entries else None


def _gate_none(manager):
    return None


#: Spec-shape dispatch table: (trigger, flexibility) -> (canonical
#: manager class, kernel name, label, config gate).  Each specialised
#: loop was written against one canonical implementation, so after the
#: shape match the manager's type must still be *exactly* that class —
#: shape says what the mechanism does, not how its internals are laid
#: out.  Kernels are stored by name and resolved through the module
#: namespace at dispatch time, so tests can monkeypatch a loop.
_SHAPE_KERNELS = {
    ("none", "none"): (NoMigrationManager, "_replay_tlm", "tlm", _gate_none),
    ("none", "single"): (
        SingleLevelManager, "_replay_single", "single-level", _gate_none,
    ),
    ("interval", "pod"): (MemPodManager, "_replay_mempod", "mempod", _gate_mempod),
    ("epoch", "global"): (HmaManager, "_replay_hma", "hma", _gate_metadata_cache),
    ("threshold", "segment"): (
        ThmManager, "_replay_thm", "thm", _gate_metadata_cache,
    ),
    ("event", "group"): (CameoManager, "_replay_cameo", "cameo", _gate_cameo),
}


def select_kernel(manager) -> "tuple":
    """Pick the specialised kernel for ``manager``: ``(kernel, reason)``.

    Dispatch goes through the mechanism's declared *shape* — its
    ``(trigger, flexibility)`` pair — then verifies the concrete type is
    the canonical implementation the specialised loop was written
    against.  ``kernel`` is ``None`` when only the reference loop is
    exact for this configuration; ``reason`` always explains the
    decision:

    * ``specialised:<kind>`` — the named fast loop will run;
    * ``fallback:multi-tier`` — the memory has more than two tiers;
      every specialised loop was written against the fast/slow pair,
      so N-tier systems replay on the reference loop;
    * ``fallback:metadata-cache`` — per-record cache state (MemPod/HMA/
      THM metadata caches) makes hoisting a wash and is not inlined;
    * ``fallback:predictor`` — the CAMEO line-location predictor;
    * ``fallback:subclass:<Name>`` — a subclass of a canonical manager
      may override anything, so only the reference loop is trusted;
    * ``fallback:novel-spec:<Name>`` — a registered mechanism sharing a
      canonical shape but not its implementation;
    * ``fallback:novel-shape:<trigger>x<flexibility>`` — a shape no
      specialised loop exists for.
    """
    if len(manager.memory.tiers) > 2:
        return None, "fallback:multi-tier"
    manager_type = type(manager)
    trigger = getattr(manager, "trigger", "none")
    flexibility = getattr(manager, "flexibility", "none")
    entry = _SHAPE_KERNELS.get((trigger, flexibility))
    if entry is None:
        return None, f"fallback:novel-shape:{trigger}x{flexibility}"
    canonical, kernel_name, label, gate = entry
    if manager_type is not canonical:
        if issubclass(manager_type, canonical):
            return None, f"fallback:subclass:{manager_type.__name__}"
        return None, f"fallback:novel-spec:{manager_type.__name__}"
    blocked = gate(manager)
    if blocked is not None:
        return None, f"fallback:{blocked}"
    return globals()[kernel_name], f"specialised:{label}"


def fast_simulate(trace, manager, throttle_cap_ps=DEFAULT_THROTTLE_CAP_PS):
    """Replay ``trace`` through ``manager`` on the fastest exact path.

    Drop-in equivalent of
    :func:`repro.system.simulator.reference_simulate`: same arguments,
    same result, same exceptions.  Unsupported configurations (manager
    subclasses, metadata caches, the CAMEO predictor, out-of-range
    traces) fall back to the reference loop — the decision is recorded
    in :data:`last_dispatch`.  Once a specialised kernel starts, any
    exception it raises propagates to the caller; failures are never
    swallowed into a silent reference-loop retry.
    """
    global last_dispatch
    kernel, reason = select_kernel(manager)
    last_dispatch = reason
    if kernel is None:
        return reference_simulate(trace, manager, throttle_cap_ps)
    packed = trace.packed()
    if packed.length and packed.np_addresses().max() >= manager.geometry.total_bytes:
        # The direct enqueues bypass memory.access bounds checking; an
        # out-of-range record must raise AddressError at exactly the
        # reference loop's point of failure, so replay it the slow way.
        # The bound is the address column's own maximum, never a file
        # header's claim about it.
        last_dispatch = "fallback:out-of-range-address"
        return reference_simulate(trace, manager, throttle_cap_ps)
    return kernel(trace, packed, manager, throttle_cap_ps)
