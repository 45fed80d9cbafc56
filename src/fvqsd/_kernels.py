"""Hot inner loops of the three stochastic engines, in plain Python and numpy.

The labelled loops copy their numpy inputs into Python lists once per call,
because indexing a list is several times cheaper than reading a numpy
scalar.

The labelled event-driven dynamics live in one loop, ``_run``; ``run_events``
and ``run_recorded`` are its two entry points.  The loop is uniformized:
epochs arrive at the constant rate N R, where R = max site_rate, and at
each epoch

* the particle is i = floor(u1 N), with no sum over the particles' rates;
* with x its site, the epoch is null when u2 >= site_rate[x] / R;
* otherwise the move is the first j with u2 < move_table[x, j] *
  site_rate[x] / R, and j = n_sites is an absorption attempt; a forced 2.0
  entry scales to twice the null threshold, so it is never crossed;
* an absorption attempt revives i onto particle floor(u3 (N - 1)), counted
  past i, so never i itself.

By Poisson thinning each particle at x then moves at rate site_rate[x]
with the move table's split, which is the law of the plain event-driven
loop (Jensen 1953; Lewis and Shedler 1979).  Cost model: a run takes N R
epochs per unit time, and real events per epoch = (mean site_rate over the
particles) / R.  At the QSD that is 0.69 on the golden chain and 0.73 on
perfbench's bottleneck chain D, whose slow site holds 0.27 of the mass.

The draws come in chunks: one gen.exponential(1.0, m) for the epoch gaps,
then one gen.random((3, m)) for (u1, u2, u3), with m sized from the time
left to the last record time and at most ``CHUNK_EPOCHS``.  So run_events
to h and run_recorded at times ending at h consume the same draws.

``run_counts`` runs the same dynamics on site counts alone, and
``scan_sizes`` the influence size chain, each for one lockstep group of
``seeding.lockstep_groups``: each step is a few numpy calls across all
the group's blocks, not a Python loop per replica, and each block draws
from its own generator in the order it would draw alone.  Each states
its measured bytes per replica beside it, by which the groups are sized.
Randomness is drawn only through np.random.Generator methods in a fixed
order, so a seeded generator reproduces its trajectories bit for bit.

The mark kernels draw nothing: ``apply_marks`` replays a mark
realization's event table in order, reading the site maps as one flat
list with a row offset per event, and ``influence_matrix_kernel`` scans
its (particle, partner) pairs backward once for all roots: each label
holds a Python-int bitmask of the roots whose set contains it, so the
scan makes one pass over the events, not one per root, and the N masks
unpack into the (roots, N) matrix at the end.
"""
from __future__ import annotations

import bisect
import functools
import math

import numpy as np

__all__ = [
    "USING_JIT",
    "run_events",
    "run_recorded",
    "run_counts",
    "scan_sizes",
    "apply_marks",
    "influence_matrix_kernel",
]

# Kernels are never compiled.  The name stays because benchmark reports
# record it as the backend that ran.
USING_JIT = False

# Most epochs of the labelled loop drawn at once: 16384 epochs of four
# float64 draws hold 512 KiB.
CHUNK_EPOCHS = 16384


def _run(gen, positions, site_rate, cum_move, record_times, out):
    # The event loop behind run_events and run_recorded; returns the number
    # of real (non-null) events.  out=None keeps no snapshots.
    n_rec = len(record_times)
    if n_rec == 0:
        return 0
    n_particles = len(positions)
    n_sites = len(site_rate)
    pos = positions.tolist()
    times = np.asarray(record_times, dtype=np.float64)
    t_end = float(times[-1])
    top = float(site_rate.max())
    rec = 0
    n_events = 0
    lam = n_particles * top
    # thr[x] is the null threshold site_rate[x] / R, and row x of rows is
    # move_table[x] scaled by it.
    scale = site_rate / top
    thr = scale.tolist()
    rows = (cum_move * scale[:, None]).tolist()
    bisect_right = bisect.bisect_right
    t = 0.0
    while True:
        # The expected epochs left before the last record time, plus
        # four standard deviations and 16, so one chunk usually ends
        # the run.
        mean = lam * (t_end - t)
        m = int(min(CHUNK_EPOCHS, mean + 4.0 * math.sqrt(mean) + 16.0))
        steps = gen.exponential(1.0, m) / lam
        steps[0] += t
        # add.accumulate adds left to right, as `t += step` does.
        epoch = np.add.accumulate(steps)
        u1, u2, u3 = gen.random((3, m))
        pick = (u1 * n_particles).astype(np.int64)
        donor = (u3 * (n_particles - 1)).astype(np.int64)
        donor += donor >= pick
        # Epochs [lo, stop) fall at or before record time rec, so its
        # snapshot is right-continuous.
        lo = 0
        for stop in epoch.searchsorted(times[rec:], "right").tolist():
            segment = zip(pick[lo:stop].tolist(), u2[lo:stop].tolist(),
                          donor[lo:stop].tolist())
            for i, v, j in segment:
                x = pos[i]
                if v < thr[x]:
                    y = bisect_right(rows[x], v)
                    pos[i] = pos[j] if y == n_sites else y
                    n_events += 1
            lo = stop
            if stop == m:
                break
            if out is not None:
                out[rec] = pos
            rec += 1
        if rec == n_rec:
            break
        t = float(epoch[-1])
    if out is not None:
        out[rec:] = pos
    positions[:] = pos
    return n_events


def run_events(gen, positions, site_rate, cum_move, horizon):
    """Drive the interacting-particle dynamics over [0, horizon].

    positions is modified in place.  Each particle at site x moves at rate
    site_rate[x]: an internal jump (rows of cum_move hold the cumulative
    split) or, on an absorption attempt, onto the position of a uniformly
    chosen other particle.  Returns the number of real (non-null) events.
    """
    return _run(gen, positions, site_rate, cum_move, (horizon,), None)


def run_recorded(gen, positions, site_rate, cum_move, record_times, out):
    """Same dynamics as run_events, snapshotting at the given sorted times.

    out has shape (len(record_times), n_particles).  Snapshots are
    right-continuous: a record time equal to an event time sees the
    post-event configuration.  positions ends at the last record time and
    is returned.
    """
    _run(gen, positions, site_rate, cum_move, record_times, out)
    return positions


def _running_sums(rows):
    # Prefix sums down axis 0, in place.  Each column is added left to
    # right, as np.cumsum does, but one vector add per row is several times
    # faster than np.cumsum(axis=0) when there are few rows.
    for j in range(1, len(rows)):
        rows[j] += rows[j - 1]
    return rows


def _draws(draw, sizes, lead=()):
    # draw[b](lead + (sizes[b],)) for each block b with sizes[b] > 0,
    # joined along the last axis in block order.  A one-block group calls
    # its generator directly.
    if len(draw) == 1:
        return draw[0](lead + (sizes[0],))
    parts = [d(lead + (n,)) for d, n in zip(draw, sizes) if n]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _block_counts(live, bounds):
    # How many of the sorted live rows each block holds; one block holds all.
    if len(bounds) == 2:
        return [live.size]
    return np.diff(live.searchsorted(bounds)).tolist()


def count_replica_bytes(n_sites):
    # Peak bytes per replica of run_counts's working set, measured with
    # tracemalloc on rings of 1-200 sites: 139 on one site, then about 80
    # plus 44 per site (163 on two, 2251 on 50, 8818 on 200).
    return 100 + 44 * n_sites


def run_counts(gens, bounds, starts, site_rate, cum_move, record_times, out):
    """Exact site-count dynamics of blocks of replicas, stepped in lockstep.

    Block b is rows [bounds[b], bounds[b + 1]) of the replicas, draws from
    gens[b] and starts each replica from the site counts starts[b], whose
    sum is its particle count N.  out has shape (replicas,
    len(record_times), n_sites).  The particles are exchangeable, so the
    counts are a Markov chain of their own.  Each step gives every live
    replica one event: a site x chosen with probability proportional to
    c_x * site_rate[x], then a move by the first u < row[j] rule of
    cum_move, as in ``_run``.  An absorption attempt revives the particle
    onto a uniformly chosen other particle, drawn with an integer in
    [0, N - 1) from c - e_x; a revival onto its own site is an event that
    leaves the counts unchanged.

    Between record times the replicas still live are those whose next
    event falls at or before the record time.  An event drawn past it is
    dropped and the clock restarts there, which the memoryless holding time
    makes exact.  Snapshots are right-continuous.

    Each step draws block by block, for the block's live replicas in
    replica order: gen.standard_exponential(live) for the holding times,
    then one gen.random((2, k)) for the k that fire, row 0 picking the
    site and row 1 the move, then gen.integers(0, N - 1, kills) if any are
    revived.  (gen.random((2, k)) gives the values of gen.random(k) for
    the sites and then gen.random(k) for the moves, in that order.)  A
    block with no live replica draws nothing until the next record time.
    So every block draws, and ends, as it would in a run of its own, and
    how blocks are grouped changes no count.  Returns the number of
    events applied.
    """
    n_reps, n_sites = bounds[-1], len(site_rate)
    block_sizes = np.diff(bounds).tolist()
    n_particles = starts.sum(axis=1).tolist()
    waits = [g.standard_exponential for g in gens]
    uniforms = [g.random for g in gens]
    donors_of = [functools.partial(g.integers, 0, n - 1)
                 for g, n in zip(gens, n_particles)]
    rate = site_rate[:, None]
    # Rows of cum_move are sorted, so the first j with u < row[j] is the
    # number of the row's entries <= u; n_sites means an absorption attempt.
    # Column x of move_rows is row x.
    move_rows = cum_move.T
    # Site-major counts (exact in float64), so each step's arithmetic runs
    # along replicas.  c holds the live replicas: state itself until the
    # first one stops, then a compressed copy whose rows go back to state
    # as they stop.
    state = np.repeat(starts.T.astype(np.float64), block_sizes, axis=1)
    every = np.arange(n_reps)
    start = 0.0
    n_events = 0
    for k, horizon in enumerate(np.asarray(record_times).tolist()):
        live = every
        sizes = block_sizes
        c = state
        t = np.full(n_reps, start)
        while True:
            # The last running sum is the total, and u * total < total
            # for every u < 1, so the first running sum above u is never
            # an empty site's.
            cum = _running_sums(c * rate)
            t_next = t + _draws(waits, sizes) / cum[-1]
            fire = t_next <= horizon
            if not fire.all():
                state[:, live[~fire]] = c[:, ~fire]
                if not fire.any():
                    break
                live = live[fire]
                sizes = _block_counts(live, bounds)
                c = c.compress(fire, axis=1)
                cum = cum.compress(fire, axis=1)
                t_next = t_next[fire]
            t = t_next
            n_live = live.size
            u, v = _draws(uniforms, sizes, (2,))
            x = (cum <= u * cum[-1]).sum(axis=0)
            y = (move_rows.take(x, axis=1) <= v).sum(axis=0)
            kill = y == n_sites
            if kill.any():
                donors = c.compress(kill, axis=1)
                donors[x[kill], np.arange(donors.shape[1])] -= 1.0
                j = _draws(donors_of, _block_counts(live[kill], bounds))
                y[kill] = (_running_sums(donors) <= j).sum(axis=0)
            # c is state or a compressed copy, C-contiguous either way,
            # so its entry (s, r) is flat[s * n_live + r].
            flat = c.reshape(-1)
            replica = every[:n_live]
            flat[x * n_live + replica] -= 1.0
            flat[y * n_live + replica] += 1.0
            n_events += n_live
        out[:, k] = state.T
        start = horizon
    return n_events


# Peak bytes per replica of scan_sizes's working set, measured with
# tracemalloc: 116-148, whatever N and the horizon.
SCAN_REPLICA_BYTES = 160


def scan_sizes(gens, bounds, block_n, block_horizon, sizes, overlaps):
    """The influence size chain of blocks of replicas, stepped in lockstep.

    Block b is rows [bounds[b], bounds[b + 1]) of sizes (|set of 0|) and
    overlaps (whether the sets met), draws from gens[b] and has its own N
    block_n[b] and horizon block_horizon[b].  ``graphical.influence_experiment``
    documents the chain and the draw order.
    """
    gaps = [g.standard_exponential for g in gens]
    uniforms = [g.random for g in gens]
    block_sizes = np.diff(bounds)
    # The replicas still scanning, in replica order: their row, and a row
    # each of their N, horizon, clock, a and b (0 once the sets have met).
    # Floats, so that a (N - a) cannot overflow.
    at = np.arange(sizes.size)
    live_counts = block_sizes.tolist()
    state = np.stack([np.repeat(block_n, block_sizes),
                      np.repeat(block_horizon, block_sizes),
                      np.zeros(at.size), np.ones(at.size), np.ones(at.size)])
    while at.size:
        n, horizon, clock, a, b = state
        ab = a * b
        free = n - a - b
        grow = a * free
        meet = grow + 2.0 * ab
        total = meet + b * free
        clock += _draws(gaps, live_counts) / total
        x = _draws(uniforms, live_counts) * total
        live = clock < horizon
        a += live & (x < grow + ab)
        b += live & (x >= meet)
        b[live & (x >= grow) & (x < meet)] = 0.0
        done = ~live | (a == n)
        if done.any():
            sizes[at[done]] = a[done]
            overlaps[at[done]] = b[done] == 0.0
            keep = ~done
            at = at[keep]
            state = state.compress(keep, axis=1)
            live_counts = _block_counts(at, bounds)


def apply_marks(positions, particle, partner, maps):
    """Replay a mark realization over an initial configuration in place.

    Event e moves particle[e] from its site x to maps[e][x], or onto the
    current site of partner[e] where that entry is -1.
    """
    pos = positions.tolist()
    # Row e of maps starts at e * n_sites of the flat table.
    flat = maps.ravel().tolist()
    rows = range(0, len(flat), maps.shape[1])
    for i, j, row in zip(particle.tolist(), partner.tolist(), rows):
        y = flat[row + pos[i]]
        pos[i] = pos[j] if y < 0 else y
    positions[:] = pos
    return positions


def influence_matrix_kernel(roots, n_particles, particle, partner, out):
    """Membership matrix of backward influence sets.

    out is a (len(roots), n_particles) boolean matrix; row r collects the
    labels whose initial coordinate can affect particle roots[r] at the
    horizon.  particle and partner list the events in replay order; the
    scan walks them backward and, whenever a current member is an event's
    particle, adds its partner, whether or not the event takes the
    partner's site at runtime.  All roots share one pass: bit r of label
    j's mask says whether j is in row r, so an event ORs its particle's
    mask into its partner's.
    """
    member = [0] * n_particles
    for r, root in enumerate(roots.tolist()):
        member[root] |= 1 << r
    for i, j in zip(reversed(particle.tolist()), reversed(partner.tolist())):
        if member[i]:
            member[j] |= member[i]
    # Label j's mask as little-endian bytes is row j of the transpose.
    width = (len(roots) + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in member),
                           dtype=np.uint8).reshape(n_particles, width)
    bits = np.unpackbits(packed, axis=1, count=len(roots), bitorder="little")
    out[...] = bits.T
    return out
