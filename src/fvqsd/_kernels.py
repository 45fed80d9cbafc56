"""Hot inner loops of the three stochastic engines, in plain Python and numpy.

The labelled loops copy their numpy inputs into Python lists once per call,
because indexing a list is several times cheaper than reading a numpy
scalar.

The labelled event-driven dynamics live in one loop, ``_run``; ``run_events``
and ``run_recorded`` are its two entry points.  ``run_counts`` runs the same
dynamics on site counts alone, for a block of replicas in lockstep: each
step is a few numpy calls across the block, not a Python loop per replica.
Randomness is drawn only through np.random.Generator methods in a fixed
order, so a seeded generator reproduces its trajectories bit for bit.

The graphical engine draws nothing here: ``apply_marks`` replays a mark
realization's event table in order, and ``influence_matrix_kernel`` scans
its (particle, partner) pairs backward.
"""
from __future__ import annotations

import bisect

import numpy as np

__all__ = [
    "USING_JIT",
    "run_events",
    "run_recorded",
    "run_counts",
    "apply_marks",
    "influence_matrix_kernel",
]

# Kernels are never compiled.  The name stays because benchmark reports
# record it as the backend that ran.
USING_JIT = False


def _run(gen, positions, site_rate, cum_move, record_times, out):
    # The event loop behind run_events and run_recorded; returns the number
    # of events applied.  A clock that rings after one or more record times
    # first snapshots them; its event is applied only if a record time at
    # or after it remains.  out=None keeps no snapshots.
    n_particles = len(positions)
    n_sites = len(site_rate)
    n_rec = len(record_times)
    if n_rec == 0:
        return 0
    pos = positions.tolist()
    rate_of = site_rate.tolist()
    move_rows = cum_move.tolist()
    times = np.asarray(record_times).tolist()
    # rates[k] is particle k's rate; cum receives its running sums.
    rates = site_rate[positions]
    head = rates[:-1]
    cum = np.empty(head.size)
    total = 0.0
    for x in pos:
        total += rate_of[x]
    t = 0.0
    rec = 0
    t_rec = times[0]
    n_events = 0
    while total > 0.0:
        dt = gen.exponential(1.0) / total
        if t + dt > t_rec:
            while rec < n_rec and times[rec] < t + dt:
                if out is not None:
                    out[rec] = pos
                rec += 1
            if rec == n_rec:
                break
            t_rec = times[rec]
        t += dt
        # The moving particle is the first k with u < rates[0] + ... +
        # rates[k], or the last particle when there is none, so a rounding
        # overshoot of total cannot fall off the end.  add.accumulate adds
        # left to right, as a running `acc += rates[k]` does, and
        # searchsorted(..., "right") returns exactly that k, or N-1: the
        # pick is bit for bit the sequential scan's.  np.sum (pairwise), a
        # Fenwick tree or per-site grouping would round differently, move
        # every random stream and require regenerating
        # tests/expected_results.json.
        u = gen.random() * total
        np.add.accumulate(head, out=cum)
        i = int(cum.searchsorted(u, "right"))
        x = pos[i]
        # The move is the first j with u < row[j]; rows are sorted, so that
        # is the number of entries <= u, and n_sites means an absorption
        # attempt.
        y = bisect.bisect_right(move_rows[x], gen.random())
        if y == n_sites:
            while True:
                j = gen.integers(0, n_particles)
                if j != i:
                    break
            y = pos[j]
        pos[i] = y
        rates[i] = rate_of[y]
        total += rate_of[y] - rate_of[x]
        n_events += 1
    if out is not None:
        out[rec:] = pos
    positions[:] = pos
    return n_events


def run_events(gen, positions, site_rate, cum_move, horizon):
    """Drive the interacting-particle dynamics over [0, horizon].

    positions is modified in place.  Each particle at site x waits an
    exponential time at rate site_rate[x]; the chosen particle either does
    an internal jump (rows of cum_move hold the cumulative split) or, on an
    absorption attempt, adopts the position of a uniformly chosen other
    particle.  Returns the number of events applied.
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


def run_counts(gen, counts, site_rate, cum_move, record_times, out):
    """Exact site-count dynamics of a block of replicas, stepped in lockstep.

    counts holds the starting counts, shape (replicas, n_sites); out has
    shape (replicas, len(record_times), n_sites).  The particles are
    exchangeable, so the counts are a Markov chain of their own.  Each step
    gives every live replica one event: a site x chosen with probability
    proportional to c_x * site_rate[x], then a move by the first u < row[j]
    rule of cum_move, as in ``_run``.  An absorption attempt revives the
    particle onto a uniformly chosen other particle, drawn with an integer
    in [0, N - 1) from c - e_x; a revival onto its own site is an event that
    leaves the counts unchanged.

    Between record times the replicas still live are those whose next
    event falls at or before the record time.  An event drawn past it is
    dropped and the clock restarts there, which the memoryless holding time
    makes exact.  Snapshots are right-continuous.  Returns the number of
    events applied.
    """
    n_reps, n_sites = counts.shape
    n_particles = int(counts[0].sum())
    rate = site_rate[:, None]
    # Rows of cum_move are sorted, so the first j with u < row[j] is the
    # number of the row's entries <= u; n_sites means an absorption attempt.
    # Column x of move_rows is row x.
    move_rows = cum_move.T
    # Site-major counts (exact in float64), so each step's arithmetic runs
    # along replicas.  c holds the live replicas: state itself until the
    # first one stops, then a compressed copy whose rows go back to state
    # as they stop.
    state = np.ascontiguousarray(counts.T, dtype=np.float64)
    start = 0.0
    n_events = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, horizon in enumerate(np.asarray(record_times).tolist()):
            live = np.arange(n_reps)
            c = state
            t = np.full(n_reps, start)
            while True:
                # The last running sum is the total, and u * total < total
                # for every u < 1, so the first running sum above u is never
                # an empty site's.  A replica with total 0 has no events.
                cum = _running_sums(c * rate)
                t_next = t + gen.exponential(1.0, live.size) / cum[-1]
                fire = t_next <= horizon
                if not fire.all():
                    state[:, live[~fire]] = c[:, ~fire]
                    if not fire.any():
                        break
                    live = live[fire]
                    c = c.compress(fire, axis=1)
                    cum = cum.compress(fire, axis=1)
                    t_next = t_next[fire]
                t = t_next
                n_live = live.size
                u = gen.random(n_live) * cum[-1]
                x = (cum <= u).sum(axis=0)
                y = (move_rows.take(x, axis=1) <= gen.random(n_live)).sum(axis=0)
                kill = y == n_sites
                if kill.any():
                    donors = c.compress(kill, axis=1)
                    donors[x[kill], np.arange(donors.shape[1])] -= 1.0
                    j = gen.integers(0, n_particles - 1, donors.shape[1])
                    y[kill] = (_running_sums(donors) <= j).sum(axis=0)
                replica = np.arange(n_live)
                c[x, replica] -= 1.0
                c[y, replica] += 1.0
                n_events += n_live
            out[:, k] = state.T
            start = horizon
    return n_events


def apply_marks(positions, particle, partner, maps):
    """Replay a mark realization over an initial configuration in place.

    Event e moves particle[e] from its site x to maps[e][x], or onto the
    current site of partner[e] where that entry is -1.
    """
    pos = positions.tolist()
    for i, j, row in zip(particle.tolist(), partner.tolist(), maps.tolist()):
        y = row[pos[i]]
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
    partner's site at runtime.
    """
    events = list(zip(particle.tolist()[::-1], partner.tolist()[::-1]))
    for r, root in enumerate(roots.tolist()):
        member = [False] * n_particles
        member[root] = True
        for i, j in events:
            if member[i]:
                member[j] = True
        out[r] = member
    return out
