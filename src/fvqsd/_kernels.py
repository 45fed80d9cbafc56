"""Hot inner loops of the two stochastic engines, in plain Python.

The loops copy their numpy inputs into Python lists once per call, because
indexing a list is several times cheaper than reading a numpy scalar.

The event-driven dynamics live in one loop, ``_run``; ``run_events`` and
``run_recorded`` are its two entry points.  Randomness is drawn only through
np.random.Generator methods, one draw at a time and in a fixed order, so a
seeded generator reproduces a trajectory bit for bit.

The graphical engine draws nothing here: ``apply_marks`` replays a mark
realization by merging its two time-sorted streams, and
``influence_matrix_kernel`` scans the copy stream backward.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "USING_JIT",
    "run_events",
    "run_recorded",
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
        # Scan the row in order: AbsorbingChain.move_table sets the last
        # positive target of a row without absorption to 2.0, so rows are
        # not sorted, and a bisection could turn u close to 1 into an
        # absorption.
        u = gen.random()
        y = -1
        for j, c in enumerate(move_rows[x]):
            if u < c:
                y = j
                break
        if y < 0:
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


def apply_marks(
    positions,
    internal_times,
    internal_particle,
    internal_maps,
    voter_times,
    voter_particle,
    voter_targets,
    voter_fields,
):
    """Replay a mark realization over an initial configuration in place.

    The internal and copy streams are each sorted by time; the replay
    merges them in time order.  An internal event pushes the particle's
    site through its sampled full map.  A copy event is a neighbor-copy
    attempt: it fires only where the sampled indicator field is set at the
    particle's current site.  On equal times the internal event goes first
    (sampled realizations have distinct times; only a hand-built one can
    tie).
    """
    pos = positions.tolist()
    maps = internal_maps.tolist()
    targets = voter_targets.tolist()
    fields = voter_fields.tolist()
    movers = internal_particle.tolist()
    copiers = voter_particle.tolist()
    # An inf past each stream's end sends the merge to the other stream.
    t_int = internal_times.tolist() + [np.inf]
    t_cp = voter_times.tolist() + [np.inf]
    a = b = 0
    for _ in range(len(movers) + len(copiers)):
        if t_int[a] <= t_cp[b]:
            i = movers[a]
            pos[i] = maps[a][pos[i]]
            a += 1
        else:
            i = copiers[b]
            if fields[b][pos[i]]:
                pos[i] = pos[targets[b]]
            b += 1
    positions[:] = pos
    return positions


def influence_matrix_kernel(
    roots, n_particles, voter_particle, voter_targets, out
):
    """Membership matrix of backward influence sets.

    out is a (len(roots), n_particles) boolean matrix; row r collects the
    labels whose initial coordinate can affect particle roots[r] at the
    horizon.  Voter arrays are sorted by time ascending; the scan walks
    them backward and, whenever a current member has a copy attempt, adds
    the copied label, whether or not the attempt fires at runtime.
    """
    events = list(zip(voter_particle.tolist()[::-1],
                      voter_targets.tolist()[::-1]))
    for r, root in enumerate(roots.tolist()):
        member = [False] * n_particles
        member[root] = True
        for particle, target in events:
            if member[particle]:
                member[target] = True
        out[r] = member
    return out
