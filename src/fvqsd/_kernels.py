"""Hot inner loops of the two stochastic engines, in plain Python over numpy.

The event-driven dynamics live in one loop, ``_run``; ``run_events`` and
``run_recorded`` are its two entry points.  Randomness is drawn only through
np.random.Generator methods, one draw at a time and in a fixed order, so a
seeded generator reproduces a trajectory bit for bit.
"""
from __future__ import annotations

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


def _pick_particle(gen, positions, site_rate, total):
    # Linear scan over cumulative site rates; clamp to the last particle so
    # a rounding overshoot of total cannot fall off the end.
    u = gen.random() * total
    acc = 0.0
    last = len(positions) - 1
    for k in range(last):
        acc += site_rate[positions[k]]
        if u < acc:
            return k
    return last


def _pick_move(gen, cum_move, x, n_states):
    # Returns the internal target index, or -1 for an absorption attempt.
    u = gen.random()
    for j in range(n_states):
        if u < cum_move[x, j]:
            return j
    return -1


def _run(gen, positions, site_rate, cum_move, record_times, out):
    # The event loop behind run_events and run_recorded; returns the number
    # of events applied.  A clock that rings after one or more record times
    # first snapshots them; its event is applied only if a record time at
    # or after it remains.  out=None keeps no snapshots.
    n_particles = len(positions)
    n_states = cum_move.shape[0]
    n_rec = len(record_times)
    if n_rec == 0:
        return 0
    total = 0.0
    for x in positions:
        total += site_rate[x]
    t = 0.0
    rec = 0
    t_rec = record_times[0]
    n_events = 0
    while total > 0.0:
        dt = gen.exponential(1.0) / total
        if t + dt > t_rec:
            while rec < n_rec and record_times[rec] < t + dt:
                if out is not None:
                    out[rec] = positions
                rec += 1
            if rec == n_rec:
                break
            t_rec = record_times[rec]
        t += dt
        i = _pick_particle(gen, positions, site_rate, total)
        x = positions[i]
        y = _pick_move(gen, cum_move, x, n_states)
        if y < 0:
            while True:
                j = gen.integers(0, n_particles)
                if j != i:
                    break
            y = positions[j]
        positions[i] = y
        total += site_rate[y] - site_rate[x]
        n_events += 1
    if out is not None:
        out[rec:] = positions
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
    event_kind,
    event_particle,
    event_index,
    internal_maps,
    voter_targets,
    voter_fields,
):
    """Replay a mark realization over an initial configuration in place.

    Events arrive pre-merged in time order.  Kind 0 is an internal jump:
    the particle's site is pushed through its sampled full map.  Kind 1 is
    a neighbor-copy attempt: it fires only where the sampled indicator
    field is set at the particle's current site.
    """
    for e in range(len(event_kind)):
        i = event_particle[e]
        idx = event_index[e]
        if event_kind[e] == 0:
            positions[i] = internal_maps[idx, positions[i]]
        else:
            if voter_fields[idx, positions[i]]:
                positions[i] = positions[voter_targets[idx]]
    return positions


def influence_matrix_kernel(
    roots, n_particles, voter_times, voter_particle, voter_targets, t_start, out
):
    """Membership matrix of backward influence sets.

    out is a (len(roots), n_particles) boolean matrix; row r collects the
    labels whose initial coordinate can affect particle roots[r] at the
    horizon.  Voter arrays are sorted by time ascending; the scan walks
    them backward and, whenever a current member has a copy attempt, adds
    the copied label, whether or not the attempt fires at runtime.  Events
    before t_start are ignored.
    """
    n_events = len(voter_times)
    for r in range(len(roots)):
        for k in range(n_particles):
            out[r, k] = False
        out[r, roots[r]] = True
        for e in range(n_events - 1, -1, -1):
            if voter_times[e] < t_start:
                break
            if out[r, voter_particle[e]]:
                out[r, voter_targets[e]] = True
    return out
