"""The kernels' random streams, pinned.

Every engine draws through ``fvqsd._kernels``, so a change to a kernel that
reorders, adds or drops a single draw moves these digests.  Such a change must
regenerate ``tests/expected_results.json`` (see ``tests/_pilots.py``) and update
the pins here.  The values were recorded with numpy 2.4.6.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fvqsd import (
    _kernels,
    sample_marks,
    simulate,
    simulate_counts,
    simulate_trajectory,
    transition_tables,
    validate_chain,
)
from fvqsd.graphical import evolve
from fvqsd.seeding import ReplicaSeed


def test_labelled_workload_digest(golden_chain):
    # Event loop with and without snapshots.
    digest = hashlib.md5()
    final = simulate(golden_chain, np.zeros(40, dtype=np.int64), t=2.0, seed=7)
    digest.update(final.tobytes())
    traj = simulate_trajectory(
        golden_chain, np.zeros(40, dtype=np.int64), [0.5, 1.0, 2.0], seed=7)
    digest.update(traj.tobytes())
    assert digest.hexdigest() == "efd9cc986b9702cc93a6eb5080b15b49"


def test_marks_workload_digest(golden_chain):
    # Mark sampling, in replay order, and mark replay.  The digest reads
    # the event table as the kind order, each kind's draws and the copy
    # events' fields.
    digest = hashlib.md5()
    marks = sample_marks(golden_chain, n_particles=30, horizon=1.5, seed=13)
    copy = marks.partner != marks.particle
    for arr in (copy, marks.particle[~copy], marks.maps[~copy],
                marks.particle[copy], marks.partner[copy], marks.maps[copy] < 0):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(evolve(np.zeros(30, dtype=np.int64), marks).tobytes())
    assert digest.hexdigest() == "622d4b0a0ff7d372ab30022f40276388"


def test_count_workload_digest(golden_chain, three_site_chain):
    # Count engine: 1500 replicas span two blocks; the snapshots at 0 and
    # at later times, internal moves and revivals all feed the digest.
    digest = hashlib.md5()
    for chain, n in ((golden_chain, 40), (three_site_chain, 11)):
        xi0 = np.arange(n, dtype=np.int64) % chain.n
        counts = simulate_counts(chain, xi0, [0.0, 0.5, 2.0], 1500, seed=7)
        digest.update(counts.tobytes())
    assert digest.hexdigest() == "374379afb531e5d1e59c9c39cba057e5"


def test_run_counts_counts_events(golden_chain):
    counts = np.tile([40, 0], (3, 1))
    out = np.empty((3, 1, 2), dtype=np.int64)
    n_events = _kernels.run_counts(ReplicaSeed(7, 0).generator(), counts,
                                   golden_chain.site_rates,
                                   golden_chain.move_table, [2.0], out)
    np.testing.assert_array_equal(out.sum(axis=2), 40)
    assert n_events == 361


def test_run_events_counts_events(golden_chain):
    tables = transition_tables(golden_chain)
    positions = np.zeros(40, dtype=np.int64)
    n_events = _kernels.run_events(ReplicaSeed(7, 0).generator(), positions,
                                   tables.site_rate, tables.cum_move, 2.0)
    assert n_events == 138


@pytest.mark.parametrize("n", [2, 10, 160])
@pytest.mark.parametrize("horizon", [0.0, 0.3, 2.0])
def test_run_events_is_run_recorded_at_the_horizon(three_site_chain, n, horizon):
    # Same draws, same final configuration, and the snapshot is that
    # configuration.
    tables = transition_tables(three_site_chain)
    start = np.arange(n, dtype=np.int64) % three_site_chain.n
    gen_a = ReplicaSeed(3, n).generator()
    gen_b = ReplicaSeed(3, n).generator()
    a = start.copy()
    b = start.copy()
    out = np.empty((1, n), dtype=np.int64)
    _kernels.run_events(gen_a, a, tables.site_rate, tables.cum_move, horizon)
    _kernels.run_recorded(gen_b, b, tables.site_rate, tables.cum_move,
                          np.array([horizon]), out)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out[0], a)
    assert gen_a.random() == gen_b.random()


# Reference loops: sequential scans that index the numpy inputs element by
# element.  The kernels must match them bit for bit.
def _reference_pick_particle(gen, positions, site_rate, total):
    u = gen.random() * total
    acc = 0.0
    last = len(positions) - 1
    for k in range(last):
        acc += site_rate[positions[k]]
        if u < acc:
            return k
    return last


def _reference_pick_move(gen, cum_move, x, n_states):
    u = gen.random()
    for j in range(n_states):
        if u < cum_move[x, j]:
            return j
    return -1


def _reference_run(gen, positions, site_rate, cum_move, record_times, out):
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
        i = _reference_pick_particle(gen, positions, site_rate, total)
        x = positions[i]
        y = _reference_pick_move(gen, cum_move, x, n_states)
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


def _reference_apply_marks(positions, particle, partner, maps):
    for e in range(len(particle)):
        i = particle[e]
        y = maps[e, positions[i]]
        positions[i] = positions[partner[e]] if y == -1 else y
    return positions


def _reference_influence_matrix(roots, n_particles, particle, partner, out):
    n_events = len(particle)
    for r in range(len(roots)):
        for k in range(n_particles):
            out[r, k] = False
        out[r, roots[r]] = True
        for e in range(n_events - 1, -1, -1):
            if out[r, particle[e]]:
                out[r, partner[e]] = True
    return out


# Sites b and d have no absorption, so their move-table rows carry a forced
# 2.0 tail; uneven rates make the prefix sums round.
FIVE_SITE = validate_chain({
    "states": ["a", "b", "c", "d", "e"],
    "rates": [
        [0.0, 1.1, 0.0, 0.0, 0.4],
        [0.3, 0.0, 0.7, 0.0, 0.0],
        [0.0, 0.9, 0.0, 1.7, 0.0],
        [0.0, 0.0, 0.6, 0.0, 0.1],
        [0.5, 0.0, 0.0, 0.8, 0.0],
    ],
    "absorption": [0.7, 0.0, 0.3, 0.0, 0.25],
})

RECORD_TIMES = {
    "zero": [0.0],
    "short": [0.3],
    "long": [2.0],
    "ties": [0.1, 0.1, 0.5, 0.5 + 1e-15, 1.0],
}


@pytest.fixture(params=["golden", "three_site", "five_site"])
def oracle_chain(request):
    if request.param == "five_site":
        return FIVE_SITE
    return request.getfixturevalue(f"{request.param}_chain")


def test_five_site_move_rows_are_sorted():
    # Every entry from a row's last positive target on is forced to 2.0,
    # row b's zero-rate targets d and e included, so the move pick may
    # bisect every row.
    cum_move = transition_tables(FIVE_SITE).cum_move
    np.testing.assert_array_equal(cum_move[1, 2:], 2.0)
    assert cum_move[3, 4] == 2.0
    assert np.all(np.diff(cum_move, axis=1) >= 0.0)


@pytest.mark.parametrize("times", RECORD_TIMES.values(), ids=list(RECORD_TIMES))
@pytest.mark.parametrize("n", [2, 3, 10, 41, 160, 1000])
def test_event_loop_matches_reference(oracle_chain, n, times):
    tables = transition_tables(oracle_chain)
    start = np.arange(n, dtype=np.int64) % oracle_chain.n
    record_times = np.array(times)
    seed = 1000 * oracle_chain.n + n

    gen_ref = np.random.default_rng(seed)
    ref = start.copy()
    ref_out = np.full((len(times), n), -1, dtype=np.int64)
    ref_events = _reference_run(gen_ref, ref, tables.site_rate,
                                tables.cum_move, record_times, ref_out)

    gen = np.random.default_rng(seed)
    pos = start.copy()
    out = np.full((len(times), n), -1, dtype=np.int64)
    assert _kernels.run_recorded(gen, pos, tables.site_rate, tables.cum_move,
                                 record_times, out) is pos
    np.testing.assert_array_equal(pos, ref)
    np.testing.assert_array_equal(out, ref_out)

    gen_events = np.random.default_rng(seed)
    final = start.copy()
    assert _kernels.run_events(gen_events, final, tables.site_rate,
                               tables.cum_move, times[-1]) == ref_events
    np.testing.assert_array_equal(final, ref)

    next_draw = gen_ref.random()
    assert gen.random() == next_draw
    assert gen_events.random() == next_draw


class _ScriptedGenerator:
    """Replays given draws through the np.random.Generator methods the
    event loop calls."""

    def __init__(self, exponentials, uniforms, integers):
        self._exponentials = list(exponentials)
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def exponential(self, scale):
        return self._exponentials.pop(0) * scale

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, low, high):
        return np.int64(self._integers.pop(0))


@pytest.mark.parametrize("n", [2, 10, 41, 160])
def test_particle_pick_at_prefix_sum_boundaries(n):
    # One event, with the pick's uniform placed on and one or two ulps
    # around each running sum of the rates: a pick that rounds its sums in
    # another order, or breaks ties the other way, chooses another particle.
    tables = transition_tables(FIVE_SITE)
    start = np.random.default_rng(n).permutation(np.arange(n) % FIVE_SITE.n)
    acc, bounds = 0.0, []
    for x in start:
        acc += tables.site_rate[x]
        bounds.append(acc)
    total = bounds[-1]
    draws = {1.0 - 2.0**-53}
    for bound in bounds[:-1]:
        r = bound / total
        below, above = np.nextafter(r, 0.0), np.nextafter(r, 1.0)
        draws.update((r, below, above, np.nextafter(below, 0.0),
                      np.nextafter(above, 1.0)))
    for r in sorted(draws):
        # A tiny first wait applies one event; the second ends the run.
        script = ([1e-12, 1e12], [r, 0.999], [0, 1, n - 1])
        ref = start.copy()
        _reference_run(_ScriptedGenerator(*script), ref, tables.site_rate,
                       tables.cum_move, (1.0,), None)
        pos = start.copy()
        _kernels.run_events(_ScriptedGenerator(*script), pos, tables.site_rate,
                            tables.cum_move, 1.0)
        np.testing.assert_array_equal(pos, ref, err_msg=f"r={r!r}")


@pytest.mark.parametrize("n", [2, 10, 41, 160])
def test_mark_kernels_match_reference(oracle_chain, n):
    marks = sample_marks(oracle_chain, n_particles=n, horizon=1.5, seed=n)
    start = np.arange(n, dtype=np.int64) % oracle_chain.n
    pos = start.copy()
    table = (marks.particle, marks.partner, marks.maps)
    assert _kernels.apply_marks(pos, *table) is pos
    ref = _reference_apply_marks(start.copy(), *table)
    np.testing.assert_array_equal(pos, ref)

    roots = np.arange(n, dtype=np.int64)[::-1].copy()
    pairs = (marks.particle, marks.partner)
    out = np.ones((n, n), dtype=np.bool_)
    assert _kernels.influence_matrix_kernel(roots, n, *pairs, out) is out
    ref = _reference_influence_matrix(roots, n, *pairs,
                                      np.ones((n, n), dtype=np.bool_))
    np.testing.assert_array_equal(out, ref)
