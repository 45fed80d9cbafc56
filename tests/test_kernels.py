"""The kernels' random streams, pinned.

Every engine draws through ``fvqsd._kernels``, so a change to a kernel that
reorders, adds or drops a single draw moves these digests.  Such a change must
regenerate ``tests/expected_results.json`` (see ``tests/_pilots.py``) and update
the pins here.  The values were recorded with numpy 2.4.6.
"""
from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fvqsd import (
    _kernels,
    convergence_experiment,
    correlation_experiment,
    extreme_profiles,
    influence_experiment,
    seeding,
    simulator,
    sample_marks,
    simulate,
    simulate_counts,
    simulate_trajectory,
    transition_tables,
    validate_chain,
)
from fvqsd.graphical import evolve
from fvqsd.seeding import BLOCK_REPLICAS, ReplicaSeed

import _pilots
from conftest import FIVE_SITE


def test_labelled_workload_digest(golden_chain):
    # Event loop with and without snapshots.
    digest = hashlib.md5()
    final = simulate(golden_chain, np.zeros(40, dtype=np.int64), t=2.0, seed=7)
    digest.update(final.tobytes())
    traj = simulate_trajectory(
        golden_chain, np.zeros(40, dtype=np.int64), [0.5, 1.0, 2.0], seed=7)
    digest.update(traj.tobytes())
    assert digest.hexdigest() == "4abb14d44f519813fe58927a6a99df82"


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
    out = np.empty((3, 1, 2), dtype=np.int64)
    n_events = _kernels.run_counts([ReplicaSeed(7, 0).generator()], [0, 3],
                                   np.array([[40, 0]]), golden_chain.site_rates,
                                   golden_chain.move_table, [2.0], out)
    np.testing.assert_array_equal(out.sum(axis=2), 40)
    assert n_events == 361


def _one_block_at_a_time(chain, starts, seed, times, replicas):
    # Each cell's blocks of ReplicaSeed.blocks, cell k on
    # seed.offset(k * replicas), each run alone; returns the counts, the
    # events and each block's next draw after its run.
    out = np.empty((len(starts), replicas, len(times), chain.n), dtype=np.int64)
    n_events = 0
    next_draws = []
    for cell, start in enumerate(starts):
        for first, stop, gen in seed.offset(cell * replicas).blocks(
                replicas, BLOCK_REPLICAS):
            n_events += _kernels.run_counts(
                [gen], [0, stop - first], start[None], chain.site_rates,
                chain.move_table, times, out[cell, first:stop])
            next_draws.append(gen.random())
    return out, n_events, next_draws


def _packed(chain, starts, seed, times, replicas, monkeypatch):
    # simulator._count_cells, with each lockstep group's row bounds, its
    # events and each block's next draw after the group's run.
    groups = []
    events = []
    next_draws = []
    run_counts = _kernels.run_counts

    def spy(gens, bounds, *args):
        groups.append(list(bounds))
        events.append(run_counts(gens, bounds, *args))
        next_draws.extend(gen.random() for gen in gens)
        return events[-1]

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "run_counts", spy)
        out = simulator._count_cells(chain, starts, seed, np.asarray(times),
                                     replicas)
    return out, sum(events), next_draws, groups


def _match_one_block_at_a_time(chain, replicas, times, monkeypatch):
    # Cells of mixed N in lockstep groups: every count, the event total
    # and every block's next draw equal those of each block run alone, and
    # groups are filled in order up to the cap.  Returns each group's row
    # bounds.
    starts = np.stack([np.bincount(np.arange(n) % chain.n, minlength=chain.n)
                       for n in (2, 5, 17, 60)])
    seed = ReplicaSeed(11, 5)
    packed, events, draws, groups = _packed(chain, starts, seed, times,
                                            replicas, monkeypatch)
    expected, n_events, next_draws = _one_block_at_a_time(
        chain, starts, seed, np.asarray(times), replicas)
    np.testing.assert_array_equal(packed, expected)
    assert events == n_events > 0
    assert draws == next_draws
    replica_bytes = _kernels.count_replica_bytes(chain.n)
    assert max(b[-1] for b in groups) * replica_bytes <= seeding.GROUP_BYTES
    assert sum(len(bounds) - 1 for bounds in groups) == len(starts) * (
        -(-replicas // BLOCK_REPLICAS))
    # Each group but the last would overflow with the next one's first block.
    for group, after in zip(groups, groups[1:]):
        assert (group[-1] + after[1]) * replica_bytes > seeding.GROUP_BYTES
    return groups


@pytest.mark.parametrize("times", [[0.25, 0.5, 1.0, 2.0], [0.0, 0.5, 0.5, 3.0]],
                         ids=["increasing", "zero-and-repeat"])
@pytest.mark.parametrize("replicas", [1, 7, 400, 2500])
def test_packed_blocks_match_one_block_at_a_time(
        three_site_chain, monkeypatch, replicas, times):
    # At 2500 replicas each cell has two full blocks and a half one.  All
    # of a call's blocks fit under the cap, so they step in one loop.
    groups = _match_one_block_at_a_time(three_site_chain, replicas, times,
                                        monkeypatch)
    assert len(groups) == 1


@pytest.mark.parametrize("replicas", [400, 2500])
def test_small_cap_splits_a_call_into_groups(
        three_site_chain, monkeypatch, replicas):
    # A cap of 1200 replicas splits the four cells' blocks into several
    # groups, and no count or draw moves.
    monkeypatch.setattr(seeding, "GROUP_BYTES",
                        1200 * _kernels.count_replica_bytes(three_site_chain.n))
    groups = _match_one_block_at_a_time(three_site_chain, replicas,
                                        [0.0, 0.5, 0.5, 3.0], monkeypatch)
    assert len(groups) > 1


def test_packed_single_site_cells(single_site_chain, monkeypatch):
    # One site: every event is a revival onto that site, so the counts
    # never move, packed or not.
    starts, seed = np.array([[2], [9]]), ReplicaSeed(4, 2)
    packed, events, draws, groups = _packed(single_site_chain, starts, seed,
                                            [0.5, 2.0], 300, monkeypatch)
    expected, n_events, next_draws = _one_block_at_a_time(
        single_site_chain, starts, seed, np.array([0.5, 2.0]), 300)
    np.testing.assert_array_equal(packed, expected)
    np.testing.assert_array_equal(packed[:, :, :, 0], [[[2] * 2] * 300,
                                                       [[9] * 2] * 300])
    assert events == n_events and draws == next_draws
    assert groups == [[0, 300, 600]]


def test_many_sites_hold_one_group_of_bytes():
    # A 200-site ring, rate 1 each way, absorption 1 at site 0, where one
    # group of 65536 replicas would hold 433 MiB.  Groups sized in bytes
    # hold at most GROUP_BYTES, or one block.
    n = 200
    ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    chain = validate_chain({"states": [f"s{k:03d}" for k in range(n)],
                            "rates": ring.tolist(),
                            "absorption": np.eye(n)[0].tolist()})
    block = BLOCK_REPLICAS * _kernels.count_replica_bytes(n)
    tracemalloc.start()
    try:
        out = simulate_counts(chain, np.arange(10), [0.05], 2**16, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < seeding.GROUP_BYTES + block + out.nbytes, peak
    np.testing.assert_array_equal(out.sum(axis=2), 10)


def _group_count(monkeypatch, run):
    # How many lockstep groups run() steps, with both packed kernels
    # replaced by stand-ins that only fill their outputs: counts stay at
    # the start, and every set of 0 stays {0}.
    groups = []

    def counts(gens, bounds, starts, site_rate, cum_move, record_times, out):
        groups.append(bounds)
        out[...] = starts.repeat(np.diff(bounds), axis=0)[:, None]

    def sizes(gens, bounds, block_n, block_horizon, sizes, overlaps):
        groups.append(bounds)
        sizes[...] = 1
        overlaps[...] = False

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "run_counts", counts)
        patch.setattr(_kernels, "scan_sizes", sizes)
        run()
    return len(groups)


@pytest.mark.parametrize("call, groups", [
    ("fanout-convergence", [1]), ("fanout-correlation", [1]),
    ("fanout-simulate", [1]), ("influence-overlap", [1]),
    ("criterion-06", [1, 1, 1, 1]), ("criterion-07", [2])])
def test_benchmark_and_criterion_grids_take_no_more_groups(
        golden_chain, three_site_chain, monkeypatch, call, groups):
    # perfbench's fanout and influence calls, and the grids of acceptance
    # criteria 06 (one call per cell) and 07 (nine cells of 10^4), take
    # the groups they took when groups were capped at 65536 replicas:
    # sizing groups in bytes splits none of them further.
    grid, cells = _pilots.INFLUENCE_GRID, _pilots.CONVERGENCE
    runs = {
        "fanout-convergence": [lambda: convergence_experiment(
            golden_chain, extreme_profiles(2), 1.0, [10, 20, 40], 200, 1)],
        "fanout-correlation": [lambda: correlation_experiment(
            three_site_chain, np.arange(11) % 3, 0.5, "a", "c", 1000, 1)],
        "fanout-simulate": [lambda: simulate_counts(
            three_site_chain, np.arange(8) % 3, [0.25, 0.5, 1.0, 2.0], 400, 1)],
        "influence-overlap": [lambda: influence_experiment(
            golden_chain, [101, 201], [2.0, 3.0], 500, 1)],
        "criterion-06": [
            lambda n=n, t=t: influence_experiment(
                golden_chain, [n], [t], grid["replicas"], 1)
            for n in grid["n_values"] for t in grid["t_values"]],
        "criterion-07": [lambda: convergence_experiment(
            golden_chain, extreme_profiles(2), cells["t"], cells["n_list"],
            cells["replicas"], 1)],
    }[call]
    assert [_group_count(monkeypatch, run) for run in runs] == groups


def test_run_events_counts_events(golden_chain):
    tables = transition_tables(golden_chain)
    positions = np.zeros(40, dtype=np.int64)
    n_events = _kernels.run_events(ReplicaSeed(7, 0).generator(), positions,
                                   tables.site_rate, tables.cum_move, 2.0)
    assert n_events == 120


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


# Reference loops index the numpy inputs element by element.  The kernels
# must match them bit for bit.
def _reference_run(gen, positions, site_rate, cum_move, record_times, out):
    # The uniformized loop one epoch at a time, reading each chunk's draws
    # in the documented order: m gaps, then (u1, u2, u3) rows of m.
    n_particles = len(positions)
    n_sites = len(site_rate)
    n_rec = len(record_times)
    if n_rec == 0:
        return 0
    top = 0.0
    for x in range(n_sites):
        top = max(top, site_rate[x])
    lam = n_particles * top
    t = 0.0
    rec = 0
    n_events = 0
    while top > 0.0 and rec < n_rec:
        mean = lam * (record_times[-1] - t)
        m = int(min(_kernels.CHUNK_EPOCHS, mean + 4.0 * math.sqrt(mean) + 16.0))
        gaps = gen.exponential(1.0, m)
        u = gen.random((3, m))
        for e in range(m):
            t += gaps[e] / lam
            while rec < n_rec and record_times[rec] < t:
                if out is not None:
                    out[rec] = positions
                rec += 1
            if rec == n_rec:
                break
            i = int(u[0, e] * n_particles)
            x = positions[i]
            threshold = site_rate[x] / top
            if u[1, e] < threshold:
                y = 0
                while y < n_sites and cum_move[x, y] * threshold <= u[1, e]:
                    y += 1
                if y == n_sites:
                    j = int(u[2, e] * (n_particles - 1))
                    if j >= i:
                        j += 1
                    y = positions[j]
                positions[i] = y
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


RECORD_TIMES = {
    "zero": [0.0],
    "short": [0.3],
    "long": [2.0],
    "ties": [0.1, 0.1, 0.5, 0.5 + 1e-15, 1.0],
}


@pytest.fixture(params=["golden", "three_site", "five_site"])
def oracle_chain(request):
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
    """Serves the event loop's chunked draws from a script: the first epoch
    comes at 1e-12 with the given (u1, u2, u3), and every later gap is 1e12,
    so a run to t = 1 applies that one epoch at most."""

    def __init__(self, u1, u2, u3=0.5):
        self._first = (u1, u2, u3)

    def exponential(self, scale, size):
        gaps = np.full(size, 1e12)
        gaps[0] = 1e-12
        return gaps * scale

    def random(self, shape):
        u = np.full(shape, 0.5)
        u[:, 0] = self._first
        return u


def _one_epoch(start, draws, tables):
    # Kernel and reference on the same scripted epoch; returns the kernel's
    # configuration and event count after checking they agree.
    ref = start.copy()
    ref_events = _reference_run(_ScriptedGenerator(*draws), ref,
                                tables.site_rate, tables.cum_move, (1.0,), None)
    pos = start.copy()
    n_events = _kernels.run_events(_ScriptedGenerator(*draws), pos,
                                   tables.site_rate, tables.cum_move, 1.0)
    np.testing.assert_array_equal(pos, ref, err_msg=f"draws={draws!r}")
    assert n_events == ref_events
    return pos, n_events


@pytest.mark.parametrize("n", [2, 10, 41, 160])
def test_particle_pick_at_boundaries(n):
    # u1 on and one ulp around each k/N, and the largest uniform: a pick
    # that rounds or truncates otherwise moves another particle.  Neighbours
    # sit on different sites, and u2 = 0 moves the picked particle off its
    # site, so the moved label shows.
    tables = transition_tables(FIVE_SITE)
    start = np.arange(n, dtype=np.int64) % FIVE_SITE.n
    draws = {1.0 - 2.0**-53}
    for k in range(1, n):
        r = k / n
        draws.update((np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)))
    for u1 in sorted(draws):
        pos, n_events = _one_epoch(start, (u1, 0.0), tables)
        assert n_events == 1
        moved = np.flatnonzero(pos != start)
        assert moved.tolist() == [int(u1 * n)], u1
    pos, _ = _one_epoch(start, (1.0 - 2.0**-53, 0.0), tables)
    assert pos[n - 1] != start[n - 1]


def test_null_epoch_at_the_threshold():
    # u2 on and one ulp around site_rate[x] / R at each site: on and above
    # it the epoch is null; one ulp below it the move is the row's last
    # one, an internal jump to the last positive target on the forced-2.0
    # rows b and d, and an absorption attempt elsewhere.
    tables = transition_tables(FIVE_SITE)
    top = tables.site_rate.max()
    last_target = {1: 2, 3: 4}
    for x in range(FIVE_SITE.n):
        z = (x + 2) % FIVE_SITE.n
        start = np.array([x, z, z], dtype=np.int64)
        threshold = tables.site_rate[x] / top
        below = np.nextafter(threshold, 0.0)
        pos, n_events = _one_epoch(start, (0.0, below), tables)
        assert n_events == 1
        assert pos[0] == last_target.get(x, z), x
        if threshold < 1.0:
            for u2 in (threshold, np.nextafter(threshold, 1.0)):
                pos, n_events = _one_epoch(start, (0.0, u2), tables)
                assert n_events == 0
                np.testing.assert_array_equal(pos, start)


@pytest.mark.parametrize("n", [2, 3, 41])
def test_revival_skips_the_particle(n):
    # The donor floor(u3 (N - 1)) counts past the revived particle: u3 = 0
    # and the largest uniform, with the first and the last particle revived.
    # Site a is absorbing; every other particle sits on its own site.
    tables = transition_tables(FIVE_SITE)
    below = np.nextafter(tables.site_rate[0] / tables.site_rate.max(), 0.0)
    for i in (0, n - 1):
        start = 1 + np.arange(n, dtype=np.int64) % (FIVE_SITE.n - 1)
        start[i] = 0
        for u3, donor in ((0.0, 1 if i == 0 else 0),
                          (1.0 - 2.0**-53, n - 2 if i == n - 1 else n - 1)):
            u1 = (i + 0.5) / n
            pos, _ = _one_epoch(start, (u1, below, u3), tables)
            assert pos[i] == start[donor], (i, u3)


def test_event_loop_across_chunks():
    # The expected epochs exceed CHUNK_EPOCHS, so the run draws a full first
    # chunk and then more.  Record times at 0 (twice), on the first chunk's
    # last epoch (twice) and one ulp past it straddle the boundary.
    tables = transition_tables(FIVE_SITE)
    n, seed = 1000, 2026
    lam = n * tables.site_rate.max()
    chunk = _kernels.CHUNK_EPOCHS
    gaps = np.random.default_rng(seed).exponential(1.0, chunk) / lam
    boundary = float(np.add.accumulate(gaps)[-1])
    t_end = 1.5 * chunk / lam
    assert boundary < t_end
    times = np.array([0.0, 0.0, boundary / 2, boundary, boundary,
                      np.nextafter(boundary, np.inf), t_end])
    start = np.arange(n, dtype=np.int64) % FIVE_SITE.n

    gen_ref = np.random.default_rng(seed)
    ref = start.copy()
    ref_out = np.full((times.size, n), -1, dtype=np.int64)
    ref_events = _reference_run(gen_ref, ref, tables.site_rate,
                                tables.cum_move, times, ref_out)
    gen = np.random.default_rng(seed)
    out = np.full((times.size, n), -1, dtype=np.int64)
    pos = _kernels.run_recorded(gen, start.copy(), tables.site_rate,
                                tables.cum_move, times, out)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(pos, ref)
    np.testing.assert_array_equal(out[:2], [start, start])
    assert gen.random() == gen_ref.random()

    gen_events = np.random.default_rng(seed)
    final = start.copy()
    assert _kernels.run_events(gen_events, final, tables.site_rate,
                               tables.cum_move, t_end) == ref_events
    np.testing.assert_array_equal(final, ref)

    # A run that ends on the boundary applies exactly the first chunk: its
    # expected epochs round up to CHUNK_EPOCHS, and the next chunk's first
    # epoch falls past it.
    upto = start.copy()
    _kernels.run_events(np.random.default_rng(seed), upto, tables.site_rate,
                        tables.cum_move, boundary)
    np.testing.assert_array_equal(out[3], upto)
    np.testing.assert_array_equal(out[4], upto)


@pytest.mark.parametrize("n", [2, 10, 41, 160])
def test_mark_kernels_match_reference(oracle_chain, n):
    # All roots in reverse order, duplicate roots, and a subset that does
    # not start at label 0, on a table of events and on an empty one
    # (horizon 0).
    labels = np.arange(n, dtype=np.int64)
    for horizon in (1.5, 0.0):
        marks = sample_marks(oracle_chain, n_particles=n, horizon=horizon, seed=n)
        assert (marks.n_events > 0) == (horizon > 0.0)
        start = labels % oracle_chain.n
        pos = start.copy()
        table = (marks.particle, marks.partner, marks.maps)
        assert _kernels.apply_marks(pos, *table) is pos
        ref = _reference_apply_marks(start.copy(), *table)
        np.testing.assert_array_equal(pos, ref)

        pairs = (marks.particle, marks.partner)
        for roots in (labels[::-1].copy(), labels[[n - 1, 0, n - 1, 1, 0]],
                      labels[n // 2:]):
            out = np.ones((roots.size, n), dtype=np.bool_)
            assert _kernels.influence_matrix_kernel(roots, n, *pairs, out) is out
            ref = _reference_influence_matrix(
                roots, n, *pairs, np.ones((roots.size, n), dtype=np.bool_))
            np.testing.assert_array_equal(out, ref)
