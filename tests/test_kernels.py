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

from fvqsd import _kernels, sample_marks, simulate, simulate_trajectory, transition_tables
from fvqsd.graphical import evolve
from fvqsd.seeding import ReplicaSeed


def test_workload_digest(golden_chain):
    # Event loop with and without snapshots, mark sampling and mark replay.
    digest = hashlib.md5()
    final = simulate(golden_chain, np.zeros(40, dtype=np.int64), t=2.0, seed=7)
    digest.update(final.tobytes())
    traj = simulate_trajectory(
        golden_chain, np.zeros(40, dtype=np.int64), [0.5, 1.0, 2.0], seed=7)
    digest.update(traj.tobytes())
    marks = sample_marks(golden_chain, n_particles=30, horizon=1.5, seed=13)
    for arr in (marks.internal_times, marks.internal_maps, marks.voter_times,
                marks.voter_targets, marks.voter_fields, marks.event_kind):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(evolve(np.zeros(30, dtype=np.int64), marks).tobytes())
    assert digest.hexdigest() == "b58e8715dca9686b0c8db9c1fbf55534"


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
