"""The names perfbench's tracer patches must exist and be put back.

`perfbench/tracing.py` wraps package names by attribute (`map_replicas` in
three modules, the kernels, `sample_marks`, the CLI's imports and runner
table).  Deleting or renaming one breaks `perfbench/run.py --trace 1`, so
this runs three tiny experiments and one labelled simulation under the tracer
and checks the spans it relies on.  The qsd_profile kind's sampler calls
`run_recorded` itself, which is the only span perfbench's `stationary`
workload has of the labelled loop.  The correlation kind runs the count
engine, so the `run_events` span comes from `fvqsd.simulate`, the labelled
loop that perfbench's event probe times.  The overlap kind scans blocks of
replicas in lockstep, without `map_replicas`, `sample_marks` or the
influence kernel, so the kernel span comes from one direct
`influence_matrix` call and `sample_marks` is checked with the mark replay,
as perfbench's coupling pass calls them.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import fvqsd
import fvqsd.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    "states": ["1", "2"],
    "rates": [[0.0, 1.0], [1.0, 0.0]],
    "absorption": [1.0, 0.0],
}
CONFIGS = {
    "overlap": {"n_particles": 5, "t": 0.3, "replicas": 4},
    "correlation": {"n_particles": 5, "replicas": 4, "t": 0.5, "x": "1", "y": "2"},
    "qsd_profile": {"n_list": [4], "burn_in": 0.5, "n_samples": 40, "spacing": 0.05},
}
SPANS = (
    "graphical.influence_experiment",
    "kernels.influence_matrix_kernel",
    "kernels.run_events",
    "estimators.correlation_experiment",
    "kernels.run_recorded",
    "estimators.qsd_profile_experiment",
)


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _patched_names(tracing):
    """(owner, attribute, current value) for every name the tracer wraps."""
    modules = {name: getattr(fvqsd, name) for name in tracing.MODULES}
    names = [(modules[module], attr) for module, attr, _, _ in tracing.WRAPPED]
    names += [(modules[module], "map_replicas") for module in tracing.MAP_CALLERS]
    names.append((fvqsd.seeding.ReplicaSeed, "generator"))
    return [(owner, attr, getattr(owner, attr)) for owner, attr in names]


def test_traced_run_records_the_spans_perfbench_reads(tmp_path, tracing):
    before = _patched_names(tracing)
    runners = dict(fvqsd.cli._RUNNERS)
    with tracing.Tracer().installed(fvqsd) as tracer:
        for kind, params in CONFIGS.items():
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps({"kind": kind, "chain": GOLDEN,
                                       "master_seed": 3, "parameters": params}))
            argv = [kind, "--config", str(cfg), "--out", str(tmp_path / kind),
                    "--threads", "2"]
            assert fvqsd.cli.main(argv) == 0
        chain = fvqsd.validate_chain(GOLDEN)
        fvqsd.simulate(chain, [0, 1, 0, 1], 0.5, 3)
        fvqsd.graphical.influence_matrix(
            fvqsd.graphical.sample_marks(chain, 4, 0.5, 3))
    names = {span[1] for span in tracer.spans}
    assert set(SPANS) <= names, set(SPANS) - names
    # perfbench sums this count into kernels.us_per_particle_time: N times
    # the last record time.
    profile = CONFIGS["qsd_profile"]
    last = profile["burn_in"] + profile["spacing"] * profile["n_samples"]
    counts = [span[6] for span in tracer.spans if span[1] == "kernels.run_recorded"]
    assert counts == [profile["n_list"][0] * last], counts
    for owner, attr, value in before:
        assert getattr(owner, attr) is value, f"{owner!r}.{attr} not restored"
    assert fvqsd.cli._RUNNERS == runners


def test_traced_mark_replay_records_its_spans(tracing):
    # perfbench's influence coupling pass replays marks under the tracer.
    before = _patched_names(tracing)
    chain = fvqsd.validate_chain(GOLDEN)
    with tracing.Tracer().installed(fvqsd) as tracer:
        marks = fvqsd.graphical.sample_marks(chain, 6, 1.0, 11)
        fvqsd.graphical.evolve([0, 1, 0, 1, 0, 1], marks)
    names = {span[1] for span in tracer.spans}
    assert {"graphical.sample_marks", "graphical.evolve",
            "kernels.apply_marks"} <= names, names
    # perfbench sums this count into graphical.mark_events.
    counts = [span[6] for span in tracer.spans
              if span[1] == "graphical.sample_marks"]
    assert counts == [marks.n_events] and counts[0] > 0, counts
    for owner, attr, value in before:
        assert getattr(owner, attr) is value, f"{owner!r}.{attr} not restored"


def test_traced_conditioned_law_records_the_propagator(tracing):
    # perfbench's `exact` workload times the propagator under its old name.
    before = _patched_names(tracing)
    chain = fvqsd.validate_chain(GOLDEN)
    with tracing.Tracer().installed(fvqsd) as tracer:
        fvqsd.semigroup.conditioned_law(chain, [0.5, 0.5], 0.5)
    names = {span[1] for span in tracer.spans}
    assert {"semigroup.conditioned_law", "chain.transient_vector"} <= names, names
    for owner, attr, value in before:
        assert getattr(owner, attr) is value, f"{owner!r}.{attr} not restored"
