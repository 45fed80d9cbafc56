from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvqsd
from fvqsd.cli import EXPERIMENT_KINDS, PARAMETERS, main, run
from fvqsd.errors import ConfigError

from _oracles import GOLD_ALPHA, GOLD_NU, LARGEST_T

GOLDEN = {
    "states": ["1", "2"],
    "rates": [[0.0, 1.0], [1.0, 0.0]],
    "absorption": [1.0, 0.0],
}


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return path


def write_config(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestQsdRun:
    def test_end_to_end(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", master_seed=42,
            parameters={},
        )
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 0
        summary = read_summary(out)
        assert summary["status"] == "ok"
        assert summary["kind"] == "qsd"
        np.testing.assert_allclose(summary["results"]["nu"], GOLD_NU, atol=1e-9)
        assert summary["results"]["alpha"] == pytest.approx(GOLD_ALPHA, abs=1e-9)
        assert summary["results"]["converged"] is True

        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "experiment,N,t,x,y,estimate,se,bound,replicas,seed"
        assert len(lines) == 3
        assert lines[1].startswith("qsd,,,1,,0.38196601125")

        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_inline_chain(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="qsd", chain=GOLDEN, master_seed=1, parameters={},
        )
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 0
        assert read_summary(out)["chain"]["states"] == ["1", "2"]


class TestConfigValidation:
    def test_unknown_field(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", parameters={}, extra=1,
        )
        with pytest.raises(ConfigError, match="extra"):
            run(cfg, out=str(tmp_path / "o"))
        assert main(["qsd", "--config", str(cfg)]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"kind": "qsd",')
        assert main(["qsd", "--config", str(cfg)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["qsd", "--config", str(tmp_path / "nope.json")]) == 1

    def test_kind_conflict(self, tmp_path, chain_file, capsys):
        cfg = write_config(
            tmp_path, kind="simulate", chain="golden.json", parameters={},
        )
        assert main(["qsd", "--config", str(cfg)]) == 1
        assert "conflict" in capsys.readouterr().err

    def test_missing_parameter(self, tmp_path, chain_file, capsys):
        cfg = write_config(
            tmp_path, kind="correlation", chain="golden.json",
            parameters={"n_particles": 5},
        )
        assert main(["correlation", "--config", str(cfg)]) == 1
        assert "parameters." in capsys.readouterr().err

    def test_bad_master_seed(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", master_seed="abc",
            parameters={},
        )
        with pytest.raises(ConfigError, match="master_seed"):
            run(cfg, out=str(tmp_path / "o"))

    def test_bad_chain_in_config(self, tmp_path, capsys):
        bad = dict(GOLDEN, absorption=[0.0, 0.0])
        cfg = write_config(tmp_path, kind="qsd", chain=bad, parameters={})
        assert main(["qsd", "--config", str(cfg)]) == 1

    def test_semigroup_unconverged_qsd(self, tmp_path, chain_file, capsys,
                                       monkeypatch):
        # `qsd` reports a capped solve; `semigroup` must not fit against it.
        monkeypatch.setattr(fvqsd.cli, "qsd",
                            lambda chain: fvqsd.qsd(chain, max_iter=2))
        cfg = write_config(
            tmp_path, kind="semigroup", chain="golden.json",
            parameters={"initial": "1", "t_grid": [0.5, 1.0, 1.5, 2.0]},
        )
        out = tmp_path / "out"
        assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QSD") and len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_semigroup_short_grid(self, tmp_path, chain_file, capsys):
        cfg = write_config(
            tmp_path, kind="semigroup", chain="golden.json",
            parameters={"initial": "uniform", "t_grid": [0.5, 1.0, 1.5]},
        )
        assert main(["semigroup", "--config", str(cfg)]) == 1


OVERLAP = {"n_particles": 5, "t": 0.3, "replicas": 4}
OVERLAP_GRID = {"n_particles": 5, "t_grid": [0.3], "replicas": 4}
CORRELATION = {"n_particles": 5, "replicas": 4, "t": 0.5, "x": "1", "y": "2"}
SIMULATE = {"n_particles": 4, "replicas": 2, "record_times": [0.5]}
MOMENT = {"sites": ["1", "2"], "n_particles": 4, "burn_in": 0.2,
          "n_samples": 40, "spacing": 0.01}

# id: (kind, parameters, master_seed, extra argv)
MALFORMED = {
    "overlap-t_grid-text": ("overlap", dict(OVERLAP_GRID, t_grid=["abc"]), 0, []),
    "overlap-t_grid-negative": ("overlap", dict(OVERLAP_GRID, t_grid=[-1.0]), 0, []),
    "simulate-record_times-text": ("simulate", dict(SIMULATE, record_times=["abc"]), 0, []),
    "simulate-record_times-tie": ("simulate", dict(SIMULATE, record_times=[0.5, 0.5]), 0, []),
    "correlation-t-nan": ("correlation", dict(CORRELATION, t=math.nan), 0, []),
    "correlation-t-inf": ("correlation", dict(CORRELATION, t=math.inf), 0, []),
    "correlation-t-huge-int": ("correlation", dict(CORRELATION, t=10**400), 0, []),
    "correlation-bound_override-bool":
        ("correlation", dict(CORRELATION, bound_override=True), 0, []),
    "correlation-unknown-name": ("correlation", dict(CORRELATION, replicaz=3), 0, []),
    "product_moment-duplicate-sites": ("product_moment", dict(MOMENT, sites=["1", "1"]), 0, []),
    "product_moment-unknown-site": ("product_moment", dict(MOMENT, sites=["1", "9"]), 0, []),
    "simulate-initial-weight-object": ("simulate", dict(SIMULATE, initial=[{}, 1]), 0, []),
    "master_seed-negative": ("qsd", {}, -1, []),
    "master_seed-2^64": ("qsd", {}, 2**64, []),
    "seed-flag-negative-correlation": ("correlation", CORRELATION, 0, ["--seed", "-1"]),
    "seed-flag-negative-qsd": ("qsd", {}, 0, ["--seed", "-1"]),
    "seed-flag-2^64": ("qsd", {}, 0, ["--seed", str(2**64)]),
    "overlap-n_list-and-n_particles": ("overlap", dict(OVERLAP, n_list=[5, 6]), 0, []),
    "overlap-t_grid-and-t": ("overlap", dict(OVERLAP, t_grid=[0.1]), 0, []),
    "threads-flag-zero": ("correlation", CORRELATION, 0, ["--threads", "0"]),
    "threads-flag-negative": ("correlation", CORRELATION, 0, ["--threads", "-3"]),
    "simulate-n_particles-2^64": ("simulate", dict(SIMULATE, n_particles=2**64), 0, []),
    "semigroup-t_grid-1e308": ("semigroup", {"initial": "1",
                                             "t_grid": [1.0, 2.0, 3.0, 1e308]}, 0, []),
    "overlap-n_particles-4-t-1e20": ("overlap", {"n_particles": 4, "t": 1e20,
                                                 "replicas": 2}, 0, []),
    # 2 C t = 800 is above log(DBL_MAX), so the bound e^(2 C t) overflows.
    "correlation-t-400": ("correlation", dict(CORRELATION, t=400), 0, []),
    "overlap-t-400": ("overlap", dict(OVERLAP, t=400), 0, []),
    "overlap-t_grid-entry-400": ("overlap", dict(OVERLAP_GRID, t_grid=[0.3, 400]), 0, []),
    "threads-flag-text": ("correlation", CORRELATION, 0, ["--threads", "x"]),
    "seed-flag-fraction": ("qsd", {}, 0, ["--seed", "1.5"]),
}


@pytest.mark.parametrize("kind, params, master_seed, extra", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_input_exits_one_with_one_line(
        tmp_path, capsys, kind, params, master_seed, extra):
    cfg = write_config(tmp_path, kind=kind, chain=GOLDEN,
                       master_seed=master_seed, parameters=params)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [], ["simulate"], ["validate"], ["bogus"], ["qsd", "--config", "c.json", "--bogus"],
], ids=["no-command", "no-config", "validate-no-config", "unknown-command",
        "unknown-flag"])
def test_usage_error_exits_one_with_one_line(capsys, argv):
    # Exit code 2 means a completed run failed a bound check, so a usage
    # error must not take argparse's exit code 2.
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fvqsd") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: fvqsd" in capsys.readouterr().out


@pytest.mark.parametrize("kind, params", [
    ("correlation", dict(CORRELATION, n_particles=2, t=LARGEST_T)),
    ("overlap", dict(OVERLAP_GRID, n_particles=2, t_grid=[0.3, LARGEST_T])),
], ids=["correlation", "overlap"])
def test_largest_accepted_horizon_writes_finite_outputs(tmp_path, kind, params):
    # The bound e^(2 C t) is still a finite double, so the run completes:
    # summary.json is strict JSON and no plot coordinate is nan.
    cfg = write_config(tmp_path, kind=kind, chain=GOLDEN, parameters=params)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0

    def reject(constant):
        raise AssertionError(f"summary.json holds {constant}")

    json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert "nan" not in (out / "plot.svg").read_text()


# File contents that json cannot decode: bytes that are not UTF-8, arrays
# nested deeper than the recursion limit, an integer literal longer than
# the interpreter's digit limit.
UNDECODABLE = {
    "not-utf8": b'{"kind": "qsd", "master_seed": "\xff"}',
    "deep-array": b"[" * 200_000 + b"]" * 200_000,
    "long-integer": b'{"master_seed": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("entry", ["config", "chain-of-config", "validate"])
@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=list(UNDECODABLE))
def test_undecodable_json_exits_one_with_one_line(tmp_path, capsys, content, entry):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    if entry == "validate":
        argv = ["validate", "--config", str(bad)]
    else:
        cfg = bad if entry == "config" else write_config(tmp_path, kind="qsd",
                                                         chain="bad.json")
        argv = ["qsd", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "bad.json: invalid JSON" in err, err
    assert not out.exists()


def test_docs_list_each_kinds_parameters():
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    sections = re.split(r"^### `(\w+)`$", text, flags=re.M)
    documented = {}
    for kind, body in zip(sections[1::2], sections[2::2]):
        first_cells = [line.split("|")[1] for line in body.split("\n## ")[0].splitlines()
                       if line.startswith("| `")]
        documented[kind] = {n for cell in first_cells for n in re.findall(r"`(\w+)`", cell)}
    declared = {kind: {n for p in table for n in p.names}
                for kind, table in PARAMETERS.items()}
    assert documented == declared


# In-range values per parameter name, and values that are wrong for every
# name.  Sizes stay small (N <= 20, replicas <= 20, times <= 1,
# n_samples <= 60) because no cap on the simulated events exists yet.
_SITE = st.sampled_from(["1", "2"])
_TIME = st.floats(0.01, 1.0)
_TIMES = st.lists(_TIME, min_size=1, max_size=6, unique=True).map(sorted)
_COUNT = st.integers(2, 20)
_PROFILE = st.sampled_from(["uniform", "1", "2", [0.5, 0.5], [1, 0]])
_VALUES = {
    "tol": st.floats(1e-12, 1e-3),
    "max_iter": st.integers(1, 10**4),
    "initial": _PROFILE,
    "t_grid": _TIMES,
    "record_times": _TIMES,
    "n_particles": _COUNT,
    "replicas": _COUNT,
    "t": _TIME,
    "x": _SITE,
    "y": _SITE,
    "n_list": st.lists(_COUNT, min_size=1, max_size=3, unique=True).map(sorted),
    "profiles": st.lists(_PROFILE, min_size=1, max_size=3),
    "burn_in": _TIME,
    "n_samples": st.integers(40, 60),
    "spacing": _TIME,
    "sites": st.lists(_SITE, min_size=1, max_size=2, unique=True),
}
_WRONG = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just([]),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.5, 0, 1]),
    st.lists(st.sampled_from([math.nan, -1.0, 0.5, 3, "1", "3", None]),
             min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_VALID_SEED = st.integers(0, 2**64 - 1)


@st.composite
def _configs(draw):
    """A config of a random kind with every parameter given in one of its
    forms; now and then a parameter is left out, given a wrong value or in
    both forms, an unknown name is added, or a seed is out of range."""
    def rarely():
        return draw(st.integers(0, 9)) == 9

    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    params = {}
    for p in PARAMETERS[kind]:
        names = p.names if rarely() else [draw(st.sampled_from(p.names))]
        for name in names:
            if not rarely():
                params[name] = draw(_WRONG if rarely() else _VALUES[name])
    if rarely():
        params[draw(st.sampled_from(sorted(_VALUES) + ["replicaz"]))] = draw(_WRONG)
    master_seed = draw(_WRONG | st.sampled_from([-1, 2**64]) if rarely() else _VALID_SEED)
    seed_flag = draw(st.sampled_from([-1, 2**64]) | _VALID_SEED) if rarely() else None
    return kind, params, master_seed, seed_flag


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_fuzzed_configs_never_raise(config):
    kind, params, master_seed, seed_flag = config
    extra = [] if seed_flag is None else ["--seed", str(seed_flag)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), kind=kind, chain=GOLDEN,
                           master_seed=master_seed, parameters=params)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([kind, "--config", str(cfg), "--out", tmp,
                         "--threads", "1"] + extra)
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


class TestValidateCommand:
    def test_valid(self, chain_file, capsys):
        assert main(["validate", "--config", str(chain_file)]) == 0
        out = capsys.readouterr().out
        assert "states: 2" in out
        assert "irreducible on live sites: yes" in out

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(GOLDEN, absorption=[0.0, 0.0])))
        assert main(["validate", "--config", str(path)]) == 1
        assert "invalid chain" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


class TestBoundViolation:
    def test_exit_code_two(self, tmp_path, chain_file, monkeypatch):
        monkeypatch.setattr(fvqsd.estimators, "covariance_bound",
                            lambda *args: 1e-9)
        cfg = write_config(
            tmp_path, kind="correlation", chain="golden.json", master_seed=3,
            parameters={
                "n_particles": 8, "replicas": 200, "t": 0.5, "x": "1", "y": "2",
            },
        )
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 2
        summary = read_summary(out)
        assert summary["status"] == "bound_violation"
        assert summary["checks"][0]["passed"] is False
        assert main(["correlation", "--config", str(cfg), "--out", str(out)]) == 2


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="correlation", chain="golden.json", master_seed=11,
            parameters={
                "n_particles": 9, "replicas": 120, "t": 0.25, "x": "1", "y": "2",
            },
        )
        blobs = []
        for k, threads in enumerate((1, 1, 4)):
            out = tmp_path / f"out{k}"
            assert run(cfg, out=str(out), threads=threads) == 0
            blobs.append(
                (out / "results.csv").read_bytes()
                + (out / "summary.json").read_bytes()
                + (out / "plot.svg").read_bytes()
            )
        assert blobs[0] == blobs[1] == blobs[2]

    def test_seed_override_changes_estimates(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="correlation", chain="golden.json", master_seed=11,
            parameters={
                "n_particles": 9, "replicas": 60, "t": 0.25, "x": "1", "y": "2",
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(cfg, out=str(out1))
        run(cfg, out=str(out2), seed=999)
        s1, s2 = read_summary(out1), read_summary(out2)
        assert s1["master_seed"] == 11 and s2["master_seed"] == 999
        assert s1["results"]["covariance"] != s2["results"]["covariance"]


THREE_SITE = {
    "states": ["a", "b", "c"],
    "rates": [[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 3.0, 0.0]],
    "absorption": [0.5, 0.0, 1.5],
}

# id: (kind, chain, master_seed, parameters).  One small config per kind,
# every default, and each output shape a kind can take.
STABLE_CONFIGS = {
    "qsd": ("qsd", GOLDEN, 1, {}),
    "semigroup": ("semigroup", THREE_SITE, 2,
                  {"initial": "a", "t_grid": [0.5, 1.0, 1.5, 2.0]}),
    "simulate": ("simulate", THREE_SITE, 3,
                 {"n_particles": 7, "replicas": 30, "record_times": [0.0, 0.5, 1.0]}),
    "simulate-one-replica": ("simulate", GOLDEN, 4,
                             {"n_particles": 5, "replicas": 1,
                              "record_times": [0.5], "initial": "2"}),
    "correlation": ("correlation", THREE_SITE, 5,
                    {"n_particles": 6, "replicas": 50, "t": 0.5, "x": "a", "y": "c"}),
    "correlation-same-site": ("correlation", GOLDEN, 6,
                              {"n_particles": 6, "replicas": 50, "t": 0.5, "x": "1",
                               "y": "1", "initial": [0.25, 0.75]}),
    "convergence": ("convergence", GOLDEN, 7,
                    {"n_list": [4, 8], "t": 0.5, "replicas": 20}),
    "convergence-profiles": ("convergence", THREE_SITE, 8,
                             {"n_list": [3, 6, 9], "t": 0.5, "replicas": 20,
                              "profiles": ["uniform", "b", [0.2, 0.3, 0.5]]}),
    "qsd_profile": ("qsd_profile", GOLDEN, 9,
                    {"n_list": [4, 8], "burn_in": 0.2, "n_samples": 40,
                     "spacing": 0.02}),
    "overlap-scalars": ("overlap", GOLDEN, 10,
                        {"n_particles": 5, "t": 0.3, "replicas": 20}),
    "overlap-n_list": ("overlap", GOLDEN, 11,
                       {"n_list": [4, 6], "t_grid": [0.2, 0.4], "replicas": 20}),
    "overlap-t_grid": ("overlap", THREE_SITE, 12,
                       {"n_particles": 5, "t_grid": [0.1, 0.2, 0.3], "replicas": 20}),
    "product_moment-one-site": ("product_moment", GOLDEN, 13,
                                dict(MOMENT, sites=["2"])),
    "product_moment": ("product_moment", GOLDEN, 14, MOMENT),
    "product_moment-three-sites": ("product_moment", THREE_SITE, 15,
                                   dict(MOMENT, sites=["c", "a", "b"], n_particles=6)),
}

# The first 16 hex digits of the sha256 of results.csv, summary.json and
# plot.svg per config.  A change
# that moves a random stream or an output format updates the affected
# entries and says why in CHANGES.md.
STABLE_HASHES = {
    "qsd": ('fcb3ffc1f61dc87c', '110a78faa48906bf', '39184dd642ef07c8'),
    "semigroup": ('8ed3b192d6cc2ee1', '9763ef47e1392228', 'b025946163005eb8'),
    "simulate": ('6c908c3268aa4b7a', '9fda2128ec84d565', '8825f640eacb735f'),
    "simulate-one-replica": ('43426b25e85f83b2', 'f9bc1d20b00f1a54', '12beff6d0f84f835'),
    "correlation": ('a2f529b3d145e237', '1df795b9f59fa344', 'ca7a62ff10d04d0b'),
    "correlation-same-site": ('94c9d4df188b051e', '12be5ec9d190b151', '3fcd3ddb54f9e44a'),
    "convergence": ('0da572d0fa4fdf69', '34687217529ec5fd', '14d9d9d5424e6ccc'),
    "convergence-profiles": ('d69f9f44810c6828', '693ad05488839254', 'f418c9e7d8ae5399'),
    "qsd_profile": ('1cd5e18471211b02', '751cc0e7f8f13702', '7912144c4ad8bd0e'),
    "overlap-scalars": ('2fe7774c6fca887f', '4a80bf2545dde319', '1dcfcfc54154b93c'),
    "overlap-n_list": ('6304e5088723e4a6', 'f8889791d89af9b7', 'e9033bb96d7e43b1'),
    "overlap-t_grid": ('8662fee7c4bae45d', 'c79fa3b7fc8f18e1', 'c809828092424bd4'),
    "product_moment-one-site": ('4b3ea265f82c4700', '6a78f6fe0c8de695', '579e19d09925afda'),
    "product_moment": ('4d41a138fa53e0d1', 'c2f7faa54da11957', '36feee2bcfdf1d33'),
    "product_moment-three-sites": ('003e634ca58146bf', '1749891a0fa54c76', 'f99847d19c478cc9'),
}


def test_outputs_are_byte_stable(tmp_path):
    hashes = {}
    for name, (kind, chain, master_seed, params) in STABLE_CONFIGS.items():
        cfg = write_config(tmp_path, f"{name}.json", kind=kind, chain=chain,
                           master_seed=master_seed, parameters=params)
        out = tmp_path / name
        assert run(cfg, out=str(out)) in (0, 2)
        hashes[name] = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()[:16]
            for f in ("results.csv", "summary.json", "plot.svg"))
    assert hashes == STABLE_HASHES


def test_plot_escapes_site_names(tmp_path):
    # Site names reach the plot as series names (simulate) and in the title
    # (correlation).
    chain = dict(GOLDEN, states=["a&b", "<c>"])
    for kind, params, expected in (
        ("simulate", dict(SIMULATE, record_times=[0.5, 1.0]), {"a&b", "<c>"}),
        ("correlation", dict(CORRELATION, x="a&b", y="<c>"),
         {"covariance of (m_a&b, m_<c>) at t=0.5"}),
    ):
        cfg = write_config(tmp_path, f"{kind}.json", kind=kind, chain=chain,
                           parameters=params)
        out = tmp_path / kind
        assert run(cfg, out=str(out)) in (0, 2)
        texts = {el.text for el in ET.parse(out / "plot.svg").iter()}
        assert expected <= texts


def test_overlap_repeated_horizon(tmp_path):
    # Over several N, the plot shows the cells at the first horizon of the
    # grid, even when the grid repeats it.
    cfg = write_config(tmp_path, kind="overlap", chain=GOLDEN, parameters={
        "n_list": [4, 6], "t_grid": [0.3, 0.3], "replicas": 4})
    out = tmp_path / "out"
    assert run(cfg, out=str(out)) in (0, 2)
    assert len(read_summary(out)["results"]["cells"]) == 4
    polyline = ET.parse(out / "plot.svg").find(
        "{http://www.w3.org/2000/svg}polyline")
    assert len(polyline.get("points").split()) == 2


class TestOutputDirPrecedence:
    def test_env_var_fallback(self, tmp_path, chain_file, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FVQSD_OUT", str(env_dir))
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", parameters={},
        )
        assert run(cfg) == 0
        assert (env_dir / "results.csv").exists()

    def test_flag_beats_config_dir(self, tmp_path, chain_file, monkeypatch):
        cfg_dir = tmp_path / "from_config"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("FVQSD_OUT", str(tmp_path / "unused"))
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", parameters={},
            output_dir=str(cfg_dir),
        )
        assert run(cfg, out=str(flag_dir)) == 0
        assert (flag_dir / "results.csv").exists()
        assert not cfg_dir.exists()

    def test_config_dir_beats_env(self, tmp_path, chain_file, monkeypatch):
        cfg_dir = tmp_path / "from_config"
        monkeypatch.setenv("FVQSD_OUT", str(tmp_path / "unused"))
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", parameters={},
            output_dir=str(cfg_dir),
        )
        assert run(cfg) == 0
        assert (cfg_dir / "results.csv").exists()


class TestSimulateKind:
    def test_rows_per_time_and_site(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="simulate", chain="golden.json", master_seed=5,
            parameters={
                "n_particles": 6, "replicas": 40, "initial": "uniform",
                "record_times": [0.5, 1.0],
            },
        )
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + times x sites
        # Occupation estimates per time sum to one.
        by_time: dict[str, float] = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_time[cells[2]] = by_time.get(cells[2], 0.0) + float(cells[5])
        for total in by_time.values():
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path, chain_file):
        cfg = write_config(
            tmp_path, kind="qsd", chain="golden.json", parameters={},
        )
        out = tmp_path / "out"
        # The child imports fvqsd from where this process did: pytest's
        # pythonpath setting does not reach a subprocess.
        package_root = str(Path(fvqsd.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fvqsd", "qsd", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.json").exists()
