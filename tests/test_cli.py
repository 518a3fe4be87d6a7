import argparse
import hashlib
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from instantform import cli
from instantform.errors import ConfigError
from instantform.minkowski import _dot3

from oracles import cellwise_csv, inertial_sync_closed_form


def run_cli(tmp_path, sub, cfg, out_name="out", seed=None):
    out = str(tmp_path / out_name)
    cfg_path = tmp_path / f"{sub}-config.json"
    cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    argv = [sub, "--config", str(cfg_path), "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    return code, out


def only_run_dir(out):
    entries = [os.path.join(out, d) for d in os.listdir(out)]
    assert len(entries) == 1
    return entries[0]


def read_json(run_dir, name):
    with open(os.path.join(run_dir, name)) as fh:
        return json.load(fh)


def test_validate_foliation_reports_inadmissible(tmp_path):
    cfg = {
        "embedding": {"kind": "rigid", "omega": 0.8},
        "grid": {"tau_min": 0.0, "tau_max": 0.4, "n_tau": 2,
                 "sigma_extent": 2.0, "n_sigma": 7},
    }
    code, out = run_cli(tmp_path, "validate-foliation", cfg)
    assert code == 0  # the run succeeded; the verdict lives in the report
    rd = only_run_dir(out)
    rep = read_json(rd, "report.json")
    assert rep["passed"] is False
    assert rep["n_violations"] > 0
    assert os.path.exists(os.path.join(rd, "violations.csv"))


def test_manifest_contents(tmp_path):
    cfg = {"embedding": {"kind": "differential", "omega": 1.0, "r0": 1.0}}
    code, out = run_cli(tmp_path, "validate-foliation", cfg)
    assert code == 0
    man = read_json(only_run_dir(out), "manifest.json")
    # resolved config includes every default, not just what was given
    assert "sgn" not in man["config"]  # the CLI has no signature key
    assert man["config"]["c"] == 1.0
    assert man["config"]["seed"] == 0
    assert "numpy" in man["versions"]
    assert "scipy" not in man["versions"]  # a test-only dependency
    assert man["wall_time_s"] >= 0
    assert man["subcommand"] == "validate-foliation"
    assert "artifacts" in man


def test_radar_rows_and_horizon_status(tmp_path):
    cfg = {
        "worldline": {"kind": "rindler", "accel": 0.7},
        "events": [[0.1, 2.0, 0.0, 0.0],
                   [0.5, 3.0, 1.0, -1.0],
                   [2.0, 1.0, 0.0, 0.0]],  # beyond the horizon
    }
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 0
    lines = Path(only_run_dir(out), "radar.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[-1] == "ok"
    assert lines[3].split(",")[-1].startswith("no_solution")


def test_radar_random_events(tmp_path):
    cfg = {
        "worldline": {"kind": "inertial", "origin": [0.0, 0.0, 0.0],
                      "h": [0.3, 0.0, 0.0]},
        "random_events": {"n": 12, "time_scale": 2.0, "space_scale": 2.0},
        "seed": 4,
    }
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 0
    lines = Path(only_run_dir(out), "radar.csv").read_text().splitlines()
    assert len(lines) == 13
    assert all(line.split(",")[-1] == "ok" for line in lines[1:])


def test_inertial_radar_matches_the_projection(tmp_path):
    """The config's spatial origin sits at lab time zero: every radar time is
    the projection of the event onto the observer's 4-velocity."""
    origin, h = [0.5, -1.0, 2.0], [0.3, -0.2, 0.1]
    events = [[0.0, 0.0, 0.0, 0.0], [1.5, 2.0, -1.0, 0.5], [-2.0, 0.3, 1.2, 3.0]]
    cfg = {"worldline": {"kind": "inertial", "origin": origin, "h": h,
                         "domain_min": -20.0, "domain_max": 30.0},
           "events": events}
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 0
    lines = Path(only_run_dir(out), "radar.csv").read_text().splitlines()[1:]
    assert len(lines) == len(events)
    for line, event in zip(lines, events):
        cells = line.split(",")
        assert cells[-1] == "ok"
        want = inertial_sync_closed_form([0.0, *origin], np.array(h), event)
        assert float(cells[4]) == pytest.approx(want, abs=1e-10)


def test_random_events_are_the_seeded_draws(tmp_path):
    """random_events draws the n times, then the (n, 3) offsets, from
    np.random.default_rng(seed)."""
    rand = {"n": 5, "time_scale": 2.0, "space_scale": 3.0, "space_offset": [1.0, -2.0, 0.5]}
    cfg = {"worldline": {"kind": "rindler", "accel": 0.5}, "random_events": rand, "seed": 11}
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 0
    rows = Path(only_run_dir(out), "radar.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")[:4]] for row in rows])
    rng = np.random.default_rng(11)
    times = rand["time_scale"] * rng.uniform(-1.0, 1.0, rand["n"])
    space = np.asarray(rand["space_offset"]) + rand["space_scale"] * rng.uniform(
        -1.0, 1.0, (rand["n"], 3))
    np.testing.assert_array_equal(got, np.column_stack((times, space)))


TUBE_CFG = {
    "particles": [
        {"m": 1.0, "x": [0.3, 0.1, -0.2], "p": [0.2, 0.0, 0.1]},
        {"m": 1.5, "x": [-0.4, 0.2, 0.5], "p": [-0.1, 0.3, 0.0]},
    ],
    "n_frames": 50, "rapidity_max": 2.5, "seed": 9,
}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_repeated_runs_are_byte_identical(tmp_path):
    code_a, out_a = run_cli(tmp_path, "tube", TUBE_CFG, out_name="a")
    code_b, out_b = run_cli(tmp_path, "tube", TUBE_CFG, out_name="b")
    assert code_a == code_b == 0
    da, db = only_run_dir(out_a), only_run_dir(out_b)
    # the run directory name is a hash of the resolved config
    assert os.path.basename(da) == os.path.basename(db)
    names = sorted(os.listdir(da))
    assert names == sorted(os.listdir(db))
    for name in names:
        if name == "manifest.json":
            continue  # carries wall time
        assert digest(os.path.join(da, name)) == digest(os.path.join(db, name))


def test_seed_override_changes_run_dir(tmp_path):
    _, out_a = run_cli(tmp_path, "tube", TUBE_CFG, out_name="a")
    _, out_b = run_cli(tmp_path, "tube", TUBE_CFG, out_name="b", seed=123)
    assert (os.path.basename(only_run_dir(out_a))
            != os.path.basename(only_run_dir(out_b)))


def test_tube_output_within_bound(tmp_path):
    code, out = run_cli(tmp_path, "tube", TUBE_CFG)
    assert code == 0
    tube = read_json(only_run_dir(out), "tube.json")
    assert tube["within_bound"] is True
    assert tube["max_distance"] <= tube["bound"] * (1 + 1e-12)


def test_centers_invariants(tmp_path):
    cfg = {
        "particles": [
            {"m": 1.0, "x": [1.0, 0.0, 0.0], "p": [0.0, 0.4, 0.0]},
            {"m": 1.0, "x": [-1.0, 0.0, 0.0], "p": [0.0, -0.4, 0.3]},
        ],
    }
    code, out = run_cli(tmp_path, "centers", cfg)
    assert code == 0
    inv = read_json(only_run_dir(out), "invariants.json")
    want = np.linalg.norm(inv["S_bar"]) / inv["Mc"]
    assert inv["tube_radius"] == pytest.approx(want, abs=1e-15)


def test_evolve_free_h_column_constant(tmp_path):
    cfg = {
        "m1": 1.0, "m2": 2.0, "rho0": [1.0, 0.0, 0.0],
        "pi0": [0.0, 0.3, 0.0], "potential": "none",
        "dtau": 0.05, "n_steps": 200, "sample_every": 10,
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 0
    rows = Path(only_run_dir(out), "trajectory.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 21
    h_strings = {row.split(",")[7] for row in rows}
    assert len(h_strings) == 1  # literally the same 17-digit string


def test_spectrum_levels_and_convergence(tmp_path):
    cfg = {
        "n_points": 512, "length": 8000.0, "m1": 1.0, "m2": 1.0,
        "alpha": 0.01, "kinetic": "nonrelativistic", "n_levels": 2,
    }
    code, out = run_cli(tmp_path, "spectrum", cfg)
    assert code == 0
    rd = only_run_dir(out)
    rows = Path(rd, "levels.csv").read_text().strip().splitlines()
    assert rows[0] == "n,E_n,binding,bohr_ratio"
    ratio = float(rows[1].split(",")[3])
    assert ratio == pytest.approx(1.0, abs=0.01)
    conv = read_json(rd, "convergence.json")
    assert "relative_change" in conv
    assert "ground_binding_half_resolution" in conv
    assert conv["n_points"] == 512


@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("c", [1.0, 2.5])
def test_spectrum_table_is_the_per_level_arithmetic(monkeypatch, ell, c):
    """levels.csv holds, per level n = 1, 2, ... (a Python int), the row
    (n, rest + b, b, b / bohr) with bohr = -mu c^2 alpha^2 / (2 (n + ell)^2)."""
    from instantform import relquant

    fixed = -5e-5 * np.array([1, 1 / 4, 1 / 9, 1 / 16, 1 / 25, 1 / 36]) * (1 + np.arange(6) / 7e3)
    monkeypatch.setattr(relquant, "radial_levels", lambda *args, n_levels, **kw: fixed[:n_levels])
    m1, m2, alpha = 0.7, 1.9, 0.013
    cfg = cli.parse_config(json.dumps({"n_points": 64, "length": 100.0, "m1": m1, "m2": m2,
                                       "alpha": alpha, "ell": ell, "c": c, "n_levels": 6}),
                           "spectrum")
    header, rows = cli._run_spectrum(cfg)["levels.csv"]
    mu, rest = m1 * m2 / (m1 + m2), (m1 + m2) * c ** 2
    want = []
    for n, b in enumerate(fixed, start=1):
        bohr = -mu * c ** 2 * alpha ** 2 / (2.0 * (n + ell) ** 2)
        want.append((n, rest + b, b, b / bohr))
    assert cli._render("levels.csv", (header, rows)) == cellwise_csv(header, want)


def test_spectrum_committed_config_at_ell_6_exits_0(tmp_path):
    """The committed grid's ell = 6 barrier dominates the potential; the
    solve converges by restarts instead of refusing with exit 3."""
    cfg = json.loads((ROOT / "configs" / "spectrum.json").read_text())
    code, out = run_cli(tmp_path, "spectrum", dict(cfg, ell=6))
    assert code == 0
    rows = Path(only_run_dir(out), "levels.csv").read_text().strip().splitlines()
    assert rows[0] == "n,E_n,binding,bohr_ratio"
    assert len(rows) == 1 + cfg["n_levels"]


def test_spectrum_more_levels_than_points_exits_2(tmp_path, capsys):
    cfg = {"n_points": 16, "length": 100.0, "m1": 1.0, "m2": 1.0, "alpha": 0.1,
           "n_levels": 20}
    code, out = run_cli(tmp_path, "spectrum", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "n_levels: must be <= n_points (16)" in capsys.readouterr().err


def test_reconstruct_outputs(tmp_path):
    cfg = {
        "m1": 1.0, "m2": 1.0, "rho0": [1.0, 0.0, 0.0],
        "pi0": [0.0, 0.25, 0.0], "potential": "coulomb",
        "charge_product": -1.0, "dtau": 0.02, "n_steps": 100,
        "h": [0.5, 0.0, 0.0], "z": [0.0, 0.0, 0.0],
    }
    code, out = run_cli(tmp_path, "reconstruct", cfg)
    assert code == 0
    rd = only_run_dir(out)
    rec = read_json(rd, "reconstruct.json")
    assert rec["all_segments_causal"] is True
    lines = Path(rd, "worldlines.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 101  # both worldlines, every sample


@pytest.mark.parametrize("kind", ["identity", "tilted"])
def test_inertial_foliations_pass(tmp_path, kind):
    emb = {"kind": kind, **({"velocity": [0.3, -0.2, 0.1]} if kind == "tilted" else {})}
    code, out = run_cli(tmp_path, "validate-foliation", {"embedding": emb})
    assert code == 0
    assert read_json(only_run_dir(out), "report.json")["passed"] is True


def test_validation_collects_every_problem():
    bad = {
        "particles": [
            {"m": -1.0, "x": [0, 0, 0], "p": [0, 0, 0], "q": 1.0},
            {"m": 1.0, "x": [0, 0, 0], "q": -1.0},
        ],
        "potential": "coulomb",
        "bogus_key": 7,
    }
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(bad), "centers")
    problems = err.value.problems
    text = "\n".join(problems)
    assert len(problems) >= 3
    assert "particles[0].m" in text
    assert "bogus_key" in text
    # coincident charged particles with a potential on is one of them
    assert "coincide" in text


def test_neutral_particle_on_a_charged_one_runs(tmp_path):
    """Only interacting pairs (q_i q_j != 0) can coincide: a neutral particle
    may sit on a charged one under a coulomb potential."""
    cfg = {"particles": [{"m": 1.0, "x": [0.5, 0.0, 0.0], "q": 1.0},
                         {"m": 2.0, "x": [0.5, 0.0, 0.0]},
                         {"m": 1.0, "x": [-0.5, 0.0, 0.0], "q": -1.0}],
           "potential": "coulomb"}
    code, out = run_cli(tmp_path, "centers", cfg)
    assert code == 0
    assert os.path.exists(os.path.join(only_run_dir(out), "centers.csv"))


def test_charged_pair_closer_than_the_potentials_resolve_exits_2(tmp_path, capsys):
    """Two charged particles 1e-200 apart are distinct coordinates, but their
    separation underflows to |r| = 0, which the potentials refuse: the config
    check applies the same rule and reports the pair."""
    cfg = {"particles": [{"m": 1.0, "x": [0.0, 0.0, 0.0], "q": 1.0},
                         {"m": 1.0, "x": [1e-200, 0.0, 0.0], "q": -1.0}],
           "potential": "coulomb"}
    code, out = run_cli(tmp_path, "centers", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "coincide" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path):
    cfg = {"particles": [{"m": -1.0, "x": [0, 0, 0]}]}
    code, _ = run_cli(tmp_path, "centers", cfg)
    assert code == 2


_COULOMB_PAIR = {"m1": 1.0, "m2": 1.0, "charge_product": -1.0, "rho0": [1.0, 0.0, 0.0],
                 "dtau": 0.1, "n_steps": 10}


@pytest.mark.parametrize("sub, cfg, message", [
    pytest.param("validate-foliation",
                 {"embedding": {"kind": "identity"}, "grid": {"tau_min": 1.0, "tau_max": 0.5}},
                 "grid.tau_max: must be >= tau_min", id="tau-order"),
    pytest.param("evolve", {**_COULOMB_PAIR, "potential": "yukawa"},
                 "potential: must be one of ['none', 'coulomb', 'coulomb+darwin'], got 'yukawa'",
                 id="bad-choice"),
    pytest.param("evolve", {**_COULOMB_PAIR, "n_steps": 10.5},
                 "n_steps: expected an integer, got 10.5", id="non-integer"),
    pytest.param("centers", {"particles": []}, "particles: expected a non-empty list",
                 id="empty-list"),
    pytest.param("validate-foliation", {"embedding": {"kind": "identity"}, "grid": [0.0, 1.0]},
                 "grid: expected an object", id="non-object"),
    pytest.param("evolve", {k: v for k, v in _COULOMB_PAIR.items() if k != "m1"},
                 "m1: required field is missing", id="missing-required"),
    pytest.param("evolve", {**_COULOMB_PAIR, "dtau": "0.1"},
                 "dtau: expected a finite number, got '0.1'", id="string-number"),
    pytest.param("evolve", {**_COULOMB_PAIR, "m2": True},
                 "m2: expected a finite number, got True", id="bool-number"),
    pytest.param("radar", {"worldline": {"kind": "rindler", "accel": 1.0}},
                 "events: provide either events or random_events", id="no-events"),
    pytest.param("evolve",
                 {"m1": 1.0, "m2": 1.0, "rho0": [1.0, 0.0, 0.0], "dtau": 0.1, "n_steps": 10},
                 "charge_product: must be nonzero for a coulomb potential", id="zero-charge"),
    pytest.param("centers", "[]", "<document>: top level must be an object", id="top-level-array"),
])
def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys, sub, cfg, message):
    code, out = run_cli(tmp_path, sub, cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert message in capsys.readouterr().err


def test_sgn_is_an_unknown_key(tmp_path, capsys):
    """No artifact depends on a metric signature, so the CLI takes none."""
    cfg = {"particles": [{"m": 1.0, "x": [0.0, 0.0, 0.0]}], "sgn": 1}
    code, out = run_cli(tmp_path, "centers", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "sgn: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("worldline", [
    {"kind": "inertial", "domain_min": 5.0, "domain_max": -5.0},
    {"kind": "rindler", "accel": 1.0, "domain_min": 2.0, "domain_max": 2.0},
], ids=["reversed", "equal"])
def test_radar_domain_must_increase(tmp_path, capsys, worldline):
    cfg = {"worldline": worldline, "events": [[0.0, 1.5, 0.0, 0.0]]}
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "worldline.domain_max: must be > domain_min" in capsys.readouterr().err


def test_scan_points_is_an_unknown_key(tmp_path, capsys):
    """The radar legs need no scan resolution, so the CLI takes none."""
    cfg = {"worldline": {"kind": "rindler", "accel": 1.0},
           "events": [[0.0, 1.5, 0.0, 0.0]], "scan_points": 512}
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "scan_points: unknown key" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.json"
    assert cli.main(["centers", "--config", str(missing), "--out", str(out)]) == 2
    assert not out.exists()
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    out = str(tmp_path / "out")
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert cli.main(["centers", "--config", str(cfg_path), "--out", out]) == 2


def test_numerical_failure_exits_3_with_report(tmp_path):
    cfg = {
        "m1": 1.0, "m2": 1.0, "rho0": [0.5, 0.0, 0.0], "pi0": [0.0, 0.0, 0.0],
        "potential": "coulomb", "charge_product": -5.0,
        "dtau": 0.05, "n_steps": 20000,
    }
    code, out = run_cli(tmp_path, "evolve", cfg)
    assert code == 3
    failure = read_json(only_run_dir(out), "failure.json")
    assert failure["error"] == "CollisionError"
    assert "message" in failure


def test_minimal_config_fills_defaults():
    resolved = cli.parse_config(
        json.dumps({"particles": [{"m": 2.0, "x": [0.0, 0.0, 0.0]}]}),
        "centers",
    )
    assert "sgn" not in resolved
    assert resolved["c"] == 1.0
    assert resolved["seed"] == 0
    assert resolved["particles"][0]["p"] == [0.0, 0.0, 0.0]
    assert resolved["particles"][0]["q"] == 0.0


def test_unknown_subcommand_exits_2(capsys):
    # argparse handles the usage error itself and exits with status 2
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate", "--config", "x.json"])
    assert err.value.code == 2
    capsys.readouterr()


ROOT = Path(__file__).resolve().parents[1]


def strict_json(path):
    def refuse(name):
        raise ValueError(f"{name} in {path}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


@pytest.mark.parametrize("sub, text", [
    # Python's json reads NaN/Infinity; 1e999 overflows to inf
    pytest.param("centers", '{"particles": [{"m": Infinity, "x": [0, 0, 0]},'
                 ' {"m": 1.0, "x": [1, 0, 0], "q": NaN}]}', id="centers-constants"),
    pytest.param("centers", '{"particles": [{"m": 1e999, "x": [0, 0, 0]},'
                 ' {"m": 1.0, "x": [1, 0, 0]}]}', id="centers-overflow"),
    pytest.param("radar", '{"worldline": {"kind": "rindler", "accel": 1.0},'
                 ' "events": [[0.0, NaN, 0.0, 0.0]]}', id="radar-constant"),
    pytest.param("radar", '{"worldline": {"kind": "rindler", "accel": 1.0},'
                 ' "events": [[0.0, 1.5, -1e999, 0.0]]}', id="radar-overflow"),
])
def test_nonfinite_config_exits_2(tmp_path, sub, text):
    code, out = run_cli(tmp_path, sub, text)
    assert code == 2
    assert not os.path.exists(out)


def test_deeply_nested_json_exits_2(tmp_path):
    code, out = run_cli(tmp_path, "centers", '{"particles": ' + "[" * 100000)
    assert code == 2
    assert not os.path.exists(out)


def test_negative_seed_override_exits_2(tmp_path):
    code, out = run_cli(tmp_path, "tube", TUBE_CFG, seed=-1)
    assert code == 2
    assert not os.path.exists(out)


def test_unusable_out_exits_2_and_writes_nothing(tmp_path, capsys):
    # --out naming a file, or a directory below one, is a usage error
    taken = tmp_path / "taken"
    taken.write_text("a file")
    config = str(ROOT / "configs" / "centers.json")
    for out in (taken, taken / "below"):
        assert cli.main(["centers", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
    assert os.listdir(tmp_path) == ["taken"]
    assert taken.read_text() == "a file"


def test_seed_override_does_not_outlive_its_call(tmp_path):
    _, out = run_cli(tmp_path, "tube", TUBE_CFG, out_name="a", seed=5)
    assert read_json(only_run_dir(out), "manifest.json")["seed"] == 5
    _, out = run_cli(tmp_path, "tube", TUBE_CFG, out_name="b")
    assert read_json(only_run_dir(out), "manifest.json")["seed"] == TUBE_CFG["seed"]


def test_usage_error_leaves_the_next_call_working(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate", "--config", "x.json"])
    assert err.value.code == 2
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "tube", TUBE_CFG)
    assert code == 0


def test_main_builds_at_most_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i in range(3):
        code, _ = run_cli(tmp_path, "tube", TUBE_CFG, out_name=f"out{i}")
        assert code == 0
    # each subcommand's parser is an ArgumentParser too, "instantform <name>"
    assert built.count("instantform") <= 1


# zeros, non-finite values, subnormals and the float range's ends; a literal
# 1.8e308 is already inf
EXTREMES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
            sys.float_info.max, -sys.float_info.max]
NUMBERS = hst.one_of(
    hst.floats(), hst.sampled_from(EXTREMES), hst.floats().map(np.float64),
    hst.sampled_from(EXTREMES).map(np.float64), hst.integers(-2**63, 2**63 - 1).map(np.int64),
    hst.integers(-2**1000, 2**1000), hst.booleans(),
)
# text csv quotes (a comma, a double quote, a line feed, a lone empty cell)
# and text it leaves bare (a carriage return, a tab, spaces, other unicode)
TEXTS = hst.one_of(hst.text(hst.sampled_from('ab ,"\n\r\t\'é'), max_size=5), hst.text(max_size=3))


def _rows(cells):
    row = hst.lists(cells, max_size=6)
    return hst.one_of(row, row.map(tuple))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_rows(TEXTS), hst.lists(_rows(hst.one_of(NUMBERS, TEXTS)), max_size=5))
def test_render_csv_is_the_cellwise_csv_writer(header, rows):
    assert cli._render("table.csv", (header, rows)) == cellwise_csv(header, rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_rows(TEXTS), arrays(float, hst.tuples(hst.integers(0, 5), hst.integers(1, 6)),
                            elements=hst.one_of(hst.floats(), hst.sampled_from(EXTREMES))))
@example(["a", "b"], np.empty((0, 2)))
@example(["x"], np.array(EXTREMES)[:, None])
@example(["x"] * 9, np.array([EXTREMES, EXTREMES[::-1]]))
def test_render_of_a_float_table_is_the_cellwise_csv_writer(header, table):
    """A 2-D float array of rows renders by one format over all its cells,
    as the csv writer writes it cell by cell."""
    assert cli._render("table.csv", (header, table)) == cellwise_csv(header, table)


def test_nonfinite_result_exits_3_with_strict_json(tmp_path):
    # finite inputs whose invariant mass overflows to NaN
    cfg = {"particles": [{"m": 1e200, "x": [1, 0, 0], "p": [0, 1e200, 0]},
                         {"m": 1, "x": [0, 0, 0]}]}
    code, out = run_cli(tmp_path, "centers", cfg)
    assert code == 3
    rd = only_run_dir(out)
    assert os.listdir(rd) == ["failure.json"]  # no partial artifacts
    failure = strict_json(os.path.join(rd, "failure.json"))
    assert failure["error"] == "NonTimelikeError"
    assert "invariant mass undefined" in failure["message"]


@pytest.mark.parametrize("worldline", [
    pytest.param({"kind": "rindler", "accel": 200}, id="rindler-cosh-overflow"),
    pytest.param({"kind": "inertial", "h": [1e200, 0, 0]}, id="inertial-huge-h"),
])
def test_nonfinite_worldline_velocity_exits_3_with_strict_json(tmp_path, worldline):
    cfg = {"worldline": worldline, "events": [[0.0, 1.0, 0.0, 0.0]]}
    code, out = run_cli(tmp_path, "radar", cfg)
    assert code == 3
    rd = only_run_dir(out)
    assert os.listdir(rd) == ["failure.json"]
    failure = strict_json(os.path.join(rd, "failure.json"))
    assert failure["error"] == "NonTimelikeError"
    assert "not finite" in failure["message"]


def test_superluminal_tilted_velocity_exits_2(tmp_path, capsys):
    cfg = {"embedding": {"kind": "tilted", "velocity": [0.1, 0.0, -1.0]}}
    code, out = run_cli(tmp_path, "validate-foliation", cfg)
    assert code == 2
    assert not os.path.exists(out)
    assert "embedding.velocity: must have norm < 1" in capsys.readouterr().err


@pytest.mark.parametrize("sub, cfg, error", [
    pytest.param("validate-foliation",
                 {"embedding": {"kind": "differential", "omega": 1.0, "r0": 1e-300}},
                 "ZeroDivisionError", id="differential-r0"),
    pytest.param("spectrum",
                 {"n_points": 64, "length": 1e-300, "m1": 1.0, "m2": 1.0, "alpha": 0.1},
                 "FloatingPointError", id="spectrum-length"),
])
def test_tiny_positive_scale_exits_3_with_strict_json(tmp_path, sub, cfg, error):
    code, out = run_cli(tmp_path, sub, cfg)
    assert code == 3
    rd = only_run_dir(out)
    assert os.listdir(rd) == ["failure.json"]
    assert strict_json(os.path.join(rd, "failure.json"))["error"] == error


def test_differential_r0_whose_inverse_square_overflows_exits_3(tmp_path):
    """r0 = 1e-160 squares to a subnormal whose inverse overflows, and at
    r0 = 1e-154 the inverse is finite but the 2/r0^2 of F' is not: the
    embedding is refused by name, before any node yields NaN violations,
    and numpy warns of nothing."""
    for r0 in (1e-160, 1e-154):
        cfg = {"embedding": {"kind": "differential", "omega": 1.0, "r0": r0}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "validate-foliation", cfg, out_name=f"out-{r0}")
        assert code == 3
        rd = only_run_dir(out)
        assert os.listdir(rd) == ["failure.json"]
        failure = strict_json(os.path.join(rd, "failure.json"))
        assert failure["error"] == "OverflowError"
        assert f"r0={r0}" in failure["message"]


@pytest.mark.parametrize("r0", [2e-154, 1e-150, 1e-120])
def test_tiny_differential_r0_above_the_refusal_gives_finite_witnesses(tmp_path, r0):
    """Off the axis rho^2/r0^2 overflows: F is 0 there, its documented limit,
    numpy warns of nothing and no witness is NaN."""
    cfg = {"embedding": {"kind": "differential", "omega": 1.0, "r0": r0}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, "validate-foliation", cfg)
    assert code == 0
    rd = only_run_dir(out)
    lines = Path(rd, "violations.csv").read_text().splitlines()[1:]
    assert not any("nan" in line for line in lines)
    assert strict_json(os.path.join(rd, "report.json"))["n_violations"] == len(lines)


def test_tiny_differential_r0_has_finite_witnesses_on_the_rotation_axis(tmp_path):
    """At r0 = 2e-154 and omega 3, k tau F' sigma^3 overflows on the rotation
    axis, and at omega 10 k tau F' itself, where d phase / d sigma is zero:
    that zero stays exact, the axis nodes are admissible, and numpy warns of
    nothing."""
    for omega in (3.0, 10.0):
        cfg = {"embedding": {"kind": "differential", "omega": omega, "r0": 2e-154}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "validate-foliation", cfg, out_name=f"out-{omega}")
        assert code == 0
        rd = only_run_dir(out)
        assert Path(rd, "violations.csv").read_text().splitlines()[1:] == []
        assert strict_json(os.path.join(rd, "report.json"))["n_violations"] == 0


def test_differential_r0_whose_square_overflows_is_rigid_rotation(tmp_path):
    """Past r0 = 1.34e154 Python's r0**2 overflows; F is 1 to double
    precision there, so the run reports what rigid rotation reports."""
    def artifacts(embedding, out_name):
        code, out = run_cli(tmp_path, "validate-foliation", {"embedding": embedding},
                            out_name=out_name)
        assert code == 0
        rd = only_run_dir(out)
        return [Path(rd, name).read_bytes() for name in ("violations.csv", "report.json")]

    rigid = artifacts({"kind": "rigid", "omega": 1.0}, "rigid")
    assert json.loads(rigid[1])["n_violations"] > 0
    assert artifacts({"kind": "differential", "omega": 1.0, "r0": 1e200}, "differential") == rigid


PAIR_CFG = {
    "m1": 1.0, "m2": 1.5, "charge_product": -2.0,
    "rho0": [1.0, 0.0, 0.0], "pi0": [0.0, 0.309, 0.0],
    "potential": "coulomb", "dtau": 0.01, "n_steps": 200, "sample_every": 10,
}


@pytest.mark.parametrize("sub", ["evolve", "reconstruct"])
@pytest.mark.parametrize("change, want", [
    pytest.param({"rho0": [1e200, 0.0, 0.0]}, 3, id="rho-1e200"),
    pytest.param({"rho0": [1e-200, 0.0, 0.0]}, 3, id="rho-1e-200"),
    # |rho|**3 overflows, the force underflows to zero: a finite free drift
    pytest.param({"rho0": [1e120, 0.0, 0.0]}, 0, id="rho-1e120"),
    pytest.param({"pi0": [0.0, 1e200, 0.0]}, 3, id="pi-1e200"),
    pytest.param({"pi0": [0.0, 1e300, 0.0]}, 3, id="pi-1e300"),
    pytest.param({"charge_product": -1e300}, 3, id="charge-1e300"),
    pytest.param({"charge_product": 1e-300}, 0, id="charge-1e-300"),
    pytest.param({"dtau": 1e300}, 3, id="dtau-1e300"),
    pytest.param({"dtau": 1e-300}, 0, id="dtau-1e-300"),
    pytest.param({"m1": 1e300, "m2": 1e300}, 3, id="masses-1e300"),
    pytest.param({"m1": 1e-300, "m2": 1e-300}, 0, id="masses-1e-300"),
    pytest.param({"rho0": [1e-300, 0.0, 0.0], "pi0": [0.0, 0.0, 0.0]}, 3, id="rho-1e-300-at-rest"),
    pytest.param({"potential": "none", "pi0": [0.0, 1e300, 0.0]}, 3, id="free-pi-1e300"),
])
def test_extreme_pair_configs_keep_their_exit_codes(tmp_path, sub, change, want):
    """Overflow, underflow and division by zero on extreme pair states end in
    exit 3 with a strict failure.json, whether numpy returns inf/NaN or Python
    float arithmetic raises; tiny scales that stay finite exit 0."""
    cfg = {**PAIR_CFG, **change}
    if sub == "reconstruct":
        cfg.update(z=[0.0, 0.0, 0.0], h=[0.6, 0.0, 0.2])
    code, out = run_cli(tmp_path, sub, cfg)
    assert code == want
    rd = only_run_dir(out)
    if want == 3:
        assert os.listdir(rd) == ["failure.json"]
        strict_json(os.path.join(rd, "failure.json"))
    else:
        assert "manifest.json" in os.listdir(rd)


@pytest.mark.parametrize("sub", ["evolve", "reconstruct"])
@pytest.mark.parametrize("change, error, fragment", [
    pytest.param({"charge_product": -1e300}, "OverflowError",
                 "Mc is not finite at step 1 (tau = 1.000e-02", id="charge-1e300"),
    pytest.param({"dtau": 1e300}, "OverflowError",
                 "Mc is not finite at step 1 (tau = 1.000e+300", id="dtau-1e300"),
    pytest.param({"potential": "coulomb+darwin", "rho0": [1e-70, 0.0, 0.0]}, "ZeroDivisionError",
                 "at step 1 of generalized-leapfrog(implicit) (|rho| = 1.000e-70)",
                 id="darwin-rho-1e-70"),
])
def test_float_faults_of_evolve_exit_3_naming_the_step(tmp_path, sub, change, error, fragment):
    """A pair whose Mc overflows after the start, or whose float step
    faults, exits 3 with failure.json naming the step, and numpy warns of
    nothing."""
    cfg = {**PAIR_CFG, **change}
    if sub == "reconstruct":
        cfg.update(z=[0.0, 0.0, 0.0], h=[0.6, 0.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, sub, cfg)
    assert code == 3
    rd = only_run_dir(out)
    assert os.listdir(rd) == ["failure.json"]
    failure = strict_json(os.path.join(rd, "failure.json"))
    assert failure["error"] == error
    assert fragment in failure["message"]


@pytest.mark.parametrize("sub", ["evolve", "reconstruct"])
@pytest.mark.parametrize("change, fragment", [
    pytest.param({"m1": 1e-300, "m2": 1e-300, "pi0": [0.0, 0.0, 0.0], "n_steps": 10,
                  "sample_every": 1},
                 "Mc = -1.592e-01 at step 0 (tau = 0.000e+00", id="at-the-start"),
    pytest.param({"m1": 0.01, "m2": 0.01, "dtau": 0.5, "n_steps": 20, "sample_every": 1,
                  "pi0": [-0.09 * math.cos(1.0), 0.09 * math.sin(1.0), 0.0]},
                 "at step 2 (tau = 1.000e+00", id="at-step-2"),
])
def test_pair_whose_mass_is_not_positive_exits_3(tmp_path, sub, change, fragment):
    """A pair bound below its rest energy, at the start or after coarse
    steps, exits 3 from both subcommands with a strict failure.json; evolve
    once wrote a trajectory with a negative H."""
    cfg = {**PAIR_CFG, **change}
    if sub == "reconstruct":
        cfg.update(z=[0.0, 0.0, 0.0], h=[0.6, 0.0, 0.2])
    code, out = run_cli(tmp_path, sub, cfg)
    assert code == 3
    rd = only_run_dir(out)
    assert os.listdir(rd) == ["failure.json"]
    failure = strict_json(os.path.join(rd, "failure.json"))
    assert failure["error"] == "NonTimelikeError"
    assert failure["message"].startswith("Mc must be positive: ")
    assert fragment in failure["message"]


@pytest.mark.parametrize("sub", ["evolve", "reconstruct"])
def test_far_apart_pair_runs_without_numpy_warnings(tmp_path, sub):
    """|rho0| = 1e120: |rho|^3 overflows, the force is zero and the pair
    drifts freely; the start gradient runs on Python floats, and Mc at the
    start and at every sample under a local np.errstate, so numpy warns of
    nothing."""
    cfg = {**PAIR_CFG, "rho0": [1e120, 0.0, 0.0]}
    if sub == "reconstruct":
        cfg.update(z=[0.0, 0.0, 0.0], h=[0.6, 0.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, sub, cfg)
    assert code == 0
    assert "manifest.json" in os.listdir(only_run_dir(out))


@pytest.mark.parametrize("sub", ["evolve", "reconstruct"])
@pytest.mark.parametrize("change", [{"m1": 1e300}, {"c": 1e300}], ids=["m1-1e300", "c-1e300"])
def test_overflowing_rest_energy_exits_3_naming_it(tmp_path, sub, change):
    cfg = {**PAIR_CFG, **change}
    if sub == "reconstruct":
        cfg.update(z=[0.0, 0.0, 0.0], h=[0.6, 0.0, 0.2])
    code, out = run_cli(tmp_path, sub, cfg)
    assert code == 3
    failure = strict_json(os.path.join(only_run_dir(out), "failure.json"))
    assert failure["error"] == "OverflowError"
    assert "m c = " in failure["message"] and "Mc = inf" in failure["message"]


_MAGNITUDES = hst.sampled_from([0.0, 1e-150, 1e-75, 1e-20, 1.0, 1e20, 1e75, 1e150])
_L_ROWS = hst.lists(hst.tuples(*[hst.builds(lambda m, u: m * u, _MAGNITUDES,
                                            hst.floats(-1.0, 1.0))] * 3),
                    min_size=1, max_size=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_L_ROWS, hst.integers(1, 4))
def test_l_column_is_the_plain_row_norm_bitwise(rows, every):
    """The L column, np.sqrt(_dot3(L, L)) over the sampled rows, has the
    bits of sqrt((x*x + y*y) + z*z) on Python floats row by row, whatever
    the CPU's BLAS: zero rows, rows picked by a strided index, and
    magnitudes from 1e-150 to 1e150 included."""
    L = np.array(rows)
    for picked in (L, L[::every], L[cli._sampled_rows(len(L), every)]):
        want = np.array([math.sqrt((x * x + y * y) + z * z) for x, y, z in picked.tolist()])
        assert np.sqrt(_dot3(picked, picked)).tobytes() == want.tobytes()


def test_one_step_with_a_sample_stride_past_it_matches_the_stepwise_oracle():
    """n_steps = 1 and sample_every > n_steps: the two samples, as the rows
    of the oracle's trajectory with the per-row norm of L by the same
    3-dot."""
    from instantform.restframe import RelativeState
    from oracles import stepwise_evolve

    cfg = cli.parse_config(json.dumps({**PAIR_CFG, "n_steps": 1, "sample_every": 7}), "evolve")
    artifacts, _ = cli._evolve(cfg)
    rel = RelativeState(m1=1.0, m2=1.5, rho=np.array(PAIR_CFG["rho0"]),
                        pi=np.array(PAIR_CFG["pi0"]), charge_product=-2.0)
    want = stepwise_evolve(rel, "coulomb", 0.01, 1)
    rows = [(want.tau[k], *want.rho[k], *want.pi[k], want.H[k],
             math.sqrt(_dot3(want.L[k], want.L[k]))) for k in (0, 1)]
    got = artifacts["trajectory.csv"][1]
    assert np.array(got).tobytes() == np.array(rows).tobytes()
    assert cli._render("t.csv", (("h",), got)) == cli._render("t.csv", (("h",), rows))


# run-directory names of the committed configs; a change to how configs
# resolve moves them
COMMITTED_DIGESTS = {
    "centers": "5ba9193dbdbe",
    "evolve": "06a51826d1f4",
    "radar": "feb101e505cb",
    "reconstruct": "cf1195c31dc6",
    "spectrum": "bacffd98986e",
    "tube": "81daa3471fbc",
    "validate-foliation": "e879a6c13419",
}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_committed_config_run_hash(path):
    sub = path.stem.replace("_", "-")
    cfg = cli.parse_config(path.read_text(encoding="utf-8"), sub)
    assert cli._config_digest(cfg) == COMMITTED_DIGESTS[sub]


def schema_key_names(table):
    """Every key name declared in one schema table, nested ones included."""
    names = set()
    for name, key in table.items():
        names.add(name)
        inner = key.of.of if key.type == "list" else key.of
        if key.type == "kinded":
            names.add("kind")
            for kind_table in inner.values():
                names |= schema_key_names(kind_table)
        elif isinstance(inner, dict):
            names |= schema_key_names(inner)
    return names


def test_readme_documents_every_config_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", section))))
    declared = set()
    for table in (cli.COMMON_KEYS, *cli.SCHEMA.values()):
        declared |= schema_key_names(table)
    assert sorted(declared - documented) == []
