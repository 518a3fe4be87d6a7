"""Batch front-end: config in, CSV/JSON artifacts out, with a manifest.

Every run reads one JSON config document, validates it fully (all problems
reported at once, exit 2 on any), executes one subcommand, and writes its
artifacts into a directory named by a content hash of the resolved config,
so sweeps never trample each other and identical configs land in the same
place.  Numeric output is formatted with 17 significant digits, which makes
repeated runs byte-identical and golden-file comparisons exact.  A
manifest.json records the fully-resolved config (every default expanded),
library versions, the effective seed, wall time, and artifact checksums;
wall time is the one intentionally non-reproducible field, so the manifest
is the one file excluded from byte-level comparisons.  Numerical failures
(as opposed to config errors) write failure.json and exit 3; an output
directory that cannot be created is a usage error, exit 2 with nothing
written.

main is cheap to call many times in one process: the argument parser is
built once and shared, each subcommand's handler imports the physics layer
it needs on first use, and a numeric table is rendered by %-formats, each
distinct number once where at most half the cells are distinct; a table
with a text column goes through csv.writer.

Every config key is declared once, in COMMON_KEYS and SCHEMA below; the
README documents them, and configs/ holds a worked example per subcommand.
A handler gets the resolved config alone, as the schema walk returns it;
the run hash covers that config and nothing else.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__, potentials
from .errors import ConfigError, InstantFormError, SingularPotentialError
from .minkowski import _dot3

__all__ = ["main", "parse_config", "run"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3


def _atomic_write(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _render(name, content):
    """Artifact text.  A .csv is RFC-4180 with LF line endings and minimal
    quoting: a header of column names, then the rows, every number as
    "%.17g" (round-trippable).  A 2-D float array whose cells are at most
    half distinct (by float64 bit pattern) formats each distinct value once,
    as two texts that end in "," or in "\n", and joins the text of each cell
    in one str.join; any other array takes one %-format over all its cells,
    and any other rows go through csv.writer.
    A .json is strict JSON: a non-finite value is a numerical failure, never
    an invalid artifact."""
    if name.endswith(".csv"):
        header, rows = content
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            flat = np.ravel(rows).astype(float, copy=False)
            bits = np.sort(flat.view(np.uint64))   # -0.0, 0.0 and NaN payloads apart
            new = bits[1:] != bits[:-1]
            if 2 * (np.count_nonzero(new) + 1) <= bits.size:
                distinct = bits[np.concatenate(([True], new))]
                texts = (("%.17g\n" * distinct.size)
                         % tuple(distinct.view(float).tolist())).split("\n")[:-1]
                # each distinct text twice, with the "," of a row's inner cell
                # and the "\n" of its last
                pieces = np.array([t + "," for t in texts] + [t + "\n" for t in texts],
                                  dtype=object)
                codes = np.searchsorted(distinct, flat.view(np.uint64)).reshape(rows.shape)
                codes[:, -1] += distinct.size
                return buf.getvalue() + "".join(pieces[codes.ravel()].tolist())
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            return buf.getvalue() + (line * len(rows)) % tuple(flat.tolist())
        writer.writerows([cell if isinstance(cell, str) else "%.17g" % cell for cell in row]
                         for row in rows)
        return buf.getvalue()
    try:
        return json.dumps(content, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda x: x.tolist()) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"{name}: {exc}") from exc


def _write(run_dir, name, content):
    _atomic_write(os.path.join(run_dir, name), _render(name, content))


# -- config schema -------------------------------------------------------------
#
# Every config key is declared once, below: its type, its default (or that it
# is required) and its bounds.  One walker checks a document against the
# table, flags unknown keys at every level, rejects every non-finite number
# and expands defaults, collecting all problems as "path: message" so a bad
# config reports them at once.  Checks that span several keys run afterwards.

_REQUIRED = object()  # no default: the key must be given
_OPTIONAL = object()  # no default: the key is left out when absent


class _Key(NamedTuple):
    """``of`` holds a choice's values, a vector's length, a list's item _Key,
    an object's {name: _Key}, or a kinded object's {kind: {name: _Key}}."""

    type: str  # number, integer, choice, vector, list, object or kinded
    default: object = _REQUIRED
    of: object = None
    positive: bool = False
    minimum: float | None = None


_COULOMB = ("coulomb", "coulomb+darwin")
_VEC3 = _Key("vector", of=3)
_VEC3_ZERO = _Key("vector", [0.0, 0.0, 0.0], of=3)
_POSITIVE = _Key("number", positive=True)

COMMON_KEYS = {
    "c": _Key("number", 1.0, positive=True),
    "seed": _Key("integer", 0, minimum=0),
}
_PARTICLES = {
    "particles": _Key("list", of=_Key("object", of={
        "m": _POSITIVE,
        "x": _VEC3,
        "p": _VEC3_ZERO,
        "q": _Key("number", 0.0),
    })),
    "potential": _Key("choice", "none", of=potentials.POTENTIALS),
    "x0": _Key("number", 0.0),
}
_PAIR = {
    "m1": _POSITIVE,
    "m2": _POSITIVE,
    "charge_product": _Key("number", 0.0),
    "rho0": _VEC3,
    "pi0": _VEC3_ZERO,
    "potential": _Key("choice", "coulomb", of=potentials.POTENTIALS),
    "dtau": _POSITIVE,
    "n_steps": _Key("integer", minimum=1),
    "sample_every": _Key("integer", 1, minimum=1),
}
SCHEMA = {
    "validate-foliation": {
        "embedding": _Key("kinded", of={
            "identity": {},
            "tilted": {"velocity": _VEC3},
            "rigid": {"omega": _Key("number")},
            "differential": {"omega": _Key("number"), "r0": _POSITIVE},
        }),
        "grid": _Key("object", {}, of={
            "tau_min": _Key("number", 0.0),
            "tau_max": _Key("number", 1.0),
            "n_tau": _Key("integer", 3, minimum=1),
            "sigma_extent": _Key("number", 2.0, positive=True),
            "n_sigma": _Key("integer", 9, minimum=2),
        }),
        "asymptotic_tol": _Key("number", 1e-3, positive=True),
    },
    "radar": {
        "worldline": _Key("kinded", of={
            "inertial": {
                "origin": _VEC3_ZERO,
                "h": _VEC3_ZERO,
                "domain_min": _Key("number", -100.0),
                "domain_max": _Key("number", 100.0),
            },
            "rindler": {
                "accel": _POSITIVE,
                "domain_min": _Key("number", -10.0),
                "domain_max": _Key("number", 10.0),
            },
        }),
        "events": _Key("list", _OPTIONAL, of=_Key("vector", of=4)),
        "random_events": _Key("object", _OPTIONAL, of={
            "n": _Key("integer", 16, minimum=1),
            "time_scale": _Key("number", 1.0, positive=True),
            "space_scale": _Key("number", 1.0, positive=True),
            "space_offset": _VEC3_ZERO,
        }),
    },
    "centers": _PARTICLES,
    "tube": {
        **_PARTICLES,
        "n_frames": _Key("integer", 200, minimum=1),
        "rapidity_max": _Key("number", 3.0, positive=True),
    },
    "evolve": _PAIR,
    "reconstruct": {**_PAIR, "z": _VEC3_ZERO, "h": _VEC3_ZERO},
    "spectrum": {
        "n_points": _Key("integer", 2048, minimum=16),
        "length": _POSITIVE,
        "m1": _POSITIVE,
        "m2": _POSITIVE,
        "alpha": _POSITIVE,
        "kinetic": _Key("choice", "salpeter", of=potentials.KINETIC_KINDS),
        "ell": _Key("integer", 0, minimum=0),
        "softening": _Key("number", _OPTIONAL, minimum=0),  # see _default_softening
        "n_levels": _Key("integer", 6, minimum=1),
    },
}


def _is_finite_number(v):
    """A finite int or float.  The bound is a comparison, not math.isfinite,
    so an int beyond the float range counts as non-finite, not an error."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max


def _walk(key, val, path, problems):
    """Resolve ``val`` against ``key``; a bad value appends its problem and
    resolves to None."""
    def bad(message):
        problems.append(f"{path}: {message}")

    if key.type == "choice":
        if isinstance(val, bool) or val not in key.of:
            return bad(f"must be one of {list(key.of)}, got {val!r}")
        return val
    if key.type in ("number", "integer"):
        if not _is_finite_number(val):
            return bad(f"expected a finite number, got {val!r}")
        if key.type == "integer" and not (isinstance(val, int) or val.is_integer()):
            return bad(f"expected an integer, got {val}")
        if key.positive and not val > 0:
            return bad(f"must be > 0, got {val}")
        if key.minimum is not None and val < key.minimum:
            return bad(f"must be >= {key.minimum}, got {val}")
        return int(val) if key.type == "integer" else float(val)
    if key.type == "vector":
        if not (isinstance(val, list) and len(val) == key.of and all(map(_is_finite_number, val))):
            return bad(f"expected a list of {key.of} finite numbers")
        return [float(v) for v in val]
    if key.type == "list":
        if not isinstance(val, list) or not val:
            return bad("expected a non-empty list")
        return [_walk(key.of, v, f"{path}[{i}]", problems) for i, v in enumerate(val)]
    if not isinstance(val, dict):
        return bad("expected an object")
    keys = key.of
    if key.type == "kinded":
        kinds = tuple(key.of)
        keys = {"kind": _Key("choice", of=kinds),
                **(key.of[val["kind"]] if val.get("kind") in kinds else {})}
    prefix = f"{path}." if path else ""
    problems.extend(f"{prefix}{name}: unknown key" for name in val if name not in keys)
    out = {}
    for name, sub in keys.items():
        if name in val or sub.default not in (_REQUIRED, _OPTIONAL):
            out[name] = _walk(sub, val.get(name, sub.default), prefix + name, problems)
        elif sub.default is _REQUIRED:
            problems.append(f"{prefix}{name}: required field is missing")
            out[name] = None
    return out


# -- checks that span several keys, on the walked config (bad values are None)


def _tau_order(cfg, problems):
    g = cfg["grid"]
    if g and None not in (g["tau_min"], g["tau_max"]) and not g["tau_max"] >= g["tau_min"]:
        problems.append("grid.tau_max: must be >= tau_min")


def _domain_order(cfg, problems):
    wl = cfg["worldline"] or {}
    lo, hi = wl.get("domain_min"), wl.get("domain_max")
    if None not in (lo, hi) and not hi > lo:
        problems.append("worldline.domain_max: must be > domain_min")


def _subluminal_velocity(cfg, problems):
    emb = cfg["embedding"]
    if emb and emb["kind"] == "tilted" and emb["velocity"]:
        v = np.asarray(emb["velocity"])
        if not v @ v < 1.0:  # the test foliation.tilted_embedding applies
            problems.append("embedding.velocity: must have norm < 1")


def _events_given(cfg, problems):
    if "events" not in cfg and "random_events" not in cfg:
        problems.append("events: provide either events or random_events")


def _charges_apart(cfg, problems):
    # the ParticleSystem coincidence rule; a particle with a bad x or q counts
    # as neutral
    if cfg["potential"] not in _COULOMB:
        return
    parts = [p if p and p["x"] and p["q"] is not None else {"x": [0.0] * 3, "q": 0.0}
             for p in cfg["particles"] or []]
    try:
        potentials._check_apart([p["q"] for p in parts], np.array([p["x"] for p in parts]))
    except SingularPotentialError as exc:
        problems.append(f"{exc}; singular with potential={cfg['potential']!r}")


def _coulomb_charge(cfg, problems):
    if cfg["potential"] in _COULOMB and cfg["charge_product"] == 0.0:
        problems.append("charge_product: must be nonzero for a coulomb potential")


def _levels_fit(cfg, problems):
    if None not in (cfg["n_levels"], cfg["n_points"]) and cfg["n_levels"] > cfg["n_points"]:
        problems.append(f"n_levels: must be <= n_points ({cfg['n_points']})")


def _default_softening(cfg, problems):
    if "softening" not in cfg and cfg["n_points"] and cfg["length"]:
        cfg["softening"] = cfg["length"] / (4.0 * cfg["n_points"])


_RULES = {
    "validate-foliation": (_tau_order, _subluminal_velocity),
    "radar": (_events_given, _domain_order),
    "centers": (_charges_apart,),
    "tube": (_charges_apart,),
    "evolve": (_coulomb_charge,),
    "reconstruct": (_coulomb_charge,),
    "spectrum": (_levels_fit, _default_softening),
}


def _build_system(resolved):
    from . import collective
    parts = resolved["particles"]
    return collective.ParticleSystem(
        masses=np.array([p["m"] for p in parts]),
        positions=np.array([p["x"] for p in parts]),
        momenta=np.array([p["p"] for p in parts]),
        charges=np.array([p["q"] for p in parts]),
        potential=resolved["potential"],
        x0=resolved["x0"],
        c=resolved["c"],
    )


def _reject_constant(name):
    raise ValueError(f"{name} is not allowed: config numbers must be finite")


def parse_config(text, subcommand, seed_override=None):
    """Validate a JSON config document for one subcommand.

    Returns the fully-resolved config (all defaults expanded) or raises
    ConfigError carrying every problem found, each tagged with its key path.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError([f"<document>: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["<document>: top level must be an object"])

    problems = []
    keys = {**COMMON_KEYS, **SCHEMA[subcommand]}
    resolved = _walk(_Key("object", of=keys), raw, "", problems)
    if seed_override is not None:
        resolved["seed"] = _walk(COMMON_KEYS["seed"], seed_override, "--seed", problems)
    for rule in _RULES[subcommand]:
        rule(resolved, problems)
    if problems:
        raise ConfigError(problems)
    return {"subcommand": subcommand, **resolved}


# -- subcommand handlers -----------------------------------------------------
#
# Each handler returns its artifacts as {file name: content}: (header, rows)
# for a .csv, an object for a .json.  run renders them all before writing
# any, so a failed run leaves only failure.json.  Each handler imports the
# layers it uses, so importing cli loads none of them.


def _make_embedding(block, c):
    from . import foliation
    kind = block["kind"]
    if kind == "identity":
        return foliation.identity_embedding()
    if kind == "tilted":
        return foliation.tilted_embedding(np.asarray(block["velocity"]))
    return foliation.make_rotating_embedding(kind, block["omega"], block.get("r0"), c)


def _run_validate_foliation(cfg):
    from . import foliation
    emb = _make_embedding(cfg["embedding"], cfg["c"])
    report = foliation.check_admissibility(
        emb, foliation.GridSpec(**cfg["grid"]), asym_tol=cfg["asymptotic_tol"],
    )
    return {
        "violations.csv": (
            ("condition", "tau", "s1", "s2", "s3", "witness"), report.table),
        "report.json": {
            "passed": bool(report.passed),
            "conditions_passed": [int(ok) for ok in report.conditions_passed],
            "n_nodes": int(report.n_nodes),
            "n_violations": len(report.table),
            "asymptotic_normal": report.asymptotic_normal,
        },
    }


def _run_radar(cfg):
    from . import radar
    block = cfg["worldline"]
    domain = (block["domain_min"], block["domain_max"])
    if block["kind"] == "inertial":
        # a spatial origin: proper time zero sits at lab time zero
        wline = radar.inertial_worldline(
            np.array([0.0, *block["origin"]]), np.asarray(block["h"]), domain)
    else:
        wline = radar.rindler_worldline(block["accel"], domain)
    events = cfg.get("events")
    if events is None:
        rand = cfg["random_events"]
        rng = np.random.default_rng(cfg["seed"])
        n = rand["n"]
        times = rand["time_scale"] * rng.uniform(-1.0, 1.0, n)
        space = np.asarray(rand["space_offset"]) + rand["space_scale"] * rng.uniform(
            -1.0, 1.0, (n, 3)
        )
        events = np.concatenate((times[:, None], space), axis=1)

    rows = []
    for ev in events:
        try:
            res = radar.einstein_sync(wline, ev)
            rows.append((*ev, res.tau, res.s_emit, res.s_absorb, *res.residuals, "ok"))
        except radar.NoSolutionError as exc:
            rows.append((*ev, *[np.nan] * 5, f"no_solution:{exc.missing}"))
    header = ("t", "x", "y", "z", "tau", "s_emit", "s_absorb",
              "residual_emit", "residual_absorb", "status")
    return {"radar.csv": (header, rows)}


def _run_centers(cfg):
    from . import collective
    # energies that overflow leave P NaN, refused as a NonTimelikeError
    with np.errstate(over="ignore", invalid="ignore"):
        g = collective.poincare_generators(_build_system(cfg))
        mc, h, s_bar = collective.invariant_mass_spin(g)
        x_nw, z, _ = collective.newton_wigner_and_jacobi(g)
        rows = [
            ("center_of_energy", *collective.center_of_energy(g)),
            ("fokker_pryce_tau0", *collective.fokker_pryce_worldline(g)(0.0)[1:]),
            ("newton_wigner", *x_nw),
        ]
        tube_radius = collective.tube_radius(g)
    return {
        "centers.csv": (("center", "x", "y", "z"), rows),
        "invariants.json": {
            "Mc": float(mc),
            "h": h,
            "S_bar": s_bar,
            "tube_radius": tube_radius,
            "jacobi_z": z,
        },
    }


def _run_tube(cfg):
    from . import collective
    sample = collective.moller_tube_sample(
        _build_system(cfg),
        n_frames=cfg["n_frames"],
        rapidity_max=cfg["rapidity_max"],
        seed=cfg["seed"],
    )
    rows = np.column_stack((sample.rapidities, sample.directions, sample.distances))
    return {
        "tube.csv": (("rapidity", "nx", "ny", "nz", "distance"), rows),
        "tube.json": {
            "bound": float(sample.bound),
            "max_distance": float(sample.max_distance),
            "n_frames": int(sample.distances.shape[0]),
            "within_bound": bool(np.all(sample.distances <= sample.bound * (1 + 1e-12))),
        },
    }


def _sampled_rows(n, every):
    """Every ``every``-th of ``n`` rows, always ending on the last one."""
    idx = np.arange(0, n, every)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


def _evolve(cfg):
    """The evolve artifacts and the trajectory they sample."""
    from . import restframe
    rel = restframe.RelativeState(
        m1=cfg["m1"], m2=cfg["m2"],
        rho=np.asarray(cfg["rho0"]), pi=np.asarray(cfg["pi0"]),
        charge_product=cfg["charge_product"], c=cfg["c"],
    )
    traj = restframe.evolve(rel, cfg["potential"], cfg["dtau"], cfg["n_steps"])
    idx = _sampled_rows(traj.tau.shape[0], cfg["sample_every"])
    L = traj.L[idx]
    rows = np.column_stack((traj.tau[idx], traj.rho[idx], traj.pi[idx], traj.H[idx],
                            np.sqrt(_dot3(L, L))))
    header = ("tau", "rho_x", "rho_y", "rho_z", "pi_x", "pi_y", "pi_z", "H", "L")
    artifacts = {
        "trajectory.csv": (header, rows),
        "evolve.json": {
            "scheme": traj.scheme,
            "energy_drift": float(traj.energy_drift),
            "H0": float(traj.H[0]),
            "n_steps": cfg["n_steps"],
            "max_fixed_point_sweeps": traj.meta.get("max_fixed_point_sweeps", 0),
        },
    }
    return artifacts, traj


def _run_reconstruct(cfg):
    from . import restframe
    artifacts, traj = _evolve(cfg)
    rec = restframe.reconstruct_worldlines(traj, np.asarray(cfg["z"]), np.asarray(cfg["h"]))
    idx = _sampled_rows(rec.tau.shape[0], cfg["sample_every"])
    rows = np.column_stack((np.repeat([1.0, 2.0], len(idx)), np.tile(rec.tau[idx], 2),
                            rec.events[:, idx].reshape(-1, 4)))
    return {
        **artifacts,
        "worldlines.csv": (("particle", "tau", "t", "x", "y", "z"), rows),
        "reconstruct.json": {
            "all_segments_causal": bool(rec.all_timelike),
            "Mc": float(rec.Mc),
            "h": rec.h,
        },
    }


def _run_spectrum(cfg):
    from . import relquant

    def levels_at(n_points, n_levels):
        return relquant.radial_levels(
            n_points, cfg["length"], cfg["m1"], cfg["m2"], cfg["alpha"],
            c=cfg["c"], kinetic=cfg["kinetic"], ell=cfg["ell"],
            softening=cfg["softening"], n_levels=n_levels,
        )

    levels = levels_at(cfg["n_points"], cfg["n_levels"])
    half = levels_at(cfg["n_points"] // 2, 1)
    mu = cfg["m1"] * cfg["m2"] / (cfg["m1"] + cfg["m2"])
    rest = (cfg["m1"] + cfg["m2"]) * cfg["c"] ** 2
    # n as floats: (n + ell) ** 2 in int64 would wrap above ell ~ 3e9
    n = np.arange(1.0, len(levels) + 1)
    bohr = -mu * cfg["c"] ** 2 * cfg["alpha"] ** 2 / (2.0 * (n + cfg["ell"]) ** 2)
    rows = np.column_stack((n, rest + levels, levels, levels / bohr))
    return {
        "levels.csv": (("n", "E_n", "binding", "bohr_ratio"), rows),
        "convergence.json": {
            "ground_binding": float(levels[0]),
            "ground_binding_half_resolution": float(half[0]),
            "relative_change": float(abs(levels[0] - half[0]) / abs(levels[0])),
            "n_points": cfg["n_points"],
        },
    }


_HANDLERS = {
    "validate-foliation": _run_validate_foliation,
    "radar": _run_radar,
    "centers": _run_centers,
    "tube": _run_tube,
    "evolve": lambda cfg: _evolve(cfg)[0],
    "reconstruct": _run_reconstruct,
    "spectrum": _run_spectrum,
}


def _config_digest(cfg):
    """The run directory name: a hash of the canonical resolved config."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def run(cfg, out_base):
    """Execute a resolved config; returns (exit_code, run_dir)."""
    digest = _config_digest(cfg)
    run_dir = os.path.join(out_base, digest)
    try:
        os.makedirs(run_dir, exist_ok=True)
    except OSError as exc:  # such as --out naming a file
        print(f"cannot write output: {exc}", file=sys.stderr)
        return _EXIT_CONFIG, run_dir

    start = time.monotonic()
    try:
        artifacts = _HANDLERS[cfg["subcommand"]](cfg)
        texts = {name: _render(name, content) for name, content in artifacts.items()}
    # ArithmeticError: FloatingPointError, and ZeroDivisionError or
    # OverflowError from Python float arithmetic on extreme inputs
    except (InstantFormError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _write(run_dir, "failure.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "subcommand": cfg["subcommand"],
        })
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL, run_dir
    for name, text in texts.items():
        _atomic_write(os.path.join(run_dir, name), text)

    wall = time.monotonic() - start
    _write(run_dir, "manifest.json", {
        "subcommand": cfg["subcommand"],
        "config": cfg,
        "config_hash": digest,
        "seed": cfg["seed"],
        "wall_time_s": wall,
        "versions": {
            "instantform": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                      for name, text in texts.items()},
    })
    return _EXIT_OK, run_dir


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every main call
    of the process: parse_args reads it without changing it."""
    parser = argparse.ArgumentParser(
        prog="instantform",
        description="Rest-frame instant form toolkit batch runner.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMA:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="out", help="base output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        cfg = parse_config(text, args.subcommand, seed_override=args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return _EXIT_CONFIG

    code, run_dir = run(cfg, args.out)
    if code == _EXIT_OK:
        print(run_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
