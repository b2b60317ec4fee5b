"""Experiment runner: every harness as a reproducible command.

Configuration is a YAML document validated against a published JSON schema
before any computation (unknown keys are rejected).  Each command writes
CSV series plus a summary document with stable key ordering, so identical
(config, seed) pairs produce byte-identical artifacts.

Exit codes: 0 success and all declared assertions pass; 2 configuration
schema violation; 3 numeric failure or failed assertion.
"""

import inspect
import json
import os
import sys

import click
import numpy as np
import yaml
from jsonschema import Draft202012Validator

from . import __version__
from .fields import PRESETS, make_preset, field_norm
from .distribution import (GENERATORS, Ensemble, dump_csv, lift)
from .connections import LorentzConnection, TildeConnection
from .dynamics import (IntegratorConfig, history_at, push_lorentz,
                       push_connection, transport_ensemble)
from .analysis import (DEFAULT_CONSTANTS, compare_trajectories, fit_scaling,
                       pick_support_velocity, support_index, validity_horizon)
from . import fluid as fluid_mod
from .beamline import (SYSTEMS, preset_system, principal_solutions,
                       particular_solution, averaged_offset)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3


class SchemaViolation(Exception):
    pass


class NumericFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}
_VEC = {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": 4}

_FIELD = {
    "type": "object",
    "additionalProperties": False,
    "required": ["preset"],
    "properties": {
        "preset": {"type": "string", "enum": sorted(PRESETS)},
        "params": {"type": "object",
                   "additionalProperties": _NUMBER},
    },
}

_ENSEMBLE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["generator"],
    "properties": {
        "generator": {"type": "string", "enum": sorted(GENERATORS)},
        "n": _POS_INT,
        "seed": {"type": "integer", "minimum": 0},
        "params": {"type": "object",
                   "additionalProperties": {
                       "anyOf": [_NUMBER,
                                 {"type": "array", "items": _NUMBER}]}},
    },
}

_INTEGRATOR = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "method": {"type": "string", "enum": ["rk4", "rk45"]},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "renormalize": {"type": "boolean"},
    },
}

_CONSTANTS = {"type": "object",
              "additionalProperties": _NUMBER}

SCHEMAS = {
    "simulate": {
        "type": "object", "additionalProperties": False,
        "required": ["field", "y0", "tau_end"],
        "properties": {
            "field": _FIELD,
            "x0": _VEC, "y0": _VEC,
            "flow": {"type": "string", "enum": ["lorentz", "tilde"]},
            "tau_end": {"type": "number", "exclusiveMinimum": 0},
            "n_out": _POS_INT,
            "integrator": _INTEGRATOR,
        },
    },
    "ensemble": {
        "type": "object", "additionalProperties": False,
        "required": ["ensemble"],
        "properties": {"ensemble": _ENSEMBLE},
    },
    "compare": {
        "type": "object", "additionalProperties": False,
        "required": ["field", "ensemble", "t_end"],
        "properties": {
            "field": _FIELD, "ensemble": _ENSEMBLE,
            "t_end": {"type": "number", "exclusiveMinimum": 0},
            "n_out": _POS_INT,
            "integrator": _INTEGRATOR,
            "constants": _CONSTANTS,
            "initial_velocity": {"type": "string",
                                 "enum": ["far", "near"]},
            "assert": {"type": "object", "additionalProperties": False,
                       "properties": {
                           "max_position_separation": _NUMBER,
                           "max_velocity_separation": _NUMBER,
                           "within_bounds": {"type": "boolean"}}},
        },
    },
    "sweep": {
        "type": "object", "additionalProperties": False,
        "required": ["field", "ensemble", "parameter", "values", "t_end"],
        "properties": {
            "field": _FIELD, "ensemble": _ENSEMBLE,
            "parameter": {"type": "string",
                          "enum": ["alpha", "energy", "time"]},
            "values": {"type": "array", "items": _NUMBER, "minItems": 4},
            "response": {"type": "string",
                         "enum": ["position", "velocity"]},
            "t_end": {"type": "number", "exclusiveMinimum": 0},
            "integrator": _INTEGRATOR,
            "assert": {"type": "object", "additionalProperties": False,
                       "properties": {
                           "slope_min": _NUMBER, "slope_max": _NUMBER,
                           "r2_min": _NUMBER}},
        },
    },
    "fluid-check": {
        "type": "object", "additionalProperties": False,
        "required": ["field", "ensemble", "taus"],
        "properties": {
            "field": _FIELD, "ensemble": _ENSEMBLE,
            "taus": {"type": "array", "items": _NUMBER, "minItems": 1},
            "h_tau": {"type": "number", "exclusiveMinimum": 0},
            "grid_n": _POS_INT,
            "allowance": _NUMBER,
            "assert": {"type": "object", "additionalProperties": False,
                       "properties": {
                           "residual_below_bound": {"type": "boolean"}}},
        },
    },
    "beamline": {
        "type": "object", "additionalProperties": False,
        "required": ["system", "tau_end"],
        "properties": {
            "system": {"type": "object", "additionalProperties": False,
                       "required": ["kind"],
                       "properties": {
                           "kind": {"type": "string",
                                    "enum": list(SYSTEMS)},
                           "params": {"type": "object",
                                      "additionalProperties": _NUMBER}}},
            "tau_end": {"type": "number", "exclusiveMinimum": 0},
            "n_out": _POS_INT,
            "integrator": _INTEGRATOR,
            "assert": {"type": "object", "additionalProperties": False,
                       "properties": {
                           "max_wronskian_drift": _NUMBER,
                           "max_closed_form_error": _NUMBER}},
        },
    },
    "offset": {
        "type": "object", "additionalProperties": False,
        "required": ["field", "ensemble", "tau_end"],
        "properties": {
            "field": _FIELD, "ensemble": _ENSEMBLE,
            "tau_end": {"type": "number", "exclusiveMinimum": 0},
            "mode": {"type": "string", "enum": ["frozen"]},
            "n_grid": _POS_INT,
            "integrator": _INTEGRATOR,
        },
    },
    "validity": {
        "type": "object", "additionalProperties": False,
        "required": ["E0", "alpha", "f_norm", "beam_length"],
        "properties": {
            "E0": _NUMBER, "alpha": _NUMBER, "f_norm": _NUMBER,
            "beam_length": _NUMBER, "constants": _CONSTANTS,
            "assert": {"type": "object", "additionalProperties": False,
                       "properties": {
                           "t_max_velocity": _NUMBER,
                           "rel_tol": _NUMBER}},
        },
    },
}


def load_config(path, command):
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as exc:
        raise SchemaViolation(f"cannot read config: {exc}")
    if not isinstance(raw, dict):
        raise SchemaViolation("config must be a mapping")
    validator = Draft202012Validator(SCHEMAS[command])
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.path))
    if errors:
        loc = "/".join(str(p) for p in errors[0].path) or "<root>"
        raise SchemaViolation(f"config key {loc}: {errors[0].message}")
    return raw


# ---------------------------------------------------------------------------
# Builders and serialization helpers
# ---------------------------------------------------------------------------

def _check_params(where, fn, params):
    """SchemaViolation unless fn takes every key of params and params gives
    every parameter fn needs; where names the config key of params."""
    accepted = inspect.signature(fn).parameters
    for key in params:
        if key not in accepted:
            raise SchemaViolation(f"{where}/params/{key}: not a parameter; "
                                  f"have {sorted(accepted)}")
    for key, p in accepted.items():
        if p.default is p.empty and key not in params:
            raise SchemaViolation(f"{where}/params/{key}: required")


def build_field(spec):
    params = spec.get("params", {})
    _check_params("field", PRESETS[spec["preset"]], params)
    return make_preset(spec["preset"], **params)


def build_ensemble(spec, seed_override=None):
    gen = spec["generator"]
    params = {k: (tuple(v) if isinstance(v, list) else v)
              for k, v in spec.get("params", {}).items()}
    if gen != "delta":
        if "n" not in spec:
            raise SchemaViolation("ensemble/n: required for stochastic "
                                  "generators")
        params["n"] = spec["n"]
        if seed_override is not None:
            params["seed"] = int(seed_override)
        elif "seed" in spec:
            params["seed"] = int(spec["seed"])
        else:
            raise SchemaViolation("ensemble/seed: mandatory for stochastic "
                                  "generators")
    elif "n" in spec:
        params["n"] = spec["n"]
    _check_params("ensemble", GENERATORS[gen], params)
    return GENERATORS[gen](**params)


def build_integrator(spec):
    spec = spec or {}
    kw = {k: spec[k] for k in ("method", "step", "tol", "renormalize")
          if k in spec}
    return IntegratorConfig(**kw)


def _fmt(v):
    return f"{float(v):.17g}"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_summary(out_dir, summary):
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as f:
        json.dump(_jsonable(summary), f, sort_keys=True, indent=2)
        f.write("\n")
    return path


def emit_plot_data(series, out_dir, labels=None):
    """Write gnuplot-ready two-column files, one per named series.

    series: mapping name -> (x, y) arrays; labels: optional mapping
    name -> (xlabel, ylabel) written as a comment header.  Empty series
    produce a header-only file.
    """
    paths = []
    for name in sorted(series):
        x, y = series[name]
        xl, yl = (labels or {}).get(name, ("x", "y"))
        path = os.path.join(out_dir, f"{name}.dat")
        with open(path, "w") as f:
            f.write(f"# {xl} {yl}\n")
            for a, b in zip(np.atleast_1d(x), np.atleast_1d(y)):
                f.write(f"{_fmt(a)} {_fmt(b)}\n")
        paths.append(path)
    return paths


def check_finite(module, *arrays):
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        bad = ~np.isfinite(arr)
        if np.any(bad):
            idx = int(np.flatnonzero(bad.reshape(-1))[0])
            raise NumericFailure(
                f"non-finite value in module {module!r} at flat index {idx}")


# ---------------------------------------------------------------------------
# Command implementations (config dict -> summary dict, files in out_dir)
# ---------------------------------------------------------------------------

def run_simulate(cfg, out_dir, seed):
    field = build_field(cfg["field"])
    icfg = build_integrator(cfg.get("integrator"))
    x0 = np.asarray(cfg.get("x0", [0.0, 0.0, 0.0, 0.0]), dtype=float)
    y0 = np.asarray(cfg["y0"], dtype=float)
    if y0.shape == (3,):
        y0 = lift(y0)
    flow = cfg.get("flow", "lorentz")
    if flow == "lorentz":
        rec = push_lorentz(field, x0, y0, (0.0, cfg["tau_end"]), icfg)
    else:
        rec = push_connection(TildeConnection(field), x0, y0,
                              (0.0, cfg["tau_end"]), icfg)
    check_finite("dynamics", rec.x, rec.y)
    n_out = cfg.get("n_out", 101)
    taus = np.linspace(0.0, cfg["tau_end"], n_out)
    xs, ys = rec.state(taus)
    rows = np.column_stack([taus, xs, ys])
    write_csv(os.path.join(out_dir, "trajectory.csv"),
              ["tau", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"], rows)
    emit_plot_data({"trajectory_x1_x2": (xs[:, 1], xs[:, 2])}, out_dir,
                   {"trajectory_x1_x2": ("x1", "x2")})
    return {
        "command": "simulate", "flow": flow,
        "final_state": rows[-1].tolist(),
        "max_norm_drift": rec.stats["max_drift"],
        "steps": rec.stats["steps"],
    }, []


def run_ensemble(cfg, out_dir, seed):
    ens = build_ensemble(cfg["ensemble"], seed)
    check_finite("distribution", ens.x, ens.y, ens.w)
    dump_csv(ens, os.path.join(out_dir, "ensemble.csv"))
    m = ens.moments()
    return {
        "command": "ensemble",
        "generator": cfg["ensemble"]["generator"],
        "n": len(ens), "alpha": ens.alpha(), "energy": ens.energy(),
        "mean_velocity": m.mean.tolist(),
        "total_weight": float(ens.w.sum()),
    }, []


def run_compare(cfg, out_dir, seed):
    field = build_field(cfg["field"])
    ens = build_ensemble(cfg["ensemble"], seed)
    icfg = build_integrator(cfg.get("integrator"))
    y0 = pick_support_velocity(ens, cfg.get("initial_velocity", "far"))
    rep = compare_trajectories(field, ens, y0=y0, t_end=cfg["t_end"],
                               n_out=cfg.get("n_out", 101), cfg=icfg,
                               constants=cfg.get("constants"))
    check_finite("analysis", rep.pos_sep, rep.vel_sep)
    rows = np.column_stack([rep.times, rep.pos_sep, rep.vel_sep,
                            rep.pos_bound, rep.vel_bound])
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["t", "pos_sep", "vel_sep", "pos_bound", "vel_bound"], rows)
    emit_plot_data({"separation_position": (rep.times, rep.pos_sep),
                    "separation_velocity": (rep.times, rep.vel_sep)},
                   out_dir,
                   {"separation_position": ("t", "pos_sep"),
                    "separation_velocity": ("t", "vel_sep")})
    summary = {
        "command": "compare",
        "alpha": rep.alpha, "energy": rep.energy, "f_norm": rep.f_norm,
        "max_position_separation": float(np.max(rep.pos_sep)),
        "max_velocity_separation": float(np.max(rep.vel_sep)),
        "within_bounds": rep.within_bounds(),
        "diagnostics": rep.diagnostics,
    }
    failures = []
    want = cfg.get("assert", {})
    if "max_position_separation" in want and \
            summary["max_position_separation"] > want["max_position_separation"]:
        failures.append("max_position_separation")
    if "max_velocity_separation" in want and \
            summary["max_velocity_separation"] > want["max_velocity_separation"]:
        failures.append("max_velocity_separation")
    if want.get("within_bounds") and not summary["within_bounds"]:
        failures.append("within_bounds")
    return summary, failures


def run_sweep(cfg, out_dir, seed):
    field = build_field(cfg["field"])
    icfg = build_integrator(cfg.get("integrator"))
    param = cfg["parameter"]
    response = cfg.get("response", "position")
    points = []
    start = None
    for value in cfg["values"]:
        espec = {k: (dict(v) if isinstance(v, dict) else v)
                 for k, v in cfg["ensemble"].items()}
        params = dict(espec.get("params", {}))
        t_end = cfg["t_end"]
        if param == "alpha":
            params["r_cap"] = value / 2.0
        elif param == "energy":
            params["r0"] = float(np.arccosh(value))
        espec["params"] = params
        ens = build_ensemble(espec, seed)
        if param == "time":
            t_end = value
        # The bunches of one seed hold the same samples scaled or boosted,
        # so one sample index is one initial direction for the whole sweep;
        # a per-bunch pick can switch samples and mix two directions in the
        # fitted exponent.
        if start is None:
            start = support_index(ens)
        rep = compare_trajectories(field, ens, y0=ens.y[start], t_end=t_end,
                                   n_out=11, cfg=icfg, warn=False)
        sep = rep.pos_sep[-1] if response == "position" else rep.vel_sep[-1]
        x = {"alpha": rep.alpha, "energy": rep.energy,
             "time": t_end}[param]
        check_finite("analysis", [sep])
        points.append((x, float(sep)))
    fit = fit_scaling(points, param)
    write_csv(os.path.join(out_dir, "sweep.csv"),
              [param, f"{response}_separation"], points)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    emit_plot_data({"sweep_loglog": (np.log(xs), np.log(ys))}, out_dir,
                   {"sweep_loglog": (f"log_{param}",
                                     f"log_{response}_separation")})
    summary = {
        "command": "sweep", "parameter": param, "response": response,
        "points": points, "slope": fit.slope, "intercept": fit.intercept,
        "r2": fit.r2,
    }
    failures = []
    want = cfg.get("assert", {})
    if "slope_min" in want and fit.slope < want["slope_min"]:
        failures.append("slope_min")
    if "slope_max" in want and fit.slope > want["slope_max"]:
        failures.append("slope_max")
    if "r2_min" in want and fit.r2 < want["r2_min"]:
        failures.append("r2_min")
    return summary, failures


def run_fluid_check(cfg, out_dir, seed):
    field = build_field(cfg["field"])
    ens = build_ensemble(cfg["ensemble"], seed)
    h_tau = cfg.get("h_tau")
    grid_n = cfg.get("grid_n", 8)
    allowance = cfg.get("allowance", fluid_mod.ALLOWANCE)
    rows, slices = [], []
    failures = []
    for tau in cfg["taus"]:
        rk = fluid_mod.residual(field, ens, tau=tau, h_tau=h_tau)
        ra = fluid_mod.residual(field, ens, tau=tau, h_tau=h_tau,
                                transport="averaged")
        br = fluid_mod.bound_rhs(field, ens, tau=tau, grid_n=grid_n,
                                 allowance=allowance, transport="averaged")
        check_finite("fluid", rk.residual, ra.residual, [br.total])
        sl = rk.slice
        for c, (center, V, wc) in enumerate(zip(sl.centers, sl.cell_V,
                                                sl.cell_weight)):
            if wc <= 0:
                continue
            x_cell = sl.centroid.copy()
            if sl.axis > 0:
                x_cell[sl.axis] = center
            eta_vv = float(V[0] ** 2 - V[1] ** 2 - V[2] ** 2 - V[3] ** 2)
            rows.append([sl.t, c, *x_cell, *V, eta_vv, rk.norm(), br.total])
        slices.append({
            "tau": float(tau),
            "residual_kinetic": rk.norm(),
            "residual_averaged": ra.norm(),
            "normalized_residual_kinetic": rk.normalized_norm(),
            "bound": br.bound, "allowance": br.allowance,
            "bound_total": br.total,
            "alpha": br.alpha, "y0_factor": br.y0_factor,
            "excluded_cells": br.excluded,
            "residual_below_bound": bool(ra.norm() <= br.total),
        })
        if cfg.get("assert", {}).get("residual_below_bound") \
                and not slices[-1]["residual_below_bound"]:
            failures.append(f"residual_below_bound@tau={tau}")
    write_csv(os.path.join(out_dir, "fluid.csv"),
              ["t", "cell", "x0", "x1", "x2", "x3",
               "V0", "V1", "V2", "V3", "eta_VV", "residual_norm",
               "bound_rhs"], rows)
    taus = [s["tau"] for s in slices]
    emit_plot_data({"fluid_residual": (taus,
                                       [s["residual_kinetic"] for s in slices]),
                    "fluid_bound": (taus,
                                    [s["bound_total"] for s in slices])},
                   out_dir,
                   {"fluid_residual": ("tau", "residual_norm"),
                    "fluid_bound": ("tau", "bound_total")})
    return {"command": "fluid-check", "slices": slices}, failures


def run_beamline(cfg, out_dir, seed):
    icfg = build_integrator(cfg.get("integrator"))
    kind = cfg["system"]["kind"]
    params = cfg["system"].get("params", {})
    _check_params("system", SYSTEMS[kind], params)
    systems = preset_system(kind, **params)
    span = (0.0, cfg["tau_end"])
    n_out = cfg.get("n_out", 201)
    taus = np.linspace(0.0, cfg["tau_end"], n_out)
    summary = {"command": "beamline", "kind": kind, "components": {}}
    failures = []
    for name in sorted(systems):
        system = systems[name]
        pp = principal_solutions(system, span, icfg)
        C, S = pp.cosine(taus), pp.sine(taus)
        Cp, Sp = pp.cosine_prime(taus), pp.sine_prime(taus)
        check_finite("beamline", C, S)
        w = C * Sp - S * Cp
        drift = float(np.max(np.abs(w - 1.0)))
        comp = {"wronskian_drift": drift}
        if system.closed_form is not None:
            err = max(float(np.max(np.abs(C - system.closed_form(taus, 1.0, 0.0)))),
                      float(np.max(np.abs(S - system.closed_form(taus, 0.0, 1.0)))))
            comp["closed_form_error"] = err
            want = cfg.get("assert", {})
            if "max_closed_form_error" in want \
                    and err > want["max_closed_form_error"]:
                failures.append(f"closed_form@{name}")
        rows = np.column_stack([taus, C, S, Cp, Sp, w])
        write_csv(os.path.join(out_dir, f"principal_{name}.csv"),
                  ["tau", "C", "S", "Cp", "Sp", "wronskian"], rows)
        summary["components"][name] = comp
        want = cfg.get("assert", {})
        if "max_wronskian_drift" in want \
                and drift > want["max_wronskian_drift"]:
            failures.append(f"wronskian@{name}")
    return summary, failures


def run_offset(cfg, out_dir, seed):
    field = build_field(cfg["field"])
    ens = build_ensemble(cfg["ensemble"], seed)
    icfg = build_integrator(cfg.get("integrator"))
    span = (0.0, cfg["tau_end"])
    y0 = ens.moments().mean
    y0 = y0 / np.sqrt(max(y0[0] ** 2 - y0[1] ** 2 - y0[2] ** 2
                          - y0[3] ** 2, 1e-300))
    ref = push_lorentz(field, ens.x[0], y0, span, icfg)
    taus, hist = transport_ensemble(field, ens, span, icfg)

    def moments_along(tau):
        return history_at(taus, hist, tau).moments()

    rep = averaged_offset(field, ref, moments_along, span,
                          n_grid=cfg.get("n_grid", 201))
    check_finite("beamline", rep.off1, rep.off3)
    rows = np.column_stack([rep.s, rep.off1, rep.off3])
    write_csv(os.path.join(out_dir, "offset.csv"),
              ["tau", "off1", "off3"], rows)
    emit_plot_data({"offset_off1": (rep.s, rep.off1),
                    "offset_off3": (rep.s, rep.off3)}, out_dir,
                   {"offset_off1": ("tau", "off1"),
                    "offset_off3": ("tau", "off3")})
    return {
        "command": "offset", "mode": cfg.get("mode", "frozen"),
        "alpha": ens.alpha(),
        "max_offset": float(np.max(np.abs(rows[:, 1:]))),
        "final_off1": float(rep.off1[-1]), "final_off3": float(rep.off3[-1]),
    }, []


def run_validity(cfg, out_dir, seed):
    rep = validity_horizon(cfg["E0"], cfg["alpha"], cfg["f_norm"],
                           cfg["beam_length"], cfg.get("constants"))
    summary = {
        "command": "validity",
        "t_max_position": rep.t_max_position,
        "t_max_velocity": rep.t_max_velocity,
        "l_max": rep.l_max, "weak_field": rep.weak_flag,
        "constants": rep.constants,
    }
    failures = []
    want = cfg.get("assert", {})
    if "t_max_velocity" in want:
        tol = want.get("rel_tol", 1e-12)
        if abs(rep.t_max_velocity - want["t_max_velocity"]) \
                > tol * abs(want["t_max_velocity"]):
            failures.append("t_max_velocity")
    return summary, failures


RUNNERS = {
    "simulate": run_simulate,
    "ensemble": run_ensemble,
    "compare": run_compare,
    "sweep": run_sweep,
    "fluid-check": run_fluid_check,
    "beamline": run_beamline,
    "offset": run_offset,
    "validity": run_validity,
}


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------

def _execute(command, config, out, seed, dry_run):
    try:
        cfg = load_config(config, command)
    except SchemaViolation as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)
    plan = {"command": command, "config": cfg, "out": out,
            "seed": seed, "version": __version__}
    if dry_run:
        click.echo(json.dumps(_jsonable(plan), sort_keys=True, indent=2))
        sys.exit(EXIT_OK)
    os.makedirs(out, exist_ok=True)
    try:
        summary, failures = RUNNERS[command](cfg, out, seed)
    except SchemaViolation as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)
    except NumericFailure as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        click.echo(f"numeric failure in module computation: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    summary["assertion_failures"] = sorted(failures)
    summary["ok"] = not failures
    path = write_summary(out, summary)
    click.echo(path)
    if failures:
        click.echo("failed assertions: " + ", ".join(sorted(failures)),
                   err=True)
        sys.exit(EXIT_NUMERIC)
    sys.exit(EXIT_OK)


def _common(fn):
    fn = click.option("--dry-run", is_flag=True,
                      help="Print the resolved experiment plan and exit.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the ensemble seed.")(fn)
    fn = click.option("--out", type=click.Path(), default="out",
                      show_default=True, help="Output directory.")(fn)
    fn = click.option("--config", "config", type=click.Path(exists=False),
                      required=True, help="YAML experiment configuration.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Relativistic beam-dynamics experiments with averaged connections."""


def _register(command):
    @main.command(name=command,
                  help=f"Run the {command} experiment from a config file.")
    @_common
    def _cmd(config, out, seed, dry_run, _command=command):
        _execute(_command, config, out, seed, dry_run)
    return _cmd


for _name in RUNNERS:
    _register(_name)


if __name__ == "__main__":
    main()
