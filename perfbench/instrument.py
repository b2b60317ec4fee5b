"""Which public functions the traced run wraps, and the per-layer metrics.

Every wrapped name is a call into one module of ``avbeam``; the span names
below are the layer names the metrics use.  ``geometry`` is not wrapped: its
functions are leaf calls of a few microseconds, so a wrapper would cost as
much as the call, and their time shows in the callers' self time.

Times named ``*_self_s`` are self times; every other ``*_s`` is the
inclusive time of the outermost spans of that name.  All per-layer figures
are per round of the workload, except ``distribution.generate_s`` (per
set-up) and the accuracy figures, which the workload's checks compute.
"""

import os
import sys

import scipy.linalg

from avbeam import (analysis, beamline, cli, connections, distribution,
                    dynamics, fields, fluid)


def _steps(result, _args, _kwargs):
    return {"steps": result.stats["steps"]}


def _particle_steps(result, args, kwargs):
    ens, span = args[1], args[2]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    step = cfg.step if cfg is not None else dynamics.IntegratorConfig().step
    nsteps = max(1, int(round((span[1] - span[0]) / step)))
    return {"particle_steps": len(ens) * nsteps}


def _jacobi_steps(result, _args, _kwargs):
    return {"steps": len(result.s) - 1}


def _excluded(result, _args, _kwargs):
    return {"excluded": result.excluded}


def _bytes_at(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _written(result, args, _kwargs):
    if isinstance(result, list):            # emit_plot_data -> paths
        return {"bytes": sum(_bytes_at(p) for p in result)}
    if isinstance(result, str):             # write_summary -> path
        return {"bytes": _bytes_at(result)}
    return {"bytes": _bytes_at(args[0])}    # write_csv(path, ...)


def install(tracer):
    """Wrap every traced name; tracer.restore() undoes it."""
    sites = [m for k, m in sorted(sys.modules.items())
             if k == "avbeam" or k.startswith("avbeam.")]
    fn = tracer.wrap_function
    fn(distribution, "diameter_alpha", "distribution.alpha", sites,
       faults=True)
    for gen in ("rapidity_cap", "gaussian_cap", "delta_ensemble"):
        fn(distribution, gen, "distribution.generate", sites,
           dicts=[distribution.GENERATORS])
    tracer.wrap_method(distribution.MomentSet, "from_samples",
                       "distribution.moments")
    tracer.wrap_method(fields.FaradayField, "mixed", "fields.mixed")
    fn(connections, "averaged_table", "connections.averaged_table", sites)
    tracer.wrap_method(connections.LorentzConnection, "coeffs",
                       "connections.lorentz_coeffs")
    fn(dynamics, "push_lorentz", "dynamics.push_lorentz", sites,
       hook=_steps)
    fn(dynamics, "push_averaged_transported", "dynamics.push_averaged",
       sites, hook=_steps)
    tracer.wrap_method(dynamics.TransportedMoments, "rotation",
                       "dynamics.rotation")
    fn(scipy.linalg, "expm", "dynamics.expm")
    fn(dynamics, "transport_ensemble", "dynamics.transport", sites,
       hook=_particle_steps)
    fn(dynamics, "transport_ensemble_averaged", "dynamics.transport_averaged",
       sites, hook=_particle_steps)
    fn(dynamics, "to_lab_time", "dynamics.to_lab_time", sites)
    tracer.wrap_method(dynamics.TrajectoryRecord, "state",
                       "dynamics.record_state")
    fn(analysis, "compare_trajectories", "analysis.compare", sites)
    fn(fluid, "residual", "fluid.residual", sites)
    fn(fluid, "mean_field", "fluid.mean_field", sites)
    fn(fluid, "bound_rhs", "fluid.bound", sites, hook=_excluded)
    fn(beamline, "integrate_jacobi", "beamline.jacobi", sites,
       hook=_jacobi_steps)
    fn(beamline, "principal_solutions", "beamline.principal", sites)
    fn(beamline, "particular_solution", "beamline.particular", sites)
    fn(beamline, "averaged_offset", "beamline.offset", sites)
    fn(cli, "load_config", "cli.config", sites)
    for writer in ("write_csv", "write_summary", "emit_plot_data"):
        fn(cli, writer, "cli.write", sites, hook=_written)


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("distribution.alpha_calls", "count", "lower"),
    ("distribution.alpha_s", "s", "lower"),
    ("distribution.alpha_minflt", "count", "lower"),
    ("distribution.moments_calls", "count", "lower"),
    ("distribution.moments_s", "s", "lower"),
    ("distribution.generate_s", "s", "lower"),
    ("fields.mixed_calls", "count", "lower"),
    ("fields.mixed_s", "s", "lower"),
    ("connections.averaged_table_calls", "count", "lower"),
    ("connections.averaged_table_s", "s", "lower"),
    ("connections.lorentz_coeffs_calls", "count", "lower"),
    ("connections.lorentz_coeffs_s", "s", "lower"),
    ("dynamics.push_lorentz_s", "s", "lower"),
    ("dynamics.lorentz_step_us", "us", "lower"),
    ("dynamics.push_averaged_s", "s", "lower"),
    ("dynamics.averaged_step_us", "us", "lower"),
    ("dynamics.rotation_calls", "count", "lower"),
    ("dynamics.expm_calls", "count", "lower"),
    ("dynamics.rotation_cache_hit_ratio", "ratio", "higher"),
    ("dynamics.transport_s", "s", "lower"),
    ("dynamics.transport_particle_step_us", "us", "lower"),
    ("dynamics.transport_averaged_s", "s", "lower"),
    ("dynamics.transport_averaged_particle_step_us", "us", "lower"),
    ("dynamics.to_lab_time_s", "s", "lower"),
    ("dynamics.record_state_calls", "count", "lower"),
    ("dynamics.record_state_s", "s", "lower"),
    ("analysis.compare_calls", "count", "lower"),
    ("analysis.compare_self_s", "s", "lower"),
    ("analysis.horizon_retries", "count", "lower"),
    ("fluid.residual_self_s", "s", "lower"),
    ("fluid.mean_field_s", "s", "lower"),
    ("fluid.bound_self_s", "s", "lower"),
    ("fluid.excluded_cells", "count", "lower"),
    ("beamline.jacobi_s", "s", "lower"),
    ("beamline.jacobi_step_us", "us", "lower"),
    ("beamline.principal_s", "s", "lower"),
    ("beamline.particular_s", "s", "lower"),
    ("beamline.offset_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("dynamics.gyro_radius_rel_err", "rel", "lower"),
    ("beamline.jacobi_fd_rel_err", "rel", "lower"),
    ("analysis.norm_drift_averaged", "rel", "lower"),
    ("trace.wall_s", "s", "lower"),
]


def _per(value, rounds):
    """Per-round figure; whole counts stay integers when they divide."""
    if isinstance(value, int) and value % rounds == 0:
        return value // rounds
    return value / rounds


def layer_metrics(tracer, rounds, generate_s, accuracy, traced_wall_s):
    """Per-layer values from the tracer's aggregates over `rounds` rounds."""
    calls, total, self_t = tracer.calls, tracer.total, tracer.self_time
    ctr = tracer.counters

    def per_step(name, counter):
        n = ctr[counter]
        return 1e6 * total[name] / n if n else 0.0

    rot, expm = calls["dynamics.rotation"], calls["dynamics.expm"]
    retries = (tracer.pairs[("analysis.compare", "dynamics.push_lorentz")]
               - calls["analysis.compare"])
    raw = {
        "distribution.alpha_calls": calls["distribution.alpha"],
        "distribution.alpha_s": total["distribution.alpha"],
        "distribution.alpha_minflt": int(ctr["distribution.alpha.minflt"]),
        "distribution.moments_calls": calls["distribution.moments"],
        "distribution.moments_s": total["distribution.moments"],
        "fields.mixed_calls": calls["fields.mixed"],
        "fields.mixed_s": total["fields.mixed"],
        "connections.averaged_table_calls": calls["connections.averaged_table"],
        "connections.averaged_table_s": total["connections.averaged_table"],
        "connections.lorentz_coeffs_calls": calls["connections.lorentz_coeffs"],
        "connections.lorentz_coeffs_s": total["connections.lorentz_coeffs"],
        "dynamics.push_lorentz_s": total["dynamics.push_lorentz"],
        "dynamics.push_averaged_s": total["dynamics.push_averaged"],
        "dynamics.rotation_calls": rot,
        "dynamics.expm_calls": expm,
        "dynamics.transport_s": total["dynamics.transport"],
        "dynamics.transport_averaged_s": total["dynamics.transport_averaged"],
        "dynamics.to_lab_time_s": total["dynamics.to_lab_time"],
        "dynamics.record_state_calls": calls["dynamics.record_state"],
        "dynamics.record_state_s": total["dynamics.record_state"],
        "analysis.compare_calls": calls["analysis.compare"],
        "analysis.compare_self_s": self_t["analysis.compare"],
        "analysis.horizon_retries": retries,
        "fluid.residual_self_s": self_t["fluid.residual"],
        "fluid.mean_field_s": total["fluid.mean_field"],
        "fluid.bound_self_s": self_t["fluid.bound"],
        "fluid.excluded_cells": int(ctr["fluid.bound.excluded"]),
        "beamline.jacobi_s": total["beamline.jacobi"],
        "beamline.principal_s": total["beamline.principal"],
        "beamline.particular_s": total["beamline.particular"],
        "beamline.offset_s": total["beamline.offset"],
        "cli.config_s": total["cli.config"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": int(ctr["cli.write.bytes"]),
    }
    values = {k: _per(v, rounds) for k, v in raw.items()}
    values.update({
        "distribution.generate_s": generate_s,
        "dynamics.lorentz_step_us": per_step("dynamics.push_lorentz",
                                             "dynamics.push_lorentz.steps"),
        "dynamics.averaged_step_us": per_step(
            "dynamics.push_averaged", "dynamics.push_averaged.steps"),
        "dynamics.rotation_cache_hit_ratio": (rot - expm) / rot if rot else 0.0,
        "dynamics.transport_particle_step_us": per_step(
            "dynamics.transport", "dynamics.transport.particle_steps"),
        "dynamics.transport_averaged_particle_step_us": per_step(
            "dynamics.transport_averaged",
            "dynamics.transport_averaged.particle_steps"),
        "beamline.jacobi_step_us": per_step("beamline.jacobi",
                                            "beamline.jacobi.steps"),
        "dynamics.gyro_radius_rel_err": accuracy.get("gyro_radius_rel_err", 0.0),
        "beamline.jacobi_fd_rel_err": accuracy.get("jacobi_fd_rel_err", 0.0),
        "analysis.norm_drift_averaged": accuracy.get("norm_drift_averaged", 0.0),
        "trace.wall_s": traced_wall_s,
    })
    return {name: {"value": values[name] if unit in ("count", "B")
                   else float(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER}
