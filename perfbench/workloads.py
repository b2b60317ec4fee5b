"""The benchmark's four workloads.

Each workload is a fixed list of operations (one round), built from the
seed in ``__init__``.  Operations call ``avbeam`` through its module
attributes, the way its own modules call each other, so that the traced run
sees every call.  ``check`` compares the first round's outputs with
``refs`` or with properties the method must have; ``fingerprint`` lets the
runner confirm that every later round reproduced the first exactly.
``known_failures`` names the operations that fail in every round because of
a known fault of the program; any other failed operation fails the run.

Sizes are the acceptance gate's, scaled so that one round takes a few
seconds on a 2-core box; README.md lists each deviation from the gate.
"""

import contextlib
import io
import json
import os

import numpy as np
import yaml

from avbeam import (analysis, beamline, cli, connections, distribution,
                    dynamics, fields, fluid)

from . import refs

ALPHAS = (0.005, 0.01, 0.02, 0.04)
ENERGIES = (5.0, 10.0, 20.0, 40.0)


def dipole_cap(n, energy=10.0, alpha=0.02, seed=11):
    """The gate's benchmark bunch: transverse cap of diameter ~alpha at E."""
    return distribution.rapidity_cap(
        n, r0=float(np.arccosh(energy)), r_cap=alpha / 2.0, seed=seed,
        axis=1, aspect=(0.0, 1.0, 1.0))


def run_cli(command, config, out_dir):
    """Run an ``avbeam`` subcommand in-process; return its summary."""
    code = 0
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main([command, "--config", config, "--out", out_dir],
                     standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"avbeam {command} exited with code {code}")
    with open(os.path.join(out_dir, "summary.json")) as f:
        return json.load(f)


def write_config(path, doc):
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=True)
    return path


class Checks:
    """Collects failed checks as messages."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok, message):
        if not bool(ok):
            self.failures.append(message)


def _budget_check(check, label, rep, bunch, F):
    """Separations under the budget recomputed from alpha, E and |F|."""
    alpha = refs.brute_alpha(bunch.y)
    energy = float(np.min(bunch.y[:, 0]))
    pos_b, vel_b = refs.separation_budget(alpha, energy, refs.field_norm(F),
                                          rep.times)
    check(abs(rep.alpha - alpha) <= 1e-6 * alpha,
          f"{label}: alpha {rep.alpha!r} != brute-force {alpha!r}")
    check(np.all(rep.pos_sep <= pos_b),
          f"{label}: position separation above the recomputed budget")
    check(np.all(rep.vel_sep <= vel_b),
          f"{label}: velocity separation above the recomputed budget")


#: The twin sweep's convex-hull operation: alpha of a fixed bunch of more
#: than 3000 distinct samples, the size at which ``diameter_alpha`` takes its
#: convex-hull path.  Its input does not depend on the seed.  On it the path
#: keeps 28 of the 4500 samples and returns 0.0074 against the exact 0.0397
#: (a FOUND line in CHANGES.md), so the operation fails in every round.
HULL_OP = "alpha n=4500"
HULL_BUNCH = {"n": 4500, "energy": 10.0, "alpha": 0.04, "seed": 11}


class TwinSweep:
    """alpha, E and t sweeps of the twin comparison on the dipole benchmark."""

    name = "twin-sweep"
    known_failures = frozenset({HULL_OP})

    def __init__(self, seed, out_dir, n=3000, t_end=2.5):
        self.field = fields.make_preset("normal-dipole", b0=1.0)
        self.cfg = dynamics.IntegratorConfig(step=1e-3)
        self.t_end = t_end
        self.bunches = {f"alpha={a}": dipole_cap(n, alpha=a, seed=seed)
                        for a in ALPHAS}
        self.bunches.update({f"E={e}": dipole_cap(n, energy=e, seed=seed)
                             for e in ENERGIES})
        self.bunches["time"] = self.bunches["E=10.0"]
        # Every bunch of one seed holds the same comoving directions, so one
        # sample index is one initial direction across the sweep.  The
        # default "far" pick can switch samples between sweep points, and
        # the fitted exponents then mix two directions (README.md).
        y = self.bunches["time"].y
        self.start = int(np.argmax(np.linalg.norm(y - y.mean(axis=0), axis=1)))
        self.hull = dipole_cap(**HULL_BUNCH)
        self.hull_floor = refs.alpha_lower_bound(self.hull.y)

    def warm(self, seed):
        return TwinSweep(seed, None, n=64, t_end=0.05)

    def operations(self):
        def compare(key, t_end, n_out):
            bunch = self.bunches[key]
            return lambda _res: analysis.compare_trajectories(
                self.field, bunch, y0=bunch.y[self.start], t_end=t_end,
                n_out=n_out, cfg=self.cfg, warn=False)

        def hull_alpha(_res):
            alpha = self.hull.alpha()
            if alpha < (1.0 - 1e-6) * self.hull_floor:
                raise ValueError(f"diameter_alpha {alpha!r} is below the "
                                 f"distance {self.hull_floor!r} of two of "
                                 f"the bunch's samples")
            return alpha

        ops = [(k, compare(k, self.t_end, 11)) for k in self.bunches
               if k != "time"]
        ops.append(("time", compare("time", 2.0 * self.t_end, 41)))
        ops.append((HULL_OP, hull_alpha))
        return ops

    def fingerprint(self, res):
        return {k: r if k == HULL_OP else (r.alpha, r.pos_sep[-1],
                                            r.vel_sep[-1])
                for k, r in res.items()}

    def check(self, res):
        check = Checks()
        if HULL_OP in res:
            exact = refs.brute_alpha(self.hull.y)
            check(abs(res[HULL_OP] - exact) <= 1e-6 * exact,
                  f"{HULL_OP}: {res[HULL_OP]!r} != brute-force {exact!r}")
        res = {k: r for k, r in res.items() if k != HULL_OP}
        F = self.field.lowered(np.zeros(4))
        for key, rep in res.items():
            _budget_check(check, key, rep, self.bunches[key], F)
        T = self.t_end
        sweeps = {
            "alpha": [(res[f"alpha={a}"].alpha, f"alpha={a}") for a in ALPHAS],
            "E": [(res[f"E={e}"].energy, f"E={e}") for e in ENERGIES],
        }
        slopes = {}
        for param, pts in sweeps.items():
            for kind in ("pos", "vel"):
                slopes[(param, kind)] = refs.loglog_slope(
                    [(x, getattr(res[k], f"{kind}_sep")[-1]) for x, k in pts])
        rt = res["time"]
        for kind in ("pos", "vel"):
            sep = getattr(rt, f"{kind}_sep")
            idx = [int(np.argmin(np.abs(rt.times - t)))
                   for t in (T / 4, T / 2, T, 2 * T)]
            slopes[("t", kind)] = refs.loglog_slope(
                [(rt.times[i], sep[i]) for i in idx])
        # the on-shell gap is exactly O(alpha^3) (CHANGES.md decision log)
        windows = {("alpha", "pos"): (2.8, 3.2), ("E", "pos"): (-2.4, -1.6),
                   ("t", "pos"): (1.7, 2.3), ("t", "vel"): (0.8, 1.2),
                   ("E", "vel"): (-1.4, -0.6)}
        for key, (lo, hi) in windows.items():
            slope, r2 = slopes[key]
            check(lo <= slope <= hi and r2 >= 0.98,
                  f"{key} slope {slope:.3f} (r2 {r2:.4f}) outside "
                  f"[{lo}, {hi}]")
        drift = max(r.diagnostics["norm_drift_averaged"] for r in res.values())
        return check.failures, {"norm_drift_averaged": drift}


class LongOrbit:
    """Long single-orbit twin runs where alpha is negligible."""

    name = "long-orbit"
    known_failures = frozenset()

    def __init__(self, seed, out_dir, t_point=5.0, t_cap=300.0, n_cap=2000):
        self.dipole = fields.make_preset("normal-dipole", b0=1.0)
        self.const_b = fields.make_preset("constant-B", b=1.0)
        self.point = distribution.delta_ensemble(
            v=(float(np.sqrt(24.0)), 0.0, 0.0), n=4)
        self.cap = dipole_cap(n_cap, energy=40.0, alpha=0.02, seed=seed)
        self.t_point, self.t_cap = t_point, t_cap
        self.gamma = 5.0
        self.y_gyro = np.array([self.gamma, np.sqrt(self.gamma ** 2 - 1.0),
                                0.0, 0.0])

    def warm(self, seed):
        return LongOrbit(seed, None, t_point=0.05, t_cap=0.5, n_cap=64)

    def operations(self):
        return [
            ("point-bunch", lambda _res: analysis.compare_trajectories(
                self.dipole, self.point, t_end=self.t_point, n_out=101,
                cfg=dynamics.IntegratorConfig(step=5e-4))),
            ("cap-E40", lambda _res: analysis.compare_trajectories(
                self.dipole, self.cap, t_end=self.t_cap,
                cfg=dynamics.IntegratorConfig(step=5e-3))),
            ("gyromotion", lambda _res: dynamics.push_lorentz(
                self.const_b, np.zeros(4), self.y_gyro, (0.0, 2.0 * np.pi),
                dynamics.IntegratorConfig(step=1e-3))),
        ]

    def fingerprint(self, res):
        return {"point": float(np.max(res["point-bunch"].pos_sep)),
                "cap": tuple(res["cap-E40"].pos_sep[-3:]),
                "gyro": tuple(res["gyromotion"].x[-1])}

    def check(self, res):
        check = Checks()
        pb = res["point-bunch"]
        check(np.max(pb.pos_sep) < 1e-9 and np.max(pb.vel_sep) < 1e-9,
              f"point-bunch flows differ by {np.max(pb.pos_sep):.3e} "
              f"(position), {np.max(pb.vel_sep):.3e} (velocity)")
        cap = res["cap-E40"]
        F = self.dipole.lowered(np.zeros(4))
        check(np.all(np.isfinite(cap.pos_sep)) and
              np.all(np.isfinite(cap.vel_sep)), "E=40 run not finite")
        _budget_check(check, "cap-E40", cap, self.cap, F)
        horizon = refs.t_max_position(cap.energy, refs.brute_alpha(self.cap.y),
                                      refs.field_norm(F))
        check(cap.times[-1] < horizon,
              f"E=40 run ends at t={cap.times[-1]} beyond the horizon "
              f"{horizon:.1f}")
        rec = res["gyromotion"]
        r_exact, period = refs.gyration(self.gamma, 1.0)
        center = rec.x[0, 1:3] + np.array([0.0, r_exact])
        radius = np.linalg.norm(rec.x[:, 1:3] - center, axis=1)
        r_err = float(np.max(np.abs(radius - r_exact)) / r_exact)
        p_err = abs(rec.x[-1, 0] - rec.x[0, 0] - period) / period
        check(r_err < 1e-6 and p_err < 1e-6,
              f"gyromotion radius error {r_err:.3e}, period error {p_err:.3e}")
        return check.failures, {
            "gyro_radius_rel_err": r_err,
            "norm_drift_averaged": max(pb.diagnostics["norm_drift_averaged"],
                                       cap.diagnostics["norm_drift_averaged"])}


class FluidClosure:
    """fluid-check through the CLI, the residual alpha sweep, the floor."""

    name = "fluid-closure"
    known_failures = frozenset()

    def __init__(self, seed, out_dir, n=600, taus=(0.02, 0.05, 0.1),
                 tau=0.05, h_tau=5e-4):
        self.field = fields.make_preset("normal-dipole", b0=1.0)
        self.tau, self.h_tau = tau, h_tau
        self.base_dir = out_dir
        self.out_dir = os.path.join(out_dir, "fluid-check")
        os.makedirs(out_dir, exist_ok=True)
        self.config = write_config(os.path.join(out_dir, "fluid-check.yaml"), {
            "field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
            "ensemble": {"generator": "rapidity-cap", "n": n, "seed": seed,
                         "params": {"r0": float(np.arccosh(10.0)),
                                    "r_cap": 0.005, "axis": 1,
                                    "aspect": [0.0, 1.0, 1.0]}},
            "taus": list(taus),
            "assert": {"residual_below_bound": True},
        })
        self.taus = taus
        self.caps = {a: dipole_cap(n, alpha=a, seed=seed) for a in ALPHAS}
        self.point = distribution.delta_ensemble(v=(2.0, 0.5, 0.0), n=4)

    def warm(self, seed):
        return FluidClosure(seed, os.path.join(self.base_dir, "warm"), n=32,
                            taus=(0.002,), tau=0.002)

    def operations(self):
        def residual(a):
            def op(_res):
                ens = self.caps[a]
                rep = fluid.residual(self.field, ens, tau=self.tau,
                                     h_tau=self.h_tau)
                return ens.alpha(), rep.norm(), rep.normalized_norm()
            return op

        ops = [("fluid-check", lambda _res: run_cli(
            "fluid-check", self.config, self.out_dir))]
        ops += [(f"residual alpha={a}", residual(a)) for a in ALPHAS]
        ops += [
            ("point-residual", lambda _res: fluid.residual(
                self.field, self.point, tau=self.tau, h_tau=self.h_tau).norm()),
            ("noise-floor", lambda _res: fluid.noise_floor(
                self.field, self.point, tau=self.tau, h_tau=self.h_tau)),
        ]
        return ops

    def fingerprint(self, res):
        out = {k: v for k, v in res.items() if k != "fluid-check"}
        out["fluid-check"] = json.dumps(res["fluid-check"], sort_keys=True)
        return out

    def check(self, res):
        check = Checks()
        summary = res["fluid-check"]
        check(summary["ok"], f"fluid-check failed: "
                             f"{summary['assertion_failures']}")
        for sl in summary["slices"]:
            check(sl["residual_averaged"] <= sl["bound_total"],
                  f"averaged residual {sl['residual_averaged']:.3e} above "
                  f"the budget {sl['bound_total']:.3e} at tau={sl['tau']}")
        check([sl["tau"] for sl in summary["slices"]] == list(self.taus),
              "fluid-check did not report every tau")
        for a in ALPHAS:
            alpha = res[f"residual alpha={a}"][0]
            exact = refs.brute_alpha(self.caps[a].y)
            check(abs(alpha - exact) <= 1e-6 * exact,
                  f"alpha={a}: {alpha!r} != brute-force {exact!r}")
        for idx, label in ((1, "residual"), (2, "normalized residual")):
            slope, _ = refs.loglog_slope(
                [(res[f"residual alpha={a}"][0], res[f"residual alpha={a}"][idx])
                 for a in ALPHAS])
            check(1.6 <= slope <= 2.4,
                  f"{label} alpha-slope {slope:.3f} outside [1.6, 2.4]")
        floor = res["noise-floor"]
        check(res["point-residual"] < 10.0 * max(floor, 1e-16),
              f"point-bunch residual {res['point-residual']:.3e} not below "
              f"10x the noise floor {floor:.3e}")
        return check.failures, {}


#: Hill presets whose principal and particular solutions the optics round
#: integrates: (preset, params).
HILL_PRESETS = [
    ("dipole", {"rho": 2.0}),
    ("quadrupole", {"b1": 2.0}),
    ("quad45", {"b1": 0.5, "rho": 2.0}),
    ("constant-e", {"e2": 0.8}),
    ("rf", {"gamma": 2.0, "e20": 0.1, "w_rf": 1.0}),
]
OFFSET_CAPS = (0.025, 0.05, 0.1)


class Optics:
    """Jacobi deviation, Hill principal/particular solutions, CLI offsets."""

    name = "optics"
    known_failures = frozenset()

    def __init__(self, seed, out_dir, span=0.1, hill_span=2.0,
                 n_offset=64, offset_tau=1.0):
        self.field = fields.make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
        gamma = 3.0
        self.y0 = np.array([gamma, np.sqrt(gamma ** 2 - 1.0), 0.0, 0.0])
        self.xi0 = np.array([0.0, 0.3, 0.1, 0.2])
        self.dxi0 = np.array([0.0, 0.0, 0.1, -0.2])   # eta(y0, dxi0) = 0
        self.eps = 1e-5
        self.span, self.hill_span = (0.0, span), (0.0, hill_span)
        self.orbit_cfg = dynamics.IntegratorConfig(step=1e-3,
                                                   renormalize=False)
        self.step = dynamics.IntegratorConfig(step=1e-3)
        self.systems = {f"{kind}.{comp}": system
                        for kind, params in HILL_PRESETS
                        for comp, system in sorted(
                            beamline.preset_system(kind, **params).items())}
        self.base_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        field_spec = {"preset": "normal-quad+dipole",
                      "params": {"b0": 1.0, "b1": 0.4}}
        base = {"field": field_spec, "tau_end": offset_tau, "n_grid": 101,
                "integrator": {"step": 1e-2}}
        point = {"generator": "delta", "n": 4,
                 "params": {"v": [float(self.y0[1]), 0.0, 0.0]}}
        self.offsets = {"point": point}
        for r_cap in OFFSET_CAPS:
            self.offsets[f"r_cap={r_cap}"] = {
                "generator": "rapidity-cap", "n": n_offset, "seed": seed,
                "params": {"r0": float(np.arccosh(gamma)), "r_cap": r_cap,
                           "axis": 1}}
        self.configs = {
            key: (write_config(os.path.join(out_dir, f"offset-{key}.yaml"),
                               {**base, "ensemble": ens}),
                  os.path.join(out_dir, f"offset-{key}"))
            for key, ens in self.offsets.items()}

    def warm(self, seed):
        return Optics(seed, os.path.join(self.base_dir, "warm"), span=0.005,
                      hill_span=0.01, n_offset=4, offset_tau=0.02)

    def operations(self):
        def jacobi(xi, dxi):
            return lambda res: beamline.integrate_jacobi(
                connections.LorentzConnection(self.field), res["reference"],
                xi, dxi, self.span, self.step)

        def orbit(sign):
            return lambda _res: dynamics.push_lorentz(
                self.field, sign * self.eps * self.xi0,
                self.y0 + sign * self.eps * self.dxi0, self.span,
                self.orbit_cfg)

        def principal(key):
            return lambda _res: beamline.principal_solutions(
                self.systems[key], self.hill_span, self.step)

        def particular(key):
            def op(res):
                s = self.systems[key]
                forced = beamline.HillSystem(K=s.K, p=1.0, damping=s.damping)
                return beamline.particular_solution(
                    forced, res[f"principal {key}"])
            return op

        def offset(key):
            return lambda _res: run_cli("offset", *self.configs[key])

        def resonant(_res):
            pp = beamline.principal_solutions(beamline.HillSystem(K=1.0),
                                              self.hill_span, self.step)
            return beamline.particular_solution(
                beamline.HillSystem(K=1.0, p=np.cos), pp)

        ops = [
            ("reference", lambda _res: dynamics.push_lorentz(
                self.field, np.zeros(4), self.y0, self.span, self.orbit_cfg)),
            ("jacobi", jacobi(self.xi0, self.dxi0)),
            ("jacobi xi", jacobi(self.xi0, np.zeros(4))),
            ("jacobi dxi", jacobi(np.zeros(4), self.dxi0)),
            ("orbit +eps", orbit(1.0)),
            ("orbit -eps", orbit(-1.0)),
        ]
        ops += [(f"principal {k}", principal(k)) for k in self.systems]
        ops += [(f"particular {k}", particular(k)) for k in self.systems]
        ops.append(("particular resonant", resonant))
        ops += [(f"offset {k}", offset(k)) for k in self.offsets]
        return ops

    def _taus(self):
        return np.linspace(*self.hill_span, 41)

    def fingerprint(self, res):
        taus = self._taus()
        out = {}
        for key, value in res.items():
            if key.startswith("offset"):
                out[key] = json.dumps(value, sort_keys=True)
            elif key.startswith("particular"):
                out[key] = tuple(value(taus))
            elif key.startswith("principal"):
                out[key] = (value.C[-1], value.S[-1])
            elif key.startswith("jacobi"):
                out[key] = tuple(value.xi[-1])
            else:
                out[key] = tuple(value.x[-1])
        return out

    def check(self, res):
        check = Checks()
        for key, system in self.systems.items():
            pp = res[f"principal {key}"]
            K, c = float(system.K), float(system.damping)
            C, S = refs.hill_principal(K, c, pp.s)
            err = max(np.max(np.abs(pp.C - C)), np.max(np.abs(pp.S - S)))
            check(err < 1e-6, f"{key}: principal pair off the closed form "
                              f"by {err:.3e}")
            werr = np.max(np.abs(pp.wronskian() - refs.hill_wronskian(c, pp.s)))
            check(werr < 1e-9, f"{key}: Wronskian off by {werr:.3e}")
            taus = self._taus()
            perr = np.max(np.abs(res[f"particular {key}"](taus)
                                 - refs.hill_unit_response(K, c, taus)))
            check(perr < 1e-6, f"{key}: particular solution off by "
                               f"{perr:.3e}")
        taus = self._taus()
        perr = np.max(np.abs(res["particular resonant"](taus)
                             - 0.5 * taus * np.sin(taus)))
        check(perr < 1e-6, f"resonant particular solution off by {perr:.3e}")

        rec = res["jacobi"]
        fd = (res["orbit +eps"].x[-1] - res["orbit -eps"].x[-1]) \
            / (2.0 * self.eps)
        fd_err = float(np.max(np.abs(rec.xi[-1] - fd)) / np.max(np.abs(fd)))
        check(fd_err < 1e-3, f"Jacobi vs orbit variation: {fd_err:.3e}")
        sup = np.max(np.abs(rec.xi - res["jacobi xi"].xi - res["jacobi dxi"].xi))
        check(sup < 1e-8, f"Jacobi superposition off by {sup:.3e}")

        check(res["offset point"]["max_offset"] < 1e-12,
              f"on-orbit point-bunch offset "
              f"{res['offset point']['max_offset']:.3e}")
        caps = [res[f"offset r_cap={r}"] for r in OFFSET_CAPS]
        ends = [abs(s["final_off1"]) + abs(s["final_off3"]) for s in caps]
        alphas = [s["alpha"] for s in caps]
        check(alphas[0] < alphas[1] < alphas[2] and 0.0 < ends[0] < ends[1]
              < ends[2], f"offset does not grow with alpha: {alphas} {ends}")
        return check.failures, {"jacobi_fd_rel_err": fd_err}


WORKLOADS = {w.name: w for w in (TwinSweep, LongOrbit, FluidClosure, Optics)}
