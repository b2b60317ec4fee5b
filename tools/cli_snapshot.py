"""Run every avbeam command on a fixed set of small configs; keep the outputs.

    python3 tools/cli_snapshot.py OUT_DIR

Each config in CONFIGS runs as ``python -m avbeam.cli COMMAND`` on the
``src/`` tree next to this script, with OPENBLAS_NUM_THREADS=1, and writes
its outputs and its config to OUT_DIR/NAME/.  OUT_DIR/exit_codes.json maps
every NAME to the command's exit code.  Snapshots of two trees, for example
a change and its parent, compare with ``diff -r``; with the same numpy and
scipy every output is reproducible to the byte.  The set takes about 12 s
on a 2-core machine.
"""

import json
import os
import subprocess
import sys

import yaml

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

DIPOLE = {"preset": "normal-dipole", "params": {"b0": 1.0}}
QUAD_DIPOLE = {"preset": "normal-quad+dipole", "params": {"b0": 1.0, "b1": 0.4}}
#: Transverse cap at E = 10, the construction of the dipole benchmark.
CAP_E10 = {"generator": "rapidity-cap", "n": 200, "seed": 11,
           "params": {"r0": 2.993222846126381, "r_cap": 0.005, "axis": 1,
                      "aspect": [0.0, 1.0, 1.0]}}
CAP_E10_WIDE = {**CAP_E10, "params": {**CAP_E10["params"], "r_cap": 0.01}}
CAP_SMALL = {"generator": "rapidity-cap", "n": 64, "seed": 7,
             "params": {"r0": 1.0, "r_cap": 0.05, "axis": 1}}
RK45 = {"method": "rk45", "tol": 1e-9}

#: (name, command, config) of every run, in run order.
CONFIGS = [
    ("simulate-constant-b", "simulate",
     {"field": {"preset": "constant-B", "params": {"b": 1.0}},
      "y0": [1.0, 0.0, 0.0], "tau_end": 2.0, "n_out": 21}),
    ("simulate-quad-dipole-tilde", "simulate",
     {"field": QUAD_DIPOLE, "flow": "tilde", "x0": [0.0, 0.1, 0.0, 0.05],
      "y0": [2.0, 0.5, 0.0], "tau_end": 1.0, "n_out": 21}),
    ("simulate-dipole-rk45", "simulate",
     {"field": DIPOLE, "y0": [2.0, 0.0, 0.0], "tau_end": 1.0, "n_out": 21,
      "integrator": RK45}),
    ("ensemble-rapidity-cap", "ensemble", {"ensemble": CAP_SMALL}),
    ("ensemble-gaussian-cap", "ensemble",
     {"ensemble": {"generator": "gaussian-cap", "n": 64, "seed": 4,
                   "params": {"r0": 1.0, "sigma": 0.05}}}),
    ("compare-dipole", "compare",
     {"field": DIPOLE, "ensemble": CAP_E10_WIDE, "t_end": 5.0, "n_out": 21}),
    ("compare-dipole-rk45", "compare",
     {"field": DIPOLE, "ensemble": CAP_E10_WIDE, "t_end": 2.0, "n_out": 11,
      "integrator": RK45}),
    ("compare-quad-dipole", "compare",
     {"field": QUAD_DIPOLE, "ensemble": CAP_E10_WIDE, "t_end": 2.0,
      "n_out": 11}),
    ("sweep-alpha", "sweep",
     {"field": DIPOLE, "ensemble": CAP_E10, "parameter": "alpha",
      "values": [0.01, 0.02, 0.04, 0.08], "t_end": 2.0}),
    ("fluid-check-dipole", "fluid-check",
     {"field": DIPOLE, "ensemble": CAP_E10, "taus": [0.02, 0.05]}),
    ("fluid-check-quad-dipole", "fluid-check",
     {"field": QUAD_DIPOLE, "ensemble": {**CAP_E10, "n": 100},
      "taus": [0.05]}),
    ("beamline-quadrupole", "beamline",
     {"system": {"kind": "quadrupole", "params": {"b1": 1.0}},
      "tau_end": 2.0, "n_out": 41}),
    ("beamline-quadrupole-rk45", "beamline",
     {"system": {"kind": "quadrupole", "params": {"b1": 1.0}},
      "tau_end": 2.0, "n_out": 41, "integrator": {"method": "rk45",
                                                  "tol": 1e-10}}),
    ("offset-dipole", "offset",
     {"field": DIPOLE, "ensemble": CAP_E10, "tau_end": 0.5, "n_grid": 51}),
    ("offset-quad-dipole", "offset",
     {"field": QUAD_DIPOLE, "ensemble": CAP_SMALL, "tau_end": 0.2,
      "mode": "frozen", "n_grid": 21}),
    ("validity", "validity",
     {"E0": 10.0, "alpha": 0.02, "f_norm": 1.0, "beam_length": 5.0}),
]


def main(out_dir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(SRC))
    codes = {}
    for name, command, doc in CONFIGS:
        run_dir = os.path.join(out_dir, name)
        os.makedirs(run_dir, exist_ok=True)
        config = os.path.join(run_dir, "config.yaml")
        with open(config, "w") as f:
            yaml.safe_dump(doc, f, sort_keys=True)
        proc = subprocess.run(
            [sys.executable, "-m", "avbeam.cli", command, "--config", config,
             "--out", run_dir], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        codes[name] = proc.returncode
        print(f"{name}: exit {proc.returncode}", flush=True)
        if proc.returncode:
            print(proc.stderr.strip().splitlines()[-1], flush=True)
    with open(os.path.join(out_dir, "exit_codes.json"), "w") as f:
        json.dump(codes, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
