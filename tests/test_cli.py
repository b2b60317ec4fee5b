import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from avbeam.cli import emit_plot_data, main


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def invoke(runner, command, cfg_path, out, *extra):
    return runner.invoke(main, [command, "--config", cfg_path,
                                "--out", str(out), *extra])


VALIDITY_CFG = {"E0": 100.0, "alpha": 0.01, "f_norm": 1.0,
                "beam_length": 1.0, "constants": {"K": 1.0},
                "assert": {"t_max_velocity": 1.0e4, "rel_tol": 1e-9}}


def read_summary(out):
    with open(out / "summary.json") as f:
        return json.load(f)


def test_validity_pass(runner, tmp_path):
    cfg = write_cfg(tmp_path, VALIDITY_CFG)
    res = invoke(runner, "validity", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert s["ok"] is True
    assert s["t_max_velocity"] == pytest.approx(1.0e4)
    assert s["assertion_failures"] == []


def test_validity_failed_assertion_exits_3(runner, tmp_path):
    doc = dict(VALIDITY_CFG)
    doc["assert"] = {"t_max_velocity": 2.0e4, "rel_tol": 1e-9}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "validity", cfg, tmp_path / "out")
    assert res.exit_code == 3
    s = read_summary(tmp_path / "out")   # summary still written
    assert s["ok"] is False
    assert "t_max_velocity" in s["assertion_failures"]


def test_unknown_key_rejected(runner, tmp_path):
    doc = dict(VALIDITY_CFG)
    doc["unexpected_knob"] = 1
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "validity", cfg, tmp_path / "out")
    assert res.exit_code == 2
    assert not (tmp_path / "out").exists()


def test_missing_required_key_rejected(runner, tmp_path):
    cfg = write_cfg(tmp_path, {"E0": 1.0})
    res = invoke(runner, "validity", cfg, tmp_path / "out")
    assert res.exit_code == 2


def test_malformed_yaml_rejected(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("{unclosed: [")
    res = invoke(runner, "validity", str(path), tmp_path / "out")
    assert res.exit_code == 2


def test_dry_run_prints_plan(runner, tmp_path):
    cfg = write_cfg(tmp_path, VALIDITY_CFG)
    res = invoke(runner, "validity", cfg, tmp_path / "out", "--dry-run")
    assert res.exit_code == 0
    plan = json.loads(res.output)
    assert plan["command"] == "validity"
    assert plan["config"]["E0"] == 100.0
    assert not (tmp_path / "out").exists()


SIM_CFG = {"field": {"preset": "constant-B", "params": {"b": 1.0}},
           "y0": [5.0, np.sqrt(24.0).item(), 0.0, 0.0],
           "tau_end": 1.0, "n_out": 21,
           "integrator": {"step": 1e-3}}


def test_simulate_reruns_byte_identical(runner, tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    for d in ("a", "b"):
        res = invoke(runner, "simulate", cfg, tmp_path / d)
        assert res.exit_code == 0, res.output
    for name in ("trajectory.csv", "summary.json", "trajectory_x1_x2.dat"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    rows = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "tau,x0,x1,x2,x3,y0,y1,y2,y3"
    assert len(rows) == 22


def test_simulate_tilde_flow(runner, tmp_path):
    doc = dict(SIM_CFG)
    doc["flow"] = "tilde"
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "simulate", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    assert read_summary(tmp_path / "out")["flow"] == "tilde"


ENS_CFG = {"ensemble": {"generator": "rapidity-cap", "n": 200, "seed": 7,
                        "params": {"r0": 1.0, "r_cap": 0.05}}}


def test_ensemble_deterministic_and_seed_override(runner, tmp_path):
    cfg = write_cfg(tmp_path, ENS_CFG)
    for d in ("a", "b"):
        assert invoke(runner, "ensemble", cfg, tmp_path / d).exit_code == 0
    assert (tmp_path / "a" / "ensemble.csv").read_bytes() \
        == (tmp_path / "b" / "ensemble.csv").read_bytes()
    res = invoke(runner, "ensemble", cfg, tmp_path / "c", "--seed", "8")
    assert res.exit_code == 0
    assert (tmp_path / "a" / "ensemble.csv").read_bytes() \
        != (tmp_path / "c" / "ensemble.csv").read_bytes()
    s = read_summary(tmp_path / "a")
    assert s["n"] == 200 and s["alpha"] > 0


def test_ensemble_missing_seed_rejected(runner, tmp_path):
    doc = {"ensemble": {"generator": "rapidity-cap", "n": 10,
                        "params": {"r0": 1.0, "r_cap": 0.05}}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "ensemble", cfg, tmp_path / "out")
    assert res.exit_code == 2


def test_sweep_summary_and_assertions(runner, tmp_path):
    doc = {"field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
           "ensemble": {"generator": "rapidity-cap", "n": 200, "seed": 11,
                        "params": {"r0": float(np.arccosh(10.0)),
                                   "axis": 1, "aspect": [0.0, 1.0, 1.0]}},
           "parameter": "alpha", "values": [0.005, 0.01, 0.02, 0.04],
           "response": "position", "t_end": 2.0,
           "integrator": {"step": 1e-3},
           "assert": {"slope_min": 1.5, "slope_max": 4.0, "r2_min": 0.9}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "sweep", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert s["parameter"] == "alpha" and len(s["points"]) == 4
    assert 1.5 <= s["slope"] <= 4.0 and s["r2"] >= 0.9
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "sweep_loglog.dat").exists()


def test_sweep_keeps_one_initial_direction(runner, tmp_path):
    """With seed 5 and n = 4500 the per-bunch "far" sample of the E = 40
    bunch points another way than at the other energies, and the fitted
    E-slope mixes two directions (-2.56); one sample index for the whole
    sweep gives -1.99."""
    doc = {"field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
           "ensemble": {"generator": "rapidity-cap", "n": 4500, "seed": 5,
                        "params": {"r_cap": 0.01, "axis": 1,
                                   "aspect": [0.0, 1.0, 1.0]}},
           "parameter": "energy", "values": [5.0, 10.0, 20.0, 40.0],
           "response": "position", "t_end": 2.0,
           "integrator": {"step": 1e-3}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "sweep", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert -2.4 <= s["slope"] <= -1.6, s["slope"]


def test_compare_command(runner, tmp_path):
    doc = {"field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
           "ensemble": {"generator": "rapidity-cap", "n": 100, "seed": 11,
                        "params": {"r0": float(np.arccosh(10.0)),
                                   "r_cap": 0.005, "axis": 1,
                                   "aspect": [0.0, 1.0, 1.0]}},
           "t_end": 2.0, "n_out": 11, "integrator": {"step": 1e-3},
           "assert": {"max_position_separation": 1.0}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "compare", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert s["max_position_separation"] < 1.0
    header = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[0]
    assert header == "t,pos_sep,vel_sep,pos_bound,vel_bound"


def test_fluid_check_command(runner, tmp_path):
    doc = {"field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
           "ensemble": {"generator": "rapidity-cap", "n": 400, "seed": 11,
                        "params": {"r0": float(np.arccosh(10.0)),
                                   "r_cap": 0.005, "axis": 1,
                                   "aspect": [0.0, 1.0, 1.0]}},
           "taus": [0.02], "h_tau": 5.0e-4,
           "assert": {"residual_below_bound": True}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "fluid-check", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    sl = s["slices"][0]
    assert sl["residual_below_bound"] is True
    assert sl["residual_averaged"] <= sl["bound_total"]
    header = (tmp_path / "out" / "fluid.csv").read_text().splitlines()[0]
    assert header == ("t,cell,x0,x1,x2,x3,V0,V1,V2,V3,"
                      "eta_VV,residual_norm,bound_rhs")


def test_beamline_command(runner, tmp_path):
    doc = {"system": {"kind": "quadrupole", "params": {"b1": 1.0}},
           "tau_end": 2.0, "integrator": {"step": 1e-3},
           "assert": {"max_wronskian_drift": 1e-9,
                      "max_closed_form_error": 1e-6}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "beamline", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert set(s["components"]) == {"xi1", "xi3"}
    assert (tmp_path / "out" / "principal_xi1.csv").exists()


def test_offset_command_delta_is_zero(runner, tmp_path):
    doc = {"field": {"preset": "normal-dipole", "params": {"b0": 1.0}},
           "ensemble": {"generator": "delta", "params": {"v": [2.0, 0.0, 0.0]}},
           "tau_end": 0.5, "n_grid": 101, "integrator": {"step": 1e-3}}
    cfg = write_cfg(tmp_path, doc)
    res = invoke(runner, "offset", cfg, tmp_path / "out")
    assert res.exit_code == 0, res.output
    s = read_summary(tmp_path / "out")
    assert s["alpha"] == 0.0
    assert s["max_offset"] < 1e-12


def test_offset_full_mode_rejected(runner, tmp_path):
    """The command never supplies the mean deviation that mode "full" needs,
    so the schema refuses it rather than run it as "frozen"."""
    doc = {"field": {"preset": "normal-quad+dipole",
                     "params": {"b0": 1.0, "b1": 0.4}},
           "ensemble": {"generator": "delta", "params": {"v": [2.0, 0.0, 0.0]}},
           "tau_end": 0.1, "mode": "full"}
    res = invoke(runner, "offset", write_cfg(tmp_path, doc), tmp_path / "out")
    assert res.exit_code == 2
    assert "mode" in res.output
    assert not (tmp_path / "out").exists()
    doc["mode"] = "frozen"
    res = invoke(runner, "offset", write_cfg(tmp_path, doc), tmp_path / "ok")
    assert res.exit_code == 0, res.output


def test_emit_plot_data_empty_series(tmp_path):
    paths = emit_plot_data({"empty": ([], [])}, str(tmp_path),
                           {"empty": ("tau", "value")})
    text = open(paths[0]).read()
    assert text == "# tau value\n"
