"""The span wrappers: exact call counts on a tiny case, full restore."""

import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

import avbeam  # noqa: E402
from avbeam import analysis, distribution, dynamics, fields  # noqa: E402

from perfbench import instrument, spans  # noqa: E402


def _bindings():
    """Every object a wrapper could replace, by identity."""
    out = {}
    mods = [m for k, m in sys.modules.items()
            if k == "avbeam" or k.startswith("avbeam.")]
    for mod in mods:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith(
                    "avbeam"):
                for attr, raw in vars(value).items():
                    out[(mod.__name__, key, attr)] = raw
    for key, value in distribution.GENERATORS.items():
        out[("GENERATORS", key)] = value
    out[("scipy.linalg", "expm")] = scipy.linalg.expm
    return out


@pytest.fixture()
def tracer():
    before = _bindings()
    t = spans.Tracer()
    instrument.install(t)
    try:
        yield t
    finally:
        t.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_install_wraps_and_restore_puts_every_original_back():
    before = _bindings()
    t = spans.Tracer()
    instrument.install(t)
    try:
        during = _bindings()
        changed = {k for k in before if before[k] is not during[k]}
        # aliases bound by `from ... import` are wrapped too
        assert ("avbeam.analysis", "push_lorentz") in changed
        assert ("avbeam.fluid", "diameter_alpha") in changed
        assert ("avbeam.cli", "compare_trajectories") in changed
        assert ("GENERATORS", "rapidity-cap") in changed
        assert ("scipy.linalg", "expm") in changed
        assert ("avbeam.distribution", "MomentSet", "from_samples") in changed
    finally:
        t.restore()
    after = _bindings()
    assert all(before[k] is after[k] for k in before)


def test_counts_are_exact_on_a_tiny_orbit(tracer):
    field = fields.make_preset("constant-B", b=1.0)
    y0 = np.array([np.sqrt(2.0), 1.0, 0.0, 0.0])
    rec = dynamics.push_lorentz(field, np.zeros(4), y0, (0.0, 0.1),
                                dynamics.IntegratorConfig(step=0.01))
    assert rec.stats["steps"] == 10
    assert tracer.calls["dynamics.push_lorentz"] == 1
    assert tracer.calls["fields.mixed"] == 4 * 10
    assert tracer.pairs[("dynamics.push_lorentz", "fields.mixed")] == 40
    assert tracer.counters["dynamics.push_lorentz.steps"] == 10


def test_counts_are_exact_on_a_tiny_comparison(tracer):
    field = fields.make_preset("normal-dipole", b0=1.0)
    ens = distribution.delta_ensemble(v=(1.0, 0.0, 0.0), n=2)
    cfg = dynamics.IntegratorConfig(step=0.02)
    tau_end = 1.05 * 0.1 / ens.energy() + 10 * cfg.step
    steps = int(round(tau_end / cfg.step))
    analysis.compare_trajectories(field, ens, t_end=0.1, n_out=5, cfg=cfg)
    calls = tracer.calls
    assert calls["distribution.generate"] == 1
    assert calls["analysis.compare"] == 1
    assert calls["distribution.alpha"] == 1
    assert calls["dynamics.push_lorentz"] == 1
    assert calls["dynamics.push_averaged"] == 1
    assert calls["dynamics.to_lab_time"] == 2
    assert calls["connections.averaged_table"] == 4 * steps
    assert calls["dynamics.rotation"] == 4 * steps
    assert tracer.counters["dynamics.push_averaged.steps"] == steps
    metrics = instrument.layer_metrics(tracer, 1, 0.0, {}, 1.0)
    assert metrics["analysis.compare_calls"]["value"] == 1
    assert metrics["analysis.horizon_retries"]["value"] == 0
    assert metrics["connections.averaged_table_calls"]["value"] == 4 * steps
    assert {name for name, _, _ in instrument.PER_LAYER} == set(metrics)


def test_self_time_and_recursion():
    t = spans.Tracer()

    def inner():
        time.sleep(0.002)

    def outer(depth):
        inner_w()
        if depth:
            outer_w(depth - 1)

    inner_w = t.wrapper(inner, "inner")
    outer_w = t.wrapper(outer, "outer")
    outer_w(1)
    assert t.calls == {"outer": 2, "inner": 2}
    # the nested outer span is inside the outermost one: counted once
    assert t.total["outer"] == pytest.approx(
        t.self_time["outer"] + t.total["inner"], abs=1e-9)
    assert t.pairs[("outer", "outer")] == 1
    assert [s[4] for s in t.spans if s[1] == "outer"][-1] is None
