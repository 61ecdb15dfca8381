"""A deterministic guard on the fixed cost of the single-path API.

One path audit (the calls of perfbench's ledger-single workload) runs under
sys.setprofile, which sees every Python-level call. Counting calls is
immune to host timing noise, and the numpy wrappers it forbids are where
the fixed cost of a call used to go: np.all, np.any, np.diff and friends
each add a Python frame and argument handling to a few-microsecond kernel.
"""

import sys
from pathlib import Path

import numpy as np

import hedgelab
from hedgelab import ledger, paths, strategies

HEDGELAB = str(Path(hedgelab.__file__).parent)
NUMPY_WRAPPERS = ("fromnumeric.py", "_function_base_impl.py")
# Python frames inside hedgelab for one 64-step audit: 118 when this guard
# was set, plus 10 %.
MAX_HEDGELAB_FRAMES = 129


def _audit(grid, params, option, i):
    mp = paths.gbm_path(params, paths.generate_brownian(grid, 3, i), "physical")
    hedge = strategies.delta_hedge(option, mp, params.sigma)
    report = ledger.self_financing_defect(hedge, mp)
    terms = ledger.ito_expansion_terms(hedge, mp)
    control = ledger.self_financing_defect(strategies.broken_strategy(hedge, "frozen_bond"), mp)
    return report, terms, control


def test_one_path_audit_calls_no_numpy_wrapper_and_few_python_frames():
    params = paths.GbmParams(s0=100.0, mu=0.05, sigma=0.2, r=0.05)
    grid = paths.uniform_grid(1.0, 64)
    option = strategies.EuropeanCall(strike=100.0, expiry=1.0)
    _audit(grid, params, option, 0)  # the grid computes what it keeps on the first path
    called = []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        report, terms, control = _audit(grid, params, option, 1)
    finally:
        sys.setprofile(None)
    assert [f for f in called if Path(f).name in NUMPY_WRAPPERS] == []
    inside = sum(f.startswith(HEDGELAB) for f in called)
    assert inside <= MAX_HEDGELAB_FRAMES
    # The audited path is a real one: the workload's identities hold on it.
    assert np.max(np.abs(report.defect - sum(t.values for t in terms))) <= 1e-9
    assert np.max(np.abs(report.defect)) <= 1e-9
    assert np.max(np.abs(control.defect)) > 1e-3
