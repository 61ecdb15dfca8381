"""Benchmark workloads: inputs made from a seed, the timed call, and its checks.

Each workload is built inside the child process (``child.py``). Building
the inputs is set-up; ``call`` is the timed region; ``check`` runs after
the clock has stopped and returns a list of failure messages (empty when
every output is correct) plus a sha256 digest of the outputs.

Sizes: ``full`` is the measured size; ``tiny`` is a smoke-test size used
by the benchmark's own tests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from contextlib import redirect_stdout
from pathlib import Path

IDENTITY_TOL = 1e-9  # identities hold to this absolute tolerance (README, criteria 1-3)
CONTROL_MIN = 1e-3  # the frozen-bond control must show at least this much defect

_CLI = {
    # workload: (command, config keys at full size, overrides at tiny size)
    "martingale-100k": (
        "martingale",
        {"mu": "0.1", "sigma": "0.2", "r": "0.05", "base_steps": "64", "n_paths": "100000"},
        {"base_steps": "16", "n_paths": "500"},
    ),
    "verify-fine": (
        "verify",
        {"n_paths": "2000", "refinement_factors": "1,16,64"},
        {"base_steps": "8", "n_paths": "10"},
    ),
    "simulate-csv": ("simulate", {"n_paths": "10000"}, {"n_paths": "20"}),
}

_LEDGER_SIZE = {"full": (3000, 1024), "tiny": (20, 64)}  # (paths, steps)

NAMES = (*_CLI, "ledger-single")


def config_text(name: str, seed: int, size: str) -> str:
    """The flat key = value config the CLI workload receives."""
    _, keys, tiny = _CLI[name]
    keys = {**keys, **(tiny if size == "tiny" else {}), "seed": str(seed)}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def build(name: str, seed: int, size: str, out_dir: Path, inject_failure: bool = False):
    """Make the workload's inputs; the returned object is ready to call."""
    if name in _CLI:
        return CliWorkload(name, seed, size, out_dir, inject_failure)
    if name == "ledger-single":
        return LedgerWorkload(seed, size, inject_failure)
    raise ValueError(f"unknown workload {name!r}")


def _sha256_dir(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CliWorkload:
    """One `hedgelab <command>` run through `hedgelab.cli.run`."""

    def __init__(self, name, seed, size, out_dir, inject_failure):
        import hedgelab.cli

        self.command, _, _ = _CLI[name]
        self.cfg = hedgelab.cli.parse_config(config_text(name, seed, size))
        self.out_dir = Path(out_dir)
        self.inject_failure = inject_failure
        steps = self.cfg.base_steps * (sum(self.cfg.refinement_factors) if self.command == "verify" else 1)
        self.path_steps = self.cfg.n_paths * steps
        self.exit_code = None

    def call(self):
        import hedgelab.cli

        with redirect_stdout(io.StringIO()):  # stdout carries the child's protocol
            self.exit_code = hedgelab.cli.run(self.command, self.cfg, self.out_dir)

    def check(self):
        """Return (failures, digest, counters) for the finished call."""
        failures = []
        if self.exit_code != 0:
            failures.append(f"exit code {self.exit_code}, expected 0")
        csvs = sorted(self.out_dir.glob("*.csv"))
        counters = {
            "cli.bytes_written": sum(p.stat().st_size for p in self.out_dir.iterdir()),
            "cli.rows_written": sum(_count_lines(p) - 1 for p in csvs),
        }
        if self.command == "simulate":
            failures += self._check_simulate()
        else:
            failures += self._check_statuses()
        if self.inject_failure:
            failures.append("injected failure (self-test)")
        return failures, _sha256_dir(self.out_dir), counters

    def _check_statuses(self):
        name = "martingale" if self.command == "martingale" else "defect_refinement"
        rows = _read_rows(self.out_dir / f"{name}.csv")
        if self.command == "martingale":
            # default roster: buy-and-hold, constant-mix, delta-hedge, cash-injection control
            expected = ["pass", "pass", "pass", "expected-fail"]
        else:
            expected = ["pass", "expected-fail"] * len(self.cfg.refinement_factors)
        got = [row["verdict"] for row in rows]
        return [] if got == expected else [f"{name} statuses {got}, expected {expected}"]

    def _check_simulate(self):
        failures = []
        rows = _count_lines(self.out_dir / "paths.csv") - 1
        expected = self.cfg.n_paths * (self.cfg.base_steps + 1)
        if rows != expected:
            failures.append(f"paths.csv has {rows} rows, expected {expected}")
        ledger = _read_rows(self.out_dir / "ledger_path0.csv")
        worst = max(abs(float(row["D"])) for row in ledger)
        if not worst <= IDENTITY_TOL:
            failures.append(f"ledger_path0.csv max |D| = {worst:.3e} > {IDENTITY_TOL:g}")
        return failures


class LedgerWorkload:
    """Library loop: audit every path through the single-path API.

    Per path: gbm_path(generate_brownian(...)), delta_hedge,
    self_financing_defect, ito_expansion_terms and the frozen-bond
    control's defect, with the identities checked at IDENTITY_TOL. The
    functions are looked up on their modules at call time so the traced
    run's wrappers see these calls.
    """

    def __init__(self, seed, size, inject_failure):
        from hedgelab import paths, strategies

        self.n_paths, steps = _LEDGER_SIZE[size]
        self.seed = seed
        self.params = paths.GbmParams(s0=100.0, mu=0.05, sigma=0.2, r=0.05)
        self.grid = paths.uniform_grid(1.0, steps)
        self.option = strategies.EuropeanCall(strike=100.0, expiry=1.0)
        self.path_steps = self.n_paths * steps
        self.inject_failure = inject_failure
        self.path_s = []
        self.failures = []
        self.digest = None

    def call(self):
        import numpy as np
        from hedgelab import ledger, paths, strategies

        digest = hashlib.sha256()
        path_s = []
        failures = []
        clock = time.perf_counter
        for i in range(self.n_paths):
            t0 = clock()
            mp = paths.gbm_path(self.params, paths.generate_brownian(self.grid, self.seed, i), "physical")
            hedge = strategies.delta_hedge(self.option, mp, self.params.sigma)
            report = ledger.self_financing_defect(hedge, mp)
            terms = ledger.ito_expansion_terms(hedge, mp)
            control = ledger.self_financing_defect(strategies.broken_strategy(hedge, "frozen_bond"), mp)
            product_rule = float(np.max(np.abs(report.defect - sum(t.values for t in terms))))
            enforced = float(np.max(np.abs(report.defect)))
            frozen = float(np.max(np.abs(control.defect)))
            path_s.append(clock() - t0)
            if not (product_rule <= IDENTITY_TOL and enforced <= IDENTITY_TOL and frozen > CONTROL_MIN):
                failures.append(
                    f"path {i}: max|D - sum(terms)| = {product_rule:.3e}, "
                    f"enforced |D| = {enforced:.3e}, control |D| = {frozen:.3e}"
                )
            digest.update(report.defect.tobytes())
            digest.update(control.defect.tobytes())
        self.path_s = path_s
        self.failures = failures
        self.digest = digest.hexdigest()

    def check(self):
        failures = list(self.failures[:5])
        if len(self.failures) > 5:
            failures.append(f"... and {len(self.failures) - 5} more paths")
        if self.inject_failure:
            failures.append("injected failure (self-test)")
        return failures, self.digest, {"cli.bytes_written": 0, "cli.rows_written": 0}
