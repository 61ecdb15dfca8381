"""Command-line front end.

Configs are flat `key = value` documents ('#' starts a comment). Every key
has a documented default so an empty document is a complete configuration:

    s0 = 100            initial stock price (> 0)
    mu = 0.05           physical drift, per year
    sigma = 0.2         volatility, per sqrt-year (>= 0)
    r = 0.05            risk-free rate, per year
    horizon = 1.0       years (> 0)
    base_steps = 64     intervals on the base grid (>= 1)
    refinement_factors = 1,4,16   strictly increasing integers >= 1
    n_paths = 10000     Monte Carlo paths (>= 1)
    seed = 42           base RNG seed (>= 0)
    strike = 100        hedge-target call strike (> 0); expiry = horizon

Subcommands: simulate (path + ledger CSVs), verify (defect refinement
study), hedge (hedging-error convergence), martingale (equal rate of
return test). Each run writes its CSVs plus a manifest.json into --out and
exits 0 iff every experiment verdict passes; negative controls that
violate as expected are marked expected-fail and do not fail the run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    buy_and_hold_spec,
    cash_injection_spec,
    constant_mix_spec,
    defect_refinement_study,
    delta_hedge_spec,
    hedging_convergence,
    martingale_test,
    write_result_csv,
)
from .ledger import write_ledger_csv
from .paths import GbmParams, generate_brownian, gbm_path, uniform_grid
from .strategies import EuropeanCall, delta_hedge

COMMANDS = ("simulate", "verify", "hedge", "martingale")


def _parse_factors(value: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in value.split(","))


# key -> parser. Defaults and constraints live in the config dataclasses
# (ExperimentConfig, GbmParams, EuropeanCall).
_CONFIG_KEYS = {
    "s0": float,
    "mu": float,
    "sigma": float,
    "r": float,
    "horizon": float,
    "base_steps": int,
    "refinement_factors": _parse_factors,
    "n_paths": int,
    "seed": int,
    "strike": float,
}

# EuropeanCall has no default; the CLI hedges an at-the-money call.
_DEFAULT_STRIKE = 100.0


def _flat(cfg: ExperimentConfig) -> dict:
    """The config as the flat key -> value view of the document form."""
    return {
        "s0": cfg.params.s0,
        "mu": cfg.params.mu,
        "sigma": cfg.params.sigma,
        "r": cfg.params.r,
        "horizon": cfg.horizon,
        "base_steps": cfg.base_steps,
        "refinement_factors": cfg.refinement_factors,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "strike": _DEFAULT_STRIKE if cfg.hedge is None else cfg.hedge.strike,
    }


def parse_config(text: str) -> ExperimentConfig:
    """Resolve a flat key-value document against the documented defaults."""
    resolved = _flat(ExperimentConfig())
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            resolved[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ValueError(f"invalid value for {key!r}: {value!r}") from None
    cfg = ExperimentConfig(
        params=GbmParams(
            s0=resolved["s0"], mu=resolved["mu"], sigma=resolved["sigma"], r=resolved["r"]
        ),
        horizon=resolved["horizon"],
        base_steps=resolved["base_steps"],
        refinement_factors=resolved["refinement_factors"],
        n_paths=resolved["n_paths"],
        seed=resolved["seed"],
    )
    # The hedge expires at the horizon; built once the horizon has been
    # validated, so a bad horizon is reported as such.
    return dataclasses.replace(cfg, hedge=EuropeanCall(strike=resolved["strike"], expiry=cfg.horizon))


def config_to_text(cfg: ExperimentConfig) -> str:
    """Render a config back to the flat document form (parse round-trips)."""
    lines = []
    for key, value in _flat(cfg).items():
        if isinstance(value, tuple):
            value = ",".join(str(f) for f in value)
        elif isinstance(value, float):
            value = format(value, ".17g")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    seed: int
    config: ExperimentConfig
    outputs: tuple[str, ...]

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "config": config_to_text(self.config),
            "outputs": list(self.outputs),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        return cls(
            command=doc["command"],
            version=doc["version"],
            seed=int(doc["seed"]),
            config=parse_config(doc["config"]),
            outputs=tuple(doc["outputs"]),
        )


def _default_martingale_roster(cfg: ExperimentConfig):
    roster = [
        buy_and_hold_spec(1.0, 0.0),
        constant_mix_spec(0.6, cfg.params.s0),
    ]
    if cfg.hedge is not None:
        roster.append(delta_hedge_spec(cfg.hedge))
    roster.append(cash_injection_spec(10.0))
    return roster


def _write_paths_csv(cfg: ExperimentConfig, dest: Path) -> None:
    grid = uniform_grid(cfg.horizon, cfg.base_steps)
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "index", "t", "S", "beta", "dW"])
        for i in range(cfg.n_paths):
            w = generate_brownian(grid, cfg.seed, i)
            mp = gbm_path(cfg.params, w, "physical")
            for k in range(grid.n_points):
                dw = 0.0 if k == 0 else w.increments[k - 1]
                writer.writerow(
                    [i, k]
                    + [format(float(x), ".17g") for x in (grid.times[k], mp.stock[k], mp.bond[k], dw)]
                )


def run(command: str, cfg: ExperimentConfig, out_dir) -> int:
    """Execute one subcommand, writing CSVs and a manifest into out_dir.

    Returns 0 iff every experiment verdict is a pass (simulate has no
    verdicts and returns 0 on success).
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    results: list[ExperimentResult] = []

    if command == "simulate":
        paths_csv = out / "paths.csv"
        _write_paths_csv(cfg, paths_csv)
        outputs.append(paths_csv.name)
        if cfg.hedge is not None:
            grid = uniform_grid(cfg.horizon, cfg.base_steps)
            mp = gbm_path(cfg.params, generate_brownian(grid, cfg.seed, 0), "physical")
            schedule = delta_hedge(cfg.hedge, mp, cfg.params.sigma)
            ledger_csv = out / "ledger_path0.csv"
            write_ledger_csv(schedule, mp, ledger_csv)
            outputs.append(ledger_csv.name)
        print(f"simulate: wrote {', '.join(outputs)} ({cfg.n_paths} paths)")
    else:
        if command == "verify":
            result = defect_refinement_study(cfg)
        elif command == "hedge":
            result = hedging_convergence(cfg)
        else:
            result = martingale_test(cfg, _default_martingale_roster(cfg))
        results.append(result)
        dest = out / f"{result.name}.csv"
        write_result_csv(result, dest)
        outputs.append(dest.name)
        print(f"{result.name}: verdict={result.verdict} rows={len(result.rows)} -> {dest}")

    manifest = RunManifest(
        command=command,
        version=__version__,
        seed=cfg.seed,
        config=cfg,
        outputs=tuple(outputs),
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return 0 if all(r.verdict == "pass" for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hedgelab",
        description="Self-financing portfolio experiments with reproducible seeds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "write market path and ledger CSVs",
        "verify": "defect refinement study (self-financing identity)",
        "hedge": "hedging-error convergence study",
        "martingale": "risk-neutral equal-rate-of-return test",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--paths", type=int, default=None, help="override config n_paths")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config is not None else ""
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.paths is not None:
            cfg = dataclasses.replace(cfg, n_paths=args.paths)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(args.command, cfg, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
