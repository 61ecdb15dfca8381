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
    n_paths = 10000     Monte Carlo paths (1 to 2**32)
    seed = 42           stream seed (0 to 2**128 - 1)
    strike = 100        hedge-target call strike (> 0); expiry = horizon

Subcommands: simulate (path + ledger CSVs), verify (defect refinement
study), hedge (hedging-error convergence), martingale (equal rate of
return test). Path i of a run draws its normals from counter-based stream
2 keyed by (seed, i) (see paths), so simulate can draw its paths in fixed
blocks, each one batch generate_brownian(grid, seed, range(...)) through
gbm_path, and write paths.csv byte-identically to the per-path draws, in
memory that does not grow with n_paths; the studies stream their paths in
blocks too (see experiments). Each run writes its CSVs plus a
manifest.json, which records the stream version, into --out and exits 0
iff every experiment verdict passes; negative controls that violate as
expected are marked expected-fail and do not fail the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
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
from .paths import STREAM, GbmParams, MarketPath, gbm_path, generate_brownian, uniform_grid
from .strategies import delta_hedge

COMMANDS = ("simulate", "verify", "hedge", "martingale")

# simulate's block sizes: paths per batch draw, and paths.csv rows per
# formatted chunk. Neither changes a byte of the output; together they
# bound the writer's memory whatever n_paths is.
_PATH_BLOCK = 128
_ROW_CHUNK = 2048


def _parse_factors(value: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in value.split(","))


# key -> parser, in document order. The keys are exactly the fields of
# ExperimentConfig, with GbmParams' four in place of params. Defaults and
# constraints live in the config dataclasses (ExperimentConfig, GbmParams,
# EuropeanCall).
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

_PARAMS_KEYS = tuple(f.name for f in dataclasses.fields(GbmParams))


def _flat(cfg: ExperimentConfig) -> dict:
    """The config as the flat key -> value view of the document form."""
    return {key: getattr(cfg.params if key in _PARAMS_KEYS else cfg, key) for key in _CONFIG_KEYS}


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
    params = GbmParams(**{key: resolved.pop(key) for key in _PARAMS_KEYS})
    return ExperimentConfig(params=params, **resolved)


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
    config: ExperimentConfig
    outputs: tuple[str, ...]

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "version": self.version,
            "seed": self.config.seed,
            "stream": STREAM,
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
            config=parse_config(doc["config"]),
            outputs=tuple(doc["outputs"]),
        )


def _default_martingale_roster(cfg: ExperimentConfig):
    return [
        buy_and_hold_spec(1.0, 0.0),
        constant_mix_spec(0.6, cfg.params.s0),
        delta_hedge_spec(cfg.hedge, cfg.params.sigma),
        cash_injection_spec(10.0),
    ]


def _write_paths_csv(cfg: ExperimentConfig, path0: MarketPath, dest: Path) -> None:
    """Write every path's rows, _PATH_BLOCK paths per batch draw: the dW
    column is the drawn BrownianPath's increments, the S column its gbm_path.

    Each chunk of up to _ROW_CHUNK rows is formatted by one `%`. The index,
    t and beta columns are the same on every path (beta is path 0's bond),
    so each step's row template carries them preformatted. For a Python
    float, "%.17g" % x is format(x, ".17g"), the per-value form.
    """
    grid, n = path0.grid, path0.grid.n_points
    templates = [
        f"%d,{k},{t:.17g},%.17g,{b:.17g},%.17g\n"
        for k, (t, b) in enumerate(zip(grid.times.tolist(), path0.bond.tolist()))
    ]
    with open(dest, "w", newline="") as fh:
        fh.write("path,index,t,S,beta,dW\n")
        for start in range(0, cfg.n_paths, _PATH_BLOCK):
            block = range(start, min(start + _PATH_BLOCK, cfg.n_paths))
            w = generate_brownian(grid, cfg.seed, block)
            stock = gbm_path(cfg.params, w, "physical").stock
            dw = np.zeros_like(stock)
            dw[:, 1:] = w.increments
            stock, dw = stock.ravel(), dw.ravel()
            for r0 in range(0, stock.size, _ROW_CHUNK):
                rows = np.arange(r0, min(r0 + _ROW_CHUNK, stock.size))
                # Assigning into an object array yields Python ints and floats.
                cells = np.empty((rows.size, 3), dtype=object)
                cells[:, 0] = start + rows // n
                cells[:, 1] = stock[rows]
                cells[:, 2] = dw[rows]
                template = "".join([templates[k] for k in (rows % n).tolist()])
                fh.write(template % tuple(cells.ravel().tolist()))


def _partial(out: Path, name: str) -> Path:
    """Where output `name` is written until the whole run has succeeded."""
    return out / f".{name}.partial"


def run(command: str, cfg: ExperimentConfig, out_dir) -> int:
    """Execute one subcommand, writing CSVs and a manifest into out_dir.

    Each output is written under a temporary name and renamed into place
    only once every output is complete, manifest.json last, so a run that
    fails leaves no output behind. Returns 0 iff every experiment verdict
    is a pass (simulate has no verdicts and returns 0 on success).
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged: list[str] = []

    def stage(name: str) -> Path:
        staged.append(name)
        return _partial(out, name)

    try:
        if command == "simulate":
            # Path 0 through the single-path API: its checks cover the bond
            # column every path shares, and it is the ledger's market.
            grid = uniform_grid(cfg.horizon, cfg.base_steps)
            mp = gbm_path(cfg.params, generate_brownian(grid, cfg.seed, 0), "physical")
            _write_paths_csv(cfg, mp, stage("paths.csv"))
            schedule = delta_hedge(cfg.hedge, mp, cfg.params.sigma)
            write_ledger_csv(schedule, mp, stage("ledger_path0.csv"))
            verdict = "pass"
            summary = f"simulate: wrote {', '.join(staged)} ({cfg.n_paths} paths)"
        else:
            if command == "verify":
                result = defect_refinement_study(cfg)
            elif command == "hedge":
                result = hedging_convergence(cfg)
            else:
                result = martingale_test(cfg, _default_martingale_roster(cfg))
            write_result_csv(result, stage(f"{result.name}.csv"))
            verdict = result.verdict
            summary = f"{result.name}: verdict={verdict} rows={len(result.rows)} -> {out / staged[-1]}"
        manifest = RunManifest(command=command, version=__version__, config=cfg, outputs=tuple(staged))
        stage("manifest.json").write_text(manifest.to_json())
        for name in staged:
            os.replace(_partial(out, name), out / name)
    finally:
        for name in staged:
            _partial(out, name).unlink(missing_ok=True)
    print(summary)
    return 0 if verdict == "pass" else 1


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
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
