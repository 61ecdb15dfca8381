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
blocks too, on one lane (thread) per usable CPU (see experiments), and
write the same bytes at any lane count. paths.csv's S and dW columns are
formatted by _g17, an exact vectorized format(x, ".17g"): every finite x
with 1e-10 <= |x| < 1e15 gets its 17 digits from its significand times
5**k (k <= 27, a product below 2**117 held in two uint64 limbs), rounded
half to even on the exact remainder; every other value (+-0, subnormals,
smaller or larger magnitudes, inf, nan) is formatted one at a time by
format itself. Each run writes its CSVs plus a
manifest.json, which records the stream version, into --out and exits 0
iff every experiment verdict passes; negative controls that violate as
expected are marked expected-fail and do not fail the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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

# _g17's arithmetic. A value x in [1e-10, 1e15) is M * 2**(e - 53), with M its
# 53-bit integer significand; its decade d (10**d <= x < 10**(d + 1)) makes
# Q = M * 5**k, k = 16 - d, whose top bits floor(Q / 2**s), s = 53 - e - k,
# are the 17 digits floor(x * 10**k). 5**k for k in [0, 27] is kept split
# into 32-bit halves, so the 53 x 63-bit product is four partial products
# that each fit uint64.
_U64 = np.uint64
_POW5_HI, _POW5_LO = np.divmod(_U64(5) ** np.arange(28, dtype=_U64), _U64(1 << 32))
_LOW32 = _U64(0xFFFFFFFF)
_FRACTION = _U64((1 << 52) - 1)
_HIDDEN_BIT = _U64(1 << 52)
_E16, _E17 = _U64(10**16), _U64(10**17)
_G17_MIN, _G17_MAX = 1e-10, 1e15
_G17_WIDTH = 28


def _group_tables():
    """For every 4-digit group 0000-9999: its ASCII digits as one uint32 (in
    memory order); and, in row i for the group's place i in [0, 3] among the
    16 digits after the first, 4 * i plus the position in [1, 4] of its last
    nonzero digit, 0 for 0000."""
    digits = np.empty((10000, 4), np.uint8)
    for place in range(4):  # thousands, hundreds, tens, ones
        digits[:, place] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - place)), 10**place)
    last = np.full(10000, 4, np.uint8)
    for place in (3, 2, 1):  # multiples of 10, 100, 1000
        last[:: 10 ** (4 - place)] = place
    at = last + np.array([[0], [4], [8], [12]], np.uint8)
    at[:, 0] = 0
    return digits.view(np.uint32).ravel(), at


def _layout_tables():
    """The three cell rows of every layout code, as void items.

    A value is laid out in a cell of _G17_WIDTH bytes, NUL where nothing is
    written. Its digit row holds, by column: 0 a NUL, 1-4 the zeros "0000",
    5 the first of the 17 digits, 6-21 the other 16. The text takes column
    c of the digit row left of the point column P and column c - 1 right of
    it (the shift row), so the digits right of P move over by one; the keep
    row then clears what lies outside the text and the add row adds the
    point, a sign and an exponent. The code is ((d + 11) * 17 + t) * 2 +
    negative, for the decade d in [-11, 15] and the last nonzero digit t in
    [0, 16]:
    - %g writes fixed notation for -4 <= d < 17 and d.ddd...e-XX otherwise,
      which below 1e15 means d < -4. The point follows digit d of the 17 in
      fixed notation and digit 0 in exponent form: P = 6 + that.
    - The text runs from the first digit, or the "0" before the point when
      d < 0, to digit t (column 6 + t); when t is left of the point, to the
      last integer digit (column P - 1), without the point.
    - '-' goes just before the text, and "e-XX" in columns 24-27.
    The rows are built as bytes: 918 codes, a few slices each.
    """
    shift, keep, add = [], [], []
    for d in range(-11, 16):
        point_digit = d if d >= -4 else 0
        point, first = 6 + point_digit, 5 + min(point_digit, 0)
        left = b"\xff" * point + bytes(_G17_WIDTH - point)
        integer = bytes(first) + b"\xff" * (point - first) + bytes(_G17_WIDTH - point)
        fraction = bytes(first) + b"\xff" * (point - first) + b"\0" + b"\xff" * (_G17_WIDTH - 1 - point)
        plain = bytes(_G17_WIDTH - 4) + (b"e-%02d" % -d if d < -4 else bytes(4))
        dotted = plain[:point] + b"." + plain[point + 1:]
        for t in range(17):
            kept, marks = (integer, plain) if t <= point_digit else (fraction[:7 + t] + bytes(_G17_WIDTH - 7 - t), dotted)
            shift += [left, left]
            keep += [kept, kept]
            add += [marks, marks[:first - 1] + b"-" + marks[first:]]
    return tuple(np.frombuffer(b"".join(rows), f"V{_G17_WIDTH}") for rows in (shift, keep, add))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """_g17's tables, built on its first call (in well under 1 ms), so that
    a command that writes no paths.csv does not build them."""
    return (*_group_tables(), *_layout_tables())


_DIGIT_ROW = np.array([0] + [48] * 4 + [0] * (_G17_WIDTH - 5), np.uint8).view(f"V{_G17_WIDTH}")


def _g17_fallback(x: float) -> bytes:
    """The per-value form, for what _g17 leaves out."""
    return format(x, ".17g").encode()


def _scaled(mant, e, d):
    """floor(Q / 2**s), Q mod 2**s and 2**(s - 1) for Q = mant * 5**(16 - d)
    and s = 53 - e - (16 - d) = 37 - e + d, elementwise.

    Q < 2**53 * 5**27 < 2**117 is held as two uint64 limbs. s lies in
    [1, 60] where d is the decade of the value, and in [1, 63] where d is one
    off (which log10 can give only next to a power of ten, where the value
    times 10**(16 - d) is near 10**16 or 10**17); so every shift count below
    is in [0, 63].
    """
    s = (37 - e + d).astype(_U64)
    pow_hi, pow_lo = _POW5_HI.take(16 - d), _POW5_LO.take(16 - d)
    mant_hi, mant_lo = mant >> _U64(32), mant & _LOW32
    low = mant_lo * pow_lo
    mid = mant_hi * pow_lo
    mid += mant_lo * pow_hi  # < 2**21 * 2**32 + 2**32 * 2**31 < 2**64
    q_hi = mant_hi * pow_hi
    q_hi += mid >> _U64(32)
    q_lo = low + (mid << _U64(32))  # mod 2**64: it wrapped where it is below low
    q_hi += q_lo < low
    one = _U64(1)
    top = q_hi << (_U64(64) - s)
    top |= q_lo >> s
    return top, q_lo & ((one << s) - one), one << (s - one)


def _decimal17(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits q (uint64, in [10**16, 10**17)) and the decade d of
    each value of mag, all in [1e-10, 1e15), so that round-half-to-even of
    mag * 10**(16 - d) is q, exactly.

    d is floor(log10(mag)), corrected where the truncated digits fall
    outside [10**16, 10**17); a carry of the rounding to 10**17 becomes
    10**16 at decade d + 1.
    """
    bits = mag.view(_U64)
    mant = (bits & _FRACTION) | _HIDDEN_BIT
    e = (bits >> _U64(52)).astype(np.int64) - 1022
    d = np.floor(np.log10(mag)).astype(np.int64)
    q, rem, half = _scaled(mant, e, d)
    off = np.flatnonzero((q < _E16) | (q >= _E17))
    if off.size:
        d[off] += np.where(q[off] >= _E17, 1, -1)
        q[off], rem[off], half[off] = _scaled(mant[off], e[off], d[off])
    q += (rem > half) | ((rem == half) & (q & _U64(1)).astype(bool))
    carry = np.flatnonzero(q == _E17)
    q[carry] = _E16
    d[carry] += 1
    return q, d


def _g17(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of every v in the float64 array x, as an
    (x.size, _G17_WIDTH) uint8 array of NUL-padded cells: the text is a
    cell's non-NUL bytes in order.

    Finite v with 1e-10 <= |v| < 1e15 are formatted exactly in uint64
    arithmetic: the 17 digits rounded half to even (see _decimal17), then
    the %g layout (see _layout_tables). Every other v is formatted by
    _g17_fallback.
    """
    n = x.size
    group_text, group_last, shift, keep, add = _tables()
    mag = np.abs(x)
    fallback = np.flatnonzero(~((mag >= _G17_MIN) & (mag < _G17_MAX)))
    mag[fallback] = 1.0  # formatted below, and overwritten by the fallback
    q, d = _decimal17(mag)

    # The 17 digits (q < 10**17 < 2**63): the first, then four groups of four.
    rest = q.view(np.int64)
    lead = rest // 10**16
    rest -= lead * 10**16
    groups = np.empty((n, 4), np.intp)
    for i, power in enumerate((10**12, 10**8, 10**4)):
        groups[:, i] = rest // power
        rest -= groups[:, i] * power
    groups[:, 3] = rest
    last = group_last[0].take(groups[:, 0])  # index of the last nonzero digit, in [0, 16]
    for i in range(1, 4):
        np.maximum(last, group_last[i].take(groups[:, i]), out=last)
    row = np.empty(n * _G17_WIDTH + 1, np.uint8)
    row[0] = 0
    digits = row[1:].reshape(n, _G17_WIDTH)
    digits.view(f"V{_G17_WIDTH}")[:] = _DIGIT_ROW
    digits[:, 5] = lead + 48
    digits[:, 6:22] = group_text.take(groups).view(np.uint8)
    del rest, lead, groups  # freed before the cell-sized arrays: a lower peak

    code = ((d + 11) * 17 + last) * 2 + (x < 0)
    here, left = row[1:], row[:-1]  # column c and column c - 1 of each cell
    cells = shift.take(code).view(np.uint8)
    cells &= left ^ here
    cells ^= left
    cells &= keep.take(code).view(np.uint8)
    cells |= add.take(code).view(np.uint8)
    cells = cells.reshape(n, _G17_WIDTH)
    if fallback.size:
        text = [_g17_fallback(v) for v in x[fallback].tolist()]
        cells[fallback] = np.array(text, dtype=f"S{_G17_WIDTH}").view(np.uint8).reshape(-1, _G17_WIDTH)
    return cells


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


def _cells(texts: list[str], right: bool = False) -> np.ndarray:
    """The texts as rows of bytes as wide as the longest, padded with NULs on
    the right, or with right=True on the left."""
    raw = [text.encode() for text in texts]
    width = max(map(len, raw))
    if right:
        raw = [b.rjust(width, b"\0") for b in raw]
    return np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)


def _take_rows(cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """cells[rows], one copy per row (not one per byte)."""
    width = cells.shape[1]
    return cells.view(f"V{width}").ravel().take(rows).view(np.uint8).reshape(rows.size, width)


def _write_paths_csv(cfg: ExperimentConfig, path0: MarketPath, dest: Path) -> None:
    """Write every path's rows, _PATH_BLOCK paths per batch draw: the dW
    column is the drawn BrownianPath's increments, the S column its gbm_path.

    A row is a run of NUL-padded fields: the path index, the step's
    ",k,t,", S, the step's ",beta,", dW and a newline. The index, t and beta
    columns are the same on every path (beta is path 0's bond), so each
    step's fields are formatted once, by format(v, ".17g"). Each chunk of up
    to _ROW_CHUNK rows formats its S and its dW values in one _g17 call each
    (for 1e-10 <= |v| < 1e15 the 17 digits in two uint64 limbs, rounded half
    to even on the exact remainder; format itself for any other v), drops
    every NUL with one boolean mask and is written as bytes: the bytes
    format(v, ".17g") gives, value by value.
    """
    grid = path0.grid
    kt = _cells([f",{k},{t:.17g}," for k, t in enumerate(grid.times.tolist())])
    beta = _cells([f",{b:.17g}," for b in path0.bond.tolist()])
    index_end = len(str(cfg.n_paths - 1))
    columns = (index_end, index_end + kt.shape[1], index_end + kt.shape[1] + _G17_WIDTH + beta.shape[1])
    # Each step's row with all but the index, S and dW filled in.
    steps = np.zeros((grid.n_points, columns[2] + _G17_WIDTH + 1), np.uint8)
    steps[:, index_end:columns[1]] = kt
    steps[:, columns[1] + _G17_WIDTH:columns[2]] = beta
    steps[:, -1] = ord("\n")
    with open(dest, "wb") as fh:
        fh.write(b"path,index,t,S,beta,dW\n")
        for start in range(0, cfg.n_paths, _PATH_BLOCK):
            block = range(start, min(start + _PATH_BLOCK, cfg.n_paths))
            w = generate_brownian(grid, cfg.seed, block)
            stock = gbm_path(cfg.params, w, "physical").stock
            dw = np.zeros_like(stock)
            dw[:, 1:] = w.increments
            index = _cells([str(i) for i in block], right=True)
            stock, dw = stock.ravel(), dw.ravel()
            for r0 in range(0, stock.size, _ROW_CHUNK):
                rows = slice(r0, min(r0 + _ROW_CHUNK, stock.size))
                fh.write(_rows_text(steps, columns, index, rows, stock[rows], dw[rows]))


def _rows_text(steps, columns, index, rows: slice, stock, dw) -> np.ndarray:
    """The bytes of a block's rows `rows`: each row is its step's row of
    `steps` with the path's `index` cell ending at columns[0] and the S and
    dW cells starting at columns[1] and columns[2], less every NUL."""
    index_end, s_at, dw_at = columns
    stock_cells, dw_cells = _g17(stock), _g17(dw)
    path, step = np.divmod(np.arange(rows.start, rows.stop), steps.shape[0])
    text = _take_rows(steps, step)
    text[:, index_end - index.shape[1]:index_end] = _take_rows(index, path)
    text[:, s_at:s_at + _G17_WIDTH] = stock_cells
    text[:, dw_at:dw_at + _G17_WIDTH] = dw_cells
    del stock_cells, dw_cells  # freed before the mask: a lower peak
    text = text.ravel()
    return text[text != 0]


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
        text = args.config.read_text(encoding="utf-8") if args.config is not None else ""
    except (OSError, UnicodeDecodeError) as exc:
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
