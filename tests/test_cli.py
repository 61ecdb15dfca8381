import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import accum, cli, experiments
from hedgelab.cli import RunManifest, config_to_text, main, parse_config, run
from hedgelab.experiments import ExperimentConfig
from hedgelab.paths import GbmParams, gbm_path, generate_brownian, uniform_grid

from conftest import fail_in_blocks_3_and_5


def test_parse_config_empty_document_resolves_defaults():
    cfg = parse_config("")
    assert cfg.params == GbmParams(100.0, 0.05, 0.2, 0.05)
    assert cfg.horizon == 1.0
    assert cfg.base_steps == 64
    assert cfg.n_paths == 10_000
    assert cfg.seed == 42
    assert cfg.refinement_factors == (1, 4, 16)
    assert cfg.hedge is not None and cfg.hedge.strike == 100.0 and cfg.hedge.expiry == 1.0


def test_parse_config_single_override():
    cfg = parse_config("n_paths = 500\n")
    assert cfg.n_paths == 500
    assert cfg.seed == 42 and cfg.base_steps == 64


def test_parse_config_comments_and_layout():
    cfg = parse_config("# run setup\nsigma = 0.3  # vol\n\nseed=7\n")
    assert cfg.params.sigma == 0.3
    assert cfg.seed == 7


def test_parse_config_unknown_key_named_in_error():
    with pytest.raises(ValueError, match="volatility"):
        parse_config("volatility = 0.2\n")


def test_parse_config_constraint_named_in_error():
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        parse_config("sigma = -0.1\n")
    with pytest.raises(ValueError, match="n_paths"):
        parse_config("n_paths = 0\n")
    with pytest.raises(ValueError, match="refinement_factors"):
        parse_config("refinement_factors = 4,2\n")
    with pytest.raises(ValueError, match="base_steps"):
        parse_config("base_steps = one\n")


def test_module_docstring_lists_the_defaults():
    documented = re.findall(r"^    (\w+) = (\S+)", cli.__doc__, flags=re.MULTILINE)
    keys = [line.split(" = ")[0] for line in config_to_text(parse_config("")).splitlines()]
    assert [key for key, _ in documented] == keys
    assert parse_config("".join(f"{k} = {v}\n" for k, v in documented)) == parse_config("")


_OUT_OF_RANGE = [
    ("s0", "0"), ("mu", "inf"), ("sigma", "-0.1"), ("r", "-inf"), ("horizon", "-1"),
    ("base_steps", "0"), ("refinement_factors", "4,2"), ("n_paths", "0"), ("seed", "-1"),
    ("strike", "0"),
    ("s0", "inf"), ("mu", "nan"), ("horizon", "inf"), ("strike", "inf"),
    ("seed", str(2**128)),
]


@pytest.mark.parametrize(
    "flags, config, key",
    [([], f"{key} = {value}\n", key) for key, value in _OUT_OF_RANGE]
    + [(["--seed", "-1"], "", "seed"), (["--paths", "0"], "", "n_paths")]
    # Rejected before anything is allocated: path indices stay below 2**32.
    + [(["--paths", str(2**32 + 1)], "", "n_paths")]
    # The seed is the 128-bit Philox key.
    + [(["--seed", str(2**128)], "", "seed")],
    ids=[f"{key}={value}" for key, value in _OUT_OF_RANGE]
    + ["--seed=-1", "--paths=0", "--paths=2**32+1", "--seed=2**128"],
)
def test_main_config_error_names_the_key(tmp_path, capsys, flags, config, key):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(cfg_file), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("config error: ")
    assert re.search(rf"\b{key}\b", line.removeprefix("config error: ")), line
    assert not out.exists()


def test_main_config_line_without_an_equals_sign_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("s0 100\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: line 1: expected 'key = value', got 's0 100'\n"
    assert not out.exists()


_ROUND_TRIP_DOC = "sigma = 0.31\nn_paths = 123\nrefinement_factors = 1,3,9\nstrike = 95\n"


@pytest.mark.parametrize(
    "cfg",
    [
        parse_config(_ROUND_TRIP_DOC),
        dataclasses.replace(parse_config(_ROUND_TRIP_DOC), horizon=2.0, strike=90.0),
        ExperimentConfig(),
    ],
    ids=["parsed", "replaced-horizon-and-strike", "library-default"],
)
def test_config_text_round_trip(cfg):
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_fields_are_the_document_keys():
    params_keys = [f.name for f in dataclasses.fields(GbmParams)]
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    i = names.index("params")
    assert names[:i] + params_keys + names[i + 1:] == list(cli._CONFIG_KEYS)


def test_manifest_round_trip():
    cfg = parse_config("seed = 9\nsigma = 0.15\n")
    manifest = RunManifest(
        command="verify", version="0.1.0", config=cfg, outputs=("a.csv",)
    )
    parsed = RunManifest.from_json(manifest.to_json())
    assert parsed == manifest
    assert parsed.config == cfg


SMALL = "n_paths = 32\nbase_steps = 8\nrefinement_factors = 1,2\nseed = 5\n"


def test_run_verify_writes_outputs_and_passes(tmp_path, capsys):
    cfg = parse_config(SMALL)
    status = run("verify", cfg, tmp_path)
    assert status == 0
    assert (tmp_path / "defect_refinement.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "defect_refinement: verdict=pass" in out
    manifest = RunManifest.from_json((tmp_path / "manifest.json").read_text())
    assert manifest.config == cfg
    assert manifest.outputs == ("defect_refinement.csv",)


def test_manifest_records_the_stream_version(tmp_path):
    run("verify", parse_config(SMALL), tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text())["stream"] == 2


def test_run_simulate_writes_paths_and_ledger(tmp_path):
    cfg = parse_config("n_paths = 3\nbase_steps = 4\n")
    assert run("simulate", cfg, tmp_path) == 0
    paths_lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert paths_lines[0] == "path,index,t,S,beta,dW"
    assert len(paths_lines) == 1 + 3 * 5
    assert (tmp_path / "ledger_path0.csv").exists()


def per_path_paths_csv(cfg, dest):
    """Reference: paths.csv built path by path, one csv row at a time."""
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


_SIMULATE_CONFIGS = {
    "one-path": "n_paths = 1\nbase_steps = 4\n",
    "ragged-last-block": "n_paths = 30\nbase_steps = 5\n",
    "one-step": "n_paths = 9\nbase_steps = 1\n",
    "path-longer-than-a-chunk": f"n_paths = 2\nbase_steps = {cli._ROW_CHUNK + 3}\n",
    "flat-market": "n_paths = 5\nbase_steps = 4\nsigma = 0\nmu = 0\nr = 0\n",
    "wide-seed": f"n_paths = 5\nbase_steps = 4\nseed = {2**64 + 5}\n",
    "negative-drift-and-rate": "n_paths = 5\nbase_steps = 4\nmu = -0.3\nr = -0.1\n",
    "long-horizon": "n_paths = 5\nbase_steps = 4\nhorizon = 2.5\n",
}


@pytest.mark.parametrize("block", [1, 7, "n_paths", "default"])
@pytest.mark.parametrize("config", _SIMULATE_CONFIGS.values(), ids=_SIMULATE_CONFIGS.keys())
def test_simulate_paths_csv_is_the_per_path_stream_for_any_block(tmp_path, monkeypatch, config, block):
    cfg = parse_config(config)
    if block != "default":
        size = cfg.n_paths if block == "n_paths" else block
        monkeypatch.setattr(cli, "_PATH_BLOCK", size)
        monkeypatch.setattr(cli, "_ROW_CHUNK", size)
    assert run("simulate", cfg, tmp_path / "out") == 0
    per_path_paths_csv(cfg, tmp_path / "reference.csv")
    assert (tmp_path / "out" / "paths.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# Configs whose S or dW leave [1e-10, 1e15), the range g17._g17 formats
# itself, so that those cells go through its per-value fallback.
_FALLBACK_CONFIGS = {
    "huge-stock": "s0 = 1e20\n",
    "tiny-stock": "s0 = 1e-12\n",
    "stock-straddles-1e15": "s0 = 9e14\nsigma = 0.5\n",
    "tiny-increments": "horizon = 1e-22\n",
}


@pytest.mark.parametrize("chunk", [1, 7, "default"])
@pytest.mark.parametrize("config", _FALLBACK_CONFIGS.values(), ids=_FALLBACK_CONFIGS.keys())
def test_simulate_paths_csv_is_the_per_path_stream_where_values_fall_back(tmp_path, monkeypatch, config, chunk):
    cfg = parse_config("n_paths = 5\nbase_steps = 8\n" + config)
    if chunk != "default":
        monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
    assert run("simulate", cfg, tmp_path / "out") == 0
    per_path_paths_csv(cfg, tmp_path / "reference.csv")
    written = (tmp_path / "out" / "paths.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    if "9e14" in config:
        stock = [float(line.split(b",")[3]) for line in written.splitlines()[1:]]
        assert min(stock) < 1e15 <= max(stock)


def test_simulate_memory_does_not_grow_with_n_paths(tmp_path):
    steps = 8

    def peak_bytes(n_paths):
        cfg = parse_config(f"n_paths = {n_paths}\nbase_steps = {steps}\n")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run("simulate", cfg, tmp_path / str(n_paths))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The arrays one block holds: stock, increments and the dW column.
    block_bytes = 3 * cli._PATH_BLOCK * (steps + 1) * 8
    peak_bytes(1)  # a process's first simulate also imports g17, once
    assert abs(peak_bytes(5000) - peak_bytes(500)) < block_bytes


def test_run_verify_sigma_zero_exits_clean(tmp_path):
    cfg = parse_config(SMALL + "sigma = 0\nmu = 0\nr = 0\ns0 = 120\n")
    assert run("verify", cfg, tmp_path) == 0
    body = (tmp_path / "defect_refinement.csv").read_text()
    for line in body.splitlines()[1:]:
        assert line.split(",")[2] == "0"


def test_run_martingale_control_is_expected_fail_not_run_failure(tmp_path):
    cfg = parse_config("n_paths = 2000\nbase_steps = 8\nseed = 3\n")
    assert run("martingale", cfg, tmp_path) == 0
    rows = (tmp_path / "martingale.csv").read_text().splitlines()[1:]
    by_status = [line.split(",")[-1] for line in rows]
    assert by_status.count("expected-fail") == 1
    assert all(s in ("pass", "expected-fail") for s in by_status)


def test_run_unknown_command_rejected(tmp_path):
    with pytest.raises(ValueError):
        run("calibrate", parse_config(""), tmp_path)


def test_run_failed_verdict_exits_one(tmp_path, monkeypatch, capsys):
    from hedgelab.experiments import ExperimentResult, ResultRow

    failing = ExperimentResult("martingale", (ResultRow("stub", 0.0, 0.0, "fail"),))
    monkeypatch.setattr("hedgelab.cli.martingale_test", lambda cfg, strategies: failing)
    status = run("martingale", parse_config(SMALL), tmp_path)
    assert status == 1
    assert "verdict=fail" in capsys.readouterr().out


def test_main_cli_flags_and_exit(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(SMALL)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(config), "--out", str(out), "--paths", "16", "--seed", "8"])
    assert status == 0
    manifest = RunManifest.from_json((out / "manifest.json").read_text())
    assert manifest.config.n_paths == 16
    assert manifest.config.seed == 8


def test_main_bad_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("sigma = -1\n")
    status = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "sigma" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    status = main(["verify", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")])
    assert status == 2


def test_main_config_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"s0 = 100\n\xff\xfe\n")
    status = main(["verify", "--config", str(config), "--out", str(tmp_path / "out")])
    assert status == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = parse_config(SMALL)
    run("verify", cfg, tmp_path / "a")
    run("verify", cfg, tmp_path / "b")
    for name in ("defect_refinement.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["martingale", "--seed", "-1"], ""),
        (["hedge"], "refinement_factors = 1,2\n"),
        (["martingale"], "sigma = 40\n"),
    ],
    ids=["negative-seed", "hedge-two-levels", "stock-underflow"],
)
def test_main_domain_errors_exit_two_without_traceback(tmp_path, capsys, argv, config):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config + "n_paths = 8\nbase_steps = 4\n")
    status = main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and "error:" in err


def test_main_simulate_stock_underflow_exits_two_without_traceback(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sigma = 40\nn_paths = 8\nbase_steps = 4\n")
    status = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == 2
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line == "error: stock values must be positive and finite"


@pytest.mark.parametrize(
    "command, config",
    [
        ("verify", "mu = 1e308\n"),
        ("martingale", "r = 800\n"),
        ("verify", "sigma = 1e200\n"),
        ("martingale", "s0 = 1e200\n"),
        ("hedge", "s0 = 1e200\nstrike = 1e200\n"),
        ("hedge", "s0 = 1e150\nstrike = 1e150\n"),
    ],
    ids=["stock-overflow", "bond-overflow", "vol-overflow", "martingale-stderr-overflow",
         "hedge-rms-overflow", "hedge-stderr-overflow"],
)
def test_overflow_exits_two_with_one_stderr_line(tmp_path, command, config):
    # A fresh interpreter: pytest's own warning capture would hide numpy's
    # RuntimeWarning lines, which are what this checks for.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config + "n_paths = 8\nbase_steps = 4\n")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hedgelab", command, "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_moneyness_overflow_exits_zero_with_empty_stderr(tmp_path, command):
    # s / strike overflows for a subnormal strike; every delta is its limit,
    # 1, and numpy prints no RuntimeWarning (a fresh interpreter, as above).
    # 100 paths: at 8 the martingale cash-injection control is inside its band.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("strike = 5e-324\nn_paths = 100\nbase_steps = 4\n")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hedgelab", command, "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_vanishing_vol_prices_the_hedge_target_at_its_forward_value(tmp_path):
    # sigma * sqrt(T) is so small that d1 overflows: the call on s0 = 80,
    # K = 100 is worth its vol = 0 value, 0, not the spot.
    cfg = parse_config("s0 = 80\nsigma = 1e-320\nn_paths = 50\nbase_steps = 8\n")
    assert run("martingale", cfg, tmp_path) == 0
    params = [row["param"] for row in csv.DictReader((tmp_path / "martingale.csv").open())]
    assert "delta_hedge(K=100) Y0=0" in params
    # sigma * sqrt(T) underflows to 0 itself: priced, not a ZeroDivisionError.
    cfg = parse_config("sigma = 5e-324\nhorizon = 0.25\nn_paths = 4\nbase_steps = 4\n")
    for command in ("simulate", "martingale"):
        assert run(command, cfg, tmp_path / command) == 0


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_moneyness_underflow_exits_zero_with_empty_stderr(tmp_path, command):
    # s0 / strike underflows to 0: every price and delta is its d1 -> -inf
    # limit, 0, and numpy prints no RuntimeWarning (a fresh interpreter).
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("s0 = 1e-300\nstrike = 1e30\nn_paths = 4\nbase_steps = 4\n")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hedgelab", command, "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_allocation_failure_exits_two_with_one_line(tmp_path, capsys, command):
    # A 2**57-step grid is 2**60 bytes, past any user address space, so the
    # allocation fails before a page is touched.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"base_steps = {2**57}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert not out.exists() or list(out.iterdir()) == []


def test_main_failed_simulate_leaves_no_output(tmp_path, capsys):
    # Path 0 is fine, so paths.csv is under way when a later path's stock
    # underflows: nothing of the run may stay behind in --out.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sigma = 38\nbase_steps = 1\nn_paths = 1000\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stock values must be positive and finite\n"
    assert list(out.iterdir()) == []


def test_run_replaces_earlier_outputs_only_on_success(tmp_path, monkeypatch):
    cfg = parse_config(SMALL)
    assert run("verify", cfg, tmp_path) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(result, dest):
        Path(dest).write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_result_csv", fail)
    with pytest.raises(OSError, match="disk full"):
        run("verify", dataclasses.replace(cfg, seed=6), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_main_martingale_single_path_is_usage_error(tmp_path, capsys):
    status = main(["martingale", "--paths", "1", "--out", str(tmp_path / "out")])
    assert status == 2
    assert "n_paths >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "martingale.csv").exists()


def test_main_hedge_single_path_is_usage_error(tmp_path, capsys):
    # One path has no standard error: every rms row would read stderr 0 and
    # the slope would be fitted to a single path.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("base_steps = 4\n")
    status = main(["hedge", "--config", str(cfg_file), "--paths", "1", "--out", str(tmp_path / "out")])
    assert status == 2
    assert capsys.readouterr().err == "error: hedging convergence needs n_paths >= 2 for a standard error\n"
    assert not (tmp_path / "out" / "hedging_convergence.csv").exists()


KINK = "sigma = 0\nmu = 0\nr = 0\ns0 = 100\nstrike = 100\nn_paths = 8\nbase_steps = 4\n"


@pytest.mark.parametrize("command", ["verify", "hedge"])
def test_main_sigma_zero_on_the_strike_exits_zero(tmp_path, capsys, command):
    # The constant stock sits on the strike, where the delta is the vol -> 0
    # limit 1/2: no rebalances, zero defect and exact replication.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(KINK)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (result,) = out.glob("*.csv")
    for line in result.read_text().splitlines()[1:]:
        assert line.split(",")[2] == "0"


_small_configs = st.fixed_dictionaries(
    {
        "s0": st.one_of(st.just(100.0), st.floats(1e-3, 1e4)),
        "mu": st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        "sigma": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        "r": st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        "horizon": st.floats(1e-3, 10.0),
        "base_steps": st.integers(1, 5),
        "refinement_factors": st.sampled_from(["1", "1,2", "1,2,4", "1,3,9"]),
        "n_paths": st.integers(1, 4),
        "seed": st.integers(0, 2**64),
        "strike": st.one_of(st.just(100.0), st.floats(1e-3, 1e4)),
    }
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(command=st.sampled_from(["simulate", "verify", "hedge", "martingale"]), keys=_small_configs)
def test_main_small_configs_exit_cleanly(command, keys):
    # An exception escaping main() is what prints a traceback on the command line.
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v!r}\n" for k, v in keys.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main([command, "--config", str(cfg_file), "--out", str(Path(tmp) / "out")])
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_LANES_CFG = "n_paths = 40\nbase_steps = 8\nrefinement_factors = 1,2,4\nseed = 12\n"


def test_study_outputs_do_not_depend_on_the_usable_cpus(tmp_path, monkeypatch):
    # With 8 * 33-element blocks the 9-, 17- and 33-point levels hold 2, 3
    # and 5 blocks at one lane, so every level of every study runs on two
    # lanes when two CPUs are usable, and on one when one is: a level's lane
    # count is the number of threads its markets are built on.
    monkeypatch.setattr(experiments, "BUDGET", 8 * 33)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 64)
    per_path, market = experiments._per_path, experiments._market
    threads = []

    def recording_per_path(*args, **kwargs):
        threads.append(set())
        return per_path(*args, **kwargs)

    def recording_market(*args, **kwargs):
        threads[-1].add(threading.get_ident())
        return market(*args, **kwargs)

    monkeypatch.setattr(experiments, "_per_path", recording_per_path)
    monkeypatch.setattr(experiments, "_market", recording_market)
    cfg = parse_config(_LANES_CFG)
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        threads.clear()
        for command in ("verify", "hedge", "martingale"):
            out = tmp_path / f"{cpus}" / command
            assert run(command, cfg, out) == 0
            outputs[cpus, command] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        # three levels each for verify and hedge, one for martingale
        assert [len(level) for level in threads] == [cpus] * 7
    for command in ("verify", "hedge", "martingale"):
        assert outputs[1, command] == outputs[2, command]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask on this platform")
def test_usable_cpus_follow_the_affinity_mask():
    # A fresh interpreter pinned to one CPU, as taskset -c would pin it,
    # runs its studies on one lane.
    cpu = min(os.sched_getaffinity(0))
    code = f"import os; os.sched_setaffinity(0, {{{cpu}}}); from hedgelab import experiments; print(experiments._usable_cpus())"
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "1\n"


_V1 = "cpu,cpuacct/job/cpu.cfs_"


@pytest.mark.parametrize(
    "cgroup, files, quota",
    [
        ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),
        ("4:cpu,cpuacct:/job\n", {_V1 + "quota_us": "150000\n", _V1 + "period_us": "100000\n"}, 2),
        ("0::/job\n", {"job/cpu.max": "50000 100000\n"}, 1),
        ("0::/\n", {"cpu.max": "max 100000\n"}, None),
        ("4:cpu,cpuacct:/job\n", {_V1 + "quota_us": "-1\n", _V1 + "period_us": "100000\n"}, None),
        ("0::/job\n", {"job/cpu.max": "garbage\n"}, None),
        ("0::/job\n", {}, None),  # missing
        ("0::/job\n", {"job/cpu.max/unreadable": ""}, None),  # a folder, not a file
        ("0:/job\n0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),  # a line of two fields is skipped
    ],
    ids=["v2", "v1", "v2-half-a-cpu", "v2-max", "v1-minus-one", "garbage", "missing", "unreadable", "two-fields"],
)
def test_usable_cpus_are_capped_at_the_cgroup_cpu_quota(tmp_path, cgroup, files, quota):
    # Fake proc and cgroup files under a root folder: ceil(quota / period)
    # caps the affinity count, and no quota leaves it as it is.
    (tmp_path / "proc/self").mkdir(parents=True)
    (tmp_path / "proc/self/cgroup").write_text(cgroup)
    for name, text in files.items():
        path = tmp_path / "sys/fs/cgroup" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert experiments._cpu_quota(tmp_path) == quota
    affinity = experiments._usable_cpus(tmp_path / "no-cgroup-files")
    assert affinity >= 1
    assert experiments._usable_cpus(tmp_path) == (affinity if quota is None else min(affinity, quota))


def test_main_failure_in_a_lane_exits_two_with_one_line(tmp_path, monkeypatch, capsys):
    # The hedge study's first level holds 8 blocks of 6 paths at one lane;
    # on three lanes the blocks of paths 18 and 35 fail with errors of their
    # own. main reports the serial run's error, block 3's, in one line, with
    # no thread traceback, and leaves --out empty.
    monkeypatch.setattr(experiments, "BUDGET", 6 * 9)
    monkeypatch.setattr(accum, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    ran = []
    monkeypatch.setattr(
        experiments, "_block_hedge_errors", lambda cfg, mkt, work, out: fail_in_blocks_3_and_5(ran, mkt, work, out)
    )
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_paths = 48\nbase_steps = 8\nrefinement_factors = 1,2,4\n")
    out = tmp_path / "out"
    assert main(["hedge", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: block 3\n"
    assert list(out.iterdir()) == []


def _found(item: str):
    """The strict-xfail mark of a config that ROADMAP's open `item` makes exit 1."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


_PRICES_1E7 = "s0 = 1e7\nstrike = 1e7\nseed = 3\nn_paths = 200\nbase_steps = 16\n"
_ITEM_1 = "1: absolute 1e-9 floors on quantities that scale with prices"


@pytest.mark.parametrize(
    "command, config",
    [
        pytest.param("verify", _PRICES_1E7, marks=_found(_ITEM_1)),
        pytest.param("martingale", _PRICES_1E7 + "sigma = 0\n", marks=_found(_ITEM_1)),
        pytest.param("hedge", _PRICES_1E7 + "sigma = 0\n", marks=_found(_ITEM_1)),
        pytest.param("martingale", "n_paths = 8\nbase_steps = 4\n", marks=_found("3: the martingale gate has no stated size")),
        pytest.param(
            "hedge", "sigma = 0\nr = 0\nn_paths = 50\nbase_steps = 8\n",
            marks=_found("7: an exact sigma = r = 0 hedge fails its slope row"),
        ),
    ],
    ids=["item1-verify", "item1-martingale-sigma0", "item1-hedge-sigma0", "item3-martingale-8-paths", "item7-hedge-sigma-r-0"],
)
def test_open_found_configs_pass(tmp_path, command, config):
    # Configs on which a correct program fails its own gates. Each pin
    # turns red (XPASS, strict) in the change that mends its ROADMAP item.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
