import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import cli
from hedgelab.cli import RunManifest, config_to_text, main, parse_config, run
from hedgelab.paths import GbmParams


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
]


@pytest.mark.parametrize(
    "flags, config, key",
    [([], f"{key} = {value}\n", key) for key, value in _OUT_OF_RANGE]
    + [(["--seed", "-1"], "", "seed"), (["--paths", "0"], "", "n_paths")],
    ids=[f"{key}={value}" for key, value in _OUT_OF_RANGE] + ["--seed=-1", "--paths=0"],
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


def test_config_text_round_trip():
    cfg = parse_config("sigma = 0.31\nn_paths = 123\nrefinement_factors = 1,3,9\nstrike = 95\n")
    assert parse_config(config_to_text(cfg)) == cfg


def test_manifest_round_trip():
    cfg = parse_config("seed = 9\nsigma = 0.15\n")
    manifest = RunManifest(
        command="verify", version="0.1.0", seed=cfg.seed, config=cfg, outputs=("a.csv",)
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


def test_run_simulate_writes_paths_and_ledger(tmp_path):
    cfg = parse_config("n_paths = 3\nbase_steps = 4\n")
    assert run("simulate", cfg, tmp_path) == 0
    paths_lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert paths_lines[0] == "path,index,t,S,beta,dW"
    assert len(paths_lines) == 1 + 3 * 5
    assert (tmp_path / "ledger_path0.csv").exists()


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

    failing = ExperimentResult(
        "martingale", (ResultRow("stub", 0.0, 0.0, "fail"),), "fail"
    )
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


def test_main_martingale_single_path_is_usage_error(tmp_path, capsys):
    status = main(["martingale", "--paths", "1", "--out", str(tmp_path / "out")])
    assert status == 2
    assert "n_paths >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "martingale.csv").exists()


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
