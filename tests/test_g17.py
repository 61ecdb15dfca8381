"""g17._g17, the vectorized format(x, ".17g") behind paths.csv, against
format itself: value sets that reach every branch of the kernel (decade
correction, round half to even, the carry to a new decade, fixed and
exponent layouts, trailing zeros) and every fallback value. Last, a
timing-free guard that simulate's values take the fast path: byte tests
pass even where every value falls back, so the fallback's calls are counted;
and a fresh-interpreter check that only simulate imports the module.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgelab import cli, g17


def _check(values):
    """Assert _g17 gives format(v, ".17g") for every v; return the count."""
    values = np.asarray(values, dtype=np.float64).ravel()
    cells = np.concatenate([g17._g17(values), np.full((values.size, 1), ord("\n"), np.uint8)], axis=1).ravel()
    got = cells[cells != 0].tobytes().decode().split("\n")[:-1]
    want = [format(v, ".17g") for v in values.tolist()]
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError(f"{values[bad]!r} ({values[bad:bad + 1].view(np.uint64)[0]:#x}): {got[bad]!r} != {want[bad]!r}")
    return values.size


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def _signed(values):
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    assert _check(bits.view(np.float64)) == 100_000


def test_log_uniform_magnitudes_of_both_signs():
    rng = np.random.default_rng(2)
    mags = 10.0 ** rng.uniform(-13, 17, 60_000)
    assert _check(_signed(mags)) == 120_000


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-12, 18)])
    _check(_signed(_neighbours(powers)))
    # Two ulps out as well: log10 may misplace the decade only this close.
    _check(_signed(_neighbours(_neighbours(powers))))


def test_range_edges_and_their_neighbours():
    edges = np.array([g17._G17_MIN, g17._G17_MAX])
    _check(_signed(_neighbours(_neighbours(edges))))


def test_few_bit_values_where_half_to_even_decides():
    # M * 2**j with M < 2**12 has a short exact decimal expansion, so the
    # 18th significant digit is often exactly 5 followed by zeros: a tie.
    m = np.arange(1, 2**12, 2, dtype=np.float64)
    values = np.ldexp(m[:, None], np.arange(-30, 12)[None, :]).ravel()
    _check(_signed(values))
    # A tie leaves exactly 5 after the 17th digit of the exact expansion
    # (".40e" is exact here: only values below 1e-2 have 18 or more
    # digits), and either parity of the 17th digit must occur.
    expansions = [format(v, ".40e").split("e")[0].replace(".", "") for v in values[values < 1e-2].tolist()]
    ties = [digits for digits in expansions if digits[17] == "5" and set(digits[18:]) <= {"0"}]
    assert len(ties) > 2000
    assert {int(digits[16]) % 2 for digits in ties} == {0, 1}


def test_carry_to_the_next_decade():
    # 17 nines round up to 1e+N: the digits 10**17 become 10**16.
    values = np.array([0.99999999999999999, 9.9999999999999999e-6, 99999.999999999993, 9.99999999999999986e14])
    _check(_signed(_neighbours(values)))


def test_values_outside_the_range_go_to_the_fallback(monkeypatch):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 9.999999999999999e-11, 1e15, 1e20, -1e300]
    seen = []

    def fallback(x):
        seen.append(x)
        return format(x, ".17g").encode()

    monkeypatch.setattr(g17, "_g17_fallback", fallback)
    mixed = np.array(specials + [1.5, -2.25e-3, 123456789.125])
    _check(mixed)
    assert len(seen) == len(specials)
    assert [format(v, ".17g") for v in seen] == [format(v, ".17g") for v in specials]


def test_empty_and_one_value():
    assert g17._g17(np.array([])).shape == (0, g17._G17_WIDTH)
    _check([100.0])
    _check([-0.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_float_is_formatted_as_format_does(values):
    _check(values)


# The default config, and the simulate-csv benchmark workload's (seed 1).
@pytest.mark.parametrize("config", ["", "n_paths = 10000\nseed = 1\n"], ids=["default", "simulate-csv"])
def test_simulate_formats_only_the_zero_dw_of_each_path_by_the_fallback(tmp_path, monkeypatch, config):
    seen = []

    def fallback(x):
        seen.append(x)
        return format(x, ".17g").encode()

    monkeypatch.setattr(g17, "_g17_fallback", fallback)
    cfg = cli.parse_config(config)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run("simulate", cfg, tmp_path) == 0
    assert len(seen) == cfg.n_paths
    assert set(seen) == {0.0}
    assert all(math.copysign(1.0, v) == 1.0 for v in seen)  # +0.0, never -0.0


def test_only_simulate_imports_the_formatter(tmp_path):
    # A fresh interpreter, as this one may have imported g17 already.
    driver = (
        "import sys\n"
        "from hedgelab import cli\n"
        "loaded = ['hedgelab.g17' in sys.modules]\n"
        "cfg = cli.parse_config('n_paths = 4\\nbase_steps = 4\\nrefinement_factors = 1,2\\n')\n"
        "for command in ('verify', 'simulate'):\n"
        "    cli.run(command, cfg, sys.argv[1] + '/' + command)\n"
        "    loaded.append('hedgelab.g17' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", driver, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, True]"
