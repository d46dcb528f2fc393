import re

import numpy as np
import pytest

from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.runconfig import RunConfig, config_to_text, parse_config
from frontdoor_lab.scm_sim import ScmConfig


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(seed=17, n=4242, m=4, grid=(-1.5, 2.5, 7), out="elsewhere")
        assert parse_config(config_to_text(cfg)) == cfg

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n == 20000 and cfg.m == 10
        assert cfg.grid == (-3.0, 3.0, 41)
        assert np.array_equal(cfg.grid_values(), np.linspace(-3, 3, 41))

    def test_scm_overrides(self):
        cfg = parse_config("sigma_z = 0.25\nmiss_z_b = 3.5\n")
        assert cfg.scm.sigma_z == 0.25
        assert (cfg.scm.miss_z_a, cfg.scm.miss_z_b) == (-1.0, 3.5)
        assert cfg.scm.z_amplitude == 4.0  # untouched default

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key(self):
        with pytest.raises(FrontdoorLabError, match="^line 1: unknown key 'bogus'$"):
            parse_config("bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(
            FrontdoorLabError, match="^line 1: expected 'key = value', got 'seed 3'$"
        ):
            parse_config("seed 3\n")
        with pytest.raises(FrontdoorLabError, match="^line 1: cannot parse 'grid = 1:2'$"):
            parse_config("grid = 1:2\n")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": 2.5}, "n must be int, got 2.5"),
            ({"m": True}, "m must be int, got True"),
            ({"seed": "1"}, "seed must be int, got '1'"),
            ({"out": 3}, "out must be str, got 3"),
            ({"grid": (0.0, 1.0, 2.5)}, "grid[2] must be int, got 2.5"),
            ({"grid": (0, 1.0, 3)}, "grid[0] must be float, got 0"),
            ({"grid": (-1.0, np.float64(1.0), 3)}, "grid[1] must be float, got np.float64(1.0)"),
            ({"grid": [-1.0, 1.0, 3]}, "grid must be tuple[float, float, int], got [-1.0, 1.0, 3]"),
            ({"scm": None}, "scm must be ScmConfig, got None"),
        ],
        ids=["n_float", "m_bool", "seed_str", "out_int", "grid_count_float", "grid_lo_int",
             "grid_hi_numpy", "grid_list", "scm_none"],
    )
    def test_rejects_a_value_of_another_type(self, fields, message):
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            RunConfig(**fields)


DEFAULT_TEXT = """\
seed = 1
n = 20000
m = 10
grid = -3.0:3.0:41
out = out
cycles = 10
donors = 5
n_knots = 20
subsample = 500
sigma_z = 0.1
z_amplitude = 4.0
y_shift = 0.5
y_linear = 0.3
u_coef = -0.1
x_prime_low = -2.0
x_prime_high = 2.0
miss_x_a = 2.0
miss_x_b = -1.0
miss_z_a = -1.0
miss_z_b = 4.0
"""

# every key set away from its default, in the order config_to_text writes them
ALL_KEYS_TEXT = """\
seed = 17
n = 4242
m = 4
grid = -1.5:2.25:7
out = some dir/run
cycles = 3
donors = 2
n_knots = 9
subsample = 77
sigma_z = 0.25
z_amplitude = 3.5
y_shift = 0.125
y_linear = -0.7
u_coef = 0.2
x_prime_low = -1.0
x_prime_high = 3.0
miss_x_a = 1.5
miss_x_b = -0.5
miss_z_a = 0.75
miss_z_b = 2.0
"""


class TestConfigText:
    def test_default_text(self):
        assert config_to_text(RunConfig()) == DEFAULT_TEXT

    def test_all_keys_round_trip(self):
        cfg = parse_config(ALL_KEYS_TEXT)
        default = RunConfig()
        for name in ("seed", "n", "m", "grid", "out", "cycles", "donors", "n_knots",
                     "subsample"):
            assert getattr(cfg, name) != getattr(default, name), name
        for name in ("sigma_z", "z_amplitude", "y_shift", "y_linear", "u_coef", "x_prime_low",
                     "x_prime_high", "miss_x_a", "miss_x_b", "miss_z_a", "miss_z_b"):
            assert getattr(cfg.scm, name) != getattr(default.scm, name), name
        assert config_to_text(cfg) == ALL_KEYS_TEXT
        assert parse_config(config_to_text(cfg)) == cfg


class TestScmConfigText:
    def test_round_trip(self):
        scm = ScmConfig(sigma_z=0.2, miss_x_a=1.5, miss_x_b=-0.5)
        cfg = parse_config(config_to_text(RunConfig(scm=scm)))
        assert cfg.scm == scm
