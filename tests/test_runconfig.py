import numpy as np
import pytest

from frontdoor_lab.errors import ConfigError
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
        assert cfg.scm.miss_z_params == (-1.0, 3.5)
        assert cfg.scm.z_amplitude == 4.0  # untouched default

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("seed 3\n")
        with pytest.raises(ConfigError):
            parse_config("grid = 1:2\n")

    def test_derived_configs_share_root_seed(self):
        cfg = RunConfig(seed=11)
        assert cfg.imputation_config().m == cfg.m
        a = cfg.estimator_config("mi").seed
        b = cfg.estimator_config("cc").seed
        assert a != b
        assert cfg.estimator_config("mi").seed == a  # deterministic derivation


class TestScmConfigText:
    def test_round_trip(self):
        scm = ScmConfig(sigma_z=0.2, miss_x_params=(1.5, -0.5))
        cfg = parse_config(config_to_text(RunConfig(scm=scm)))
        assert cfg.scm == scm
