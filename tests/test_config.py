"""Configuration parsing, overrides, and echo round-trips."""
from dataclasses import fields, is_dataclass

import pytest

from sjasim.cli import _OVERRIDE_FLAGS, SWEEP_AXES
from sjasim.config import (
    ConfigError,
    RunConfig,
    load_config,
    normalize_scheduler,
    parse_config_text,
    resolve,
    set_key,
)
from sjasim.simcore import SimConfig


class TestSchedulerAliases:
    def test_dash_and_underscore_spellings(self):
        assert normalize_scheduler("sja") == "sja"
        assert normalize_scheduler("first-fit") == "first_fit"
        assert normalize_scheduler("first_fit") == "first_fit"
        assert normalize_scheduler("Preempt") == "preempt_migrate"
        assert normalize_scheduler("preempt-migrate") == "preempt_migrate"

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError):
            normalize_scheduler("round-robin")


class TestSetKey:
    def test_typed_values(self):
        cfg = RunConfig()
        set_key(cfg, "risk.eps", "0.1")
        set_key(cfg, "cluster.gpus", "4")
        set_key(cfg, "cluster.slices_per_gpu", "20480, 10240")
        set_key(cfg, "engine.online_correction", "off")
        set_key(cfg, "engine.n_historical_runs", "none")
        set_key(cfg, "run.seeds", "0,1,2")
        sim = cfg.to_sim_config()
        assert sim.risk.eps == 0.1 and sim.gpus == 4
        assert sim.slices_per_gpu == (20480, 10240)
        assert sim.online_correction is False
        assert sim.n_historical_runs is None
        assert cfg.seeds == (0, 1, 2)

    def test_dynamic_budget_and_speedup_keys(self):
        cfg = RunConfig()
        set_key(cfg, "policy.budget.acme", "20000")
        set_key(cfg, "baseline.speedup.5120", "1.15")
        sim = cfg.to_sim_config()
        assert sim.policy.token_budgets == {"acme": 20000.0}
        assert sim.baseline.speedup_table == {5120: 1.15}

    def test_unknown_key_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="unknown config key"):
            set_key(cfg, "risk.epsilon", "0.1")
        with pytest.raises(ConfigError):
            set_key(cfg, "policy.budget.", "5")

    def test_bad_values_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            set_key(cfg, "risk.eps", "plenty")
        with pytest.raises(ConfigError):
            set_key(cfg, "risk.eps", "nan")
        with pytest.raises(ConfigError):
            set_key(cfg, "cluster.gpus", "2.5")
        with pytest.raises(ConfigError):
            set_key(cfg, "engine.online_correction", "mostly")


class TestParseText:
    def test_comments_blanks_and_precedence(self):
        text = """
        # run shape
        risk.eps = 0.08

        cluster.gpus = 2
        risk.eps = 0.12
        """
        sim = parse_config_text(text).to_sim_config()
        assert sim.risk.eps == 0.12  # later lines win
        assert sim.gpus == 2

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("risk.eps = 0.1\nwhat even\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("# a\n\nrisk.eps = high\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.conf")

    def test_offer_ttl_key_is_gone(self):
        # Offers are decided in the round that issues them; no ttl is read.
        with pytest.raises(ConfigError, match="line 1: unknown config key"):
            parse_config_text("protocol.offer_ttl_s = 60\n")


class TestValidate:
    def test_domain_checks(self):
        cfg = RunConfig()
        set_key(cfg, "risk.eps", "1.5")
        with pytest.raises(ConfigError, match="risk.eps"):
            cfg.validate()
        cfg = RunConfig()
        set_key(cfg, "risk.alpha_t", "1.0")
        with pytest.raises(ConfigError, match="risk.alpha_t"):
            cfg.validate()
        cfg = RunConfig()
        cfg.seeds = ()
        with pytest.raises(ConfigError, match="seeds"):
            cfg.validate()
        cfg = RunConfig()
        set_key(cfg, "policy.kind", "auction")
        with pytest.raises(ConfigError, match="policy.kind"):
            cfg.validate()
        cfg = RunConfig()
        set_key(cfg, "segmentation.tau_min_s", "900")
        set_key(cfg, "segmentation.tau_max_s", "300")  # SimConfig construction catches this
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("line", [
        "engine.failure_rate_per_hour = inf",  # `--failure-rate inf` never returned
        "engine.failure_rate_per_hour = -1",
        "engine.sim_time_cap_s = 0",
    ])
    def test_run_bounds_checked_before_any_run(self, line):
        cfg = parse_config_text(line)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_scheduler_normalized_in_place(self):
        cfg = RunConfig()
        cfg.scheduler = "first-fit"
        cfg.validate()
        assert cfg.scheduler == "first_fit"


class TestResolveRoundTrip:
    def test_echo_reparses_to_equal_config(self):
        cfg = RunConfig()
        set_key(cfg, "risk.eps", "0.75e-1")
        set_key(cfg, "segmentation.tau_min_s", "240")
        set_key(cfg, "policy.kind", "fair_tokens")
        set_key(cfg, "policy.budget.acme", "20000")
        set_key(cfg, "policy.budget.zen", "15000.5")
        set_key(cfg, "baseline.speedup.10240", "1.08")
        set_key(cfg, "engine.max_wait_s", "inf")
        echo = resolve(cfg)
        back = parse_config_text(echo)
        assert back == cfg
        # echo of the echo is byte-identical (canonical form reached)
        assert resolve(back) == echo

    def test_echo_is_sorted_and_complete(self):
        echo = resolve(RunConfig())
        keys = [line.split(" = ")[0] for line in echo.strip().splitlines()]
        assert keys == sorted(keys)
        assert "risk.eps" in keys and "cluster.catalog" in keys
        assert echo.endswith("\n")

    def test_float_repr_exact(self):
        cfg = RunConfig()
        set_key(cfg, "risk.eps", "0.1")
        echo = resolve(cfg)
        back = parse_config_text(echo)
        # no precision lost through the echo
        assert back.to_sim_config().risk.eps == cfg.to_sim_config().risk.eps == 0.1

    def test_to_sim_config_carries_everything(self):
        cfg = RunConfig()
        set_key(cfg, "policy.kind", "fair_tokens")
        set_key(cfg, "policy.budget.acme", "100")
        set_key(cfg, "baseline.speedup.5120", "1.15")
        set_key(cfg, "cluster.catalog", "5120,10240,20480")
        sim = cfg.to_sim_config()
        assert sim.policy.kind == "fair_tokens"
        assert sim.policy.token_budgets == {"acme": 100.0}
        assert sim.baseline.speedup_table == {5120: 1.15}
        assert sim.catalog.capacities_mb == (5120, 10240, 20480)
        # The built config owns its dicts: mutating them leaves cfg alone.
        sim.policy.token_budgets["zen"] = 1.0
        assert cfg.to_sim_config().policy.token_budgets == {"acme": 100.0}
        assert RunConfig().to_sim_config().policy.token_budgets == {}


DEFAULT_ECHO = """\
baseline.ckpt_interval_s = 600.0
baseline.migrate_bandwidth_mb_s = 1024.0
baseline.migrate_fixed_overhead_s = 5.0
cluster.catalog = 5120,10240,20480,40960
cluster.gpus = 1
cluster.slices_per_gpu = 20480,10240,5120,5120
engine.failure_rate_per_hour = 0.0
engine.max_oom_retries = 3
engine.max_wait_s = inf
engine.n_historical_runs = none
engine.online_correction = true
engine.sim_time_cap_s = 604800.0
engine.single_run_inflation = 1.1
policy.cost_rate = 1.0
policy.kind = fifo
protocol.lookahead_s = 1800.0
protocol.max_concurrent_subjobs_per_job = 1
protocol.round_cadence_s = 60.0
risk.alpha_t = 0.05
risk.eps = 0.05
run.output_dir = 
run.scenario = 
run.scheduler = sja
run.seeds = 0
segmentation.hysteresis_delta = 0.15
segmentation.smoothing_window_s = 120.0
segmentation.tau_max_s = 3600.0
segmentation.tau_min_s = 300.0
"""


class TestGoldenEcho:
    """The echo text is an artifact; these pin it byte for byte."""

    def test_default_echo(self):
        assert resolve(RunConfig()) == DEFAULT_ECHO
        assert len(DEFAULT_ECHO.splitlines()) == 28

    def test_flag_echo(self, monkeypatch):
        import sjasim.cli

        seen = []
        monkeypatch.setattr(sjasim.cli, "cmd_run", lambda cfg: seen.append(cfg) or 0)
        argv = ["run", "--scenario", "scenario.csv", "--out", "out", "--gpus", "2",
                "--tau-max", "900", "--budget", "acme=20000", "--speedup", "5120=1.15"]
        assert sjasim.cli.main(argv) == 0
        want = (
            DEFAULT_ECHO
            .replace("cluster.gpus = 1\n", "cluster.gpus = 2\n")
            .replace("segmentation.tau_max_s = 3600.0\n", "segmentation.tau_max_s = 900.0\n")
            .replace("run.output_dir = \n", "run.output_dir = out\n")
            .replace("run.scenario = \n", "run.scenario = scenario.csv\n")
            .replace("cluster.catalog", "baseline.speedup.5120 = 1.15\ncluster.catalog")
            .replace("policy.cost_rate", "policy.budget.acme = 20000.0\npolicy.cost_rate")
        )
        assert resolve(seen[0]) == want

    def test_key_order_in_a_file_does_not_matter(self):
        # tau_min 4000 exceeds the default tau_max 3600 until the next line.
        cfg = parse_config_text(
            "segmentation.tau_min_s = 4000\nsegmentation.tau_max_s = 5000\n"
        )
        cfg.validate()
        assert cfg.to_sim_config().seg.tau_min_s == 4000.0


class TestKeyCoverage:
    """Replaces an import-time assert: each engine knob has exactly one key."""

    FAMILIES = {"policy.budget.", "baseline.speedup."}

    def echo_keys(self, cfg):
        return {line.split(" = ")[0] for line in resolve(cfg).splitlines()}

    def test_every_engine_field_maps_to_one_key(self):
        def leaves(obj, path):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if is_dataclass(value):
                    yield from leaves(value, f"{path}{f.name}.")
                else:
                    yield f"{path}{f.name}", f.metadata.get("key")

        found = dict(leaves(SimConfig(), ""))
        assert [name for name, key in found.items() if key is None] == []
        keys = [key for key in found.values() if key is not None]
        assert len(keys) == len(set(keys))
        run_keys = {"run.scenario", "run.scheduler", "run.seeds", "run.output_dir"}
        assert self.echo_keys(RunConfig()) == set(keys) - self.FAMILIES | run_keys
        assert self.FAMILIES <= set(keys)

    def test_flags_and_sweep_axes_name_known_keys(self):
        known = self.echo_keys(RunConfig())
        assert {key for _flag, key, _help in _OVERRIDE_FLAGS} <= known
        assert set(SWEEP_AXES.values()) <= known

    def test_key_families_round_trip(self):
        cfg = RunConfig()
        set_key(cfg, "policy.budget.acme", "20000")
        set_key(cfg, "baseline.speedup.5120", "1.15")
        assert self.echo_keys(cfg) - self.echo_keys(RunConfig()) == {
            "policy.budget.acme", "baseline.speedup.5120"
        }
        assert parse_config_text(resolve(cfg)) == cfg
