import json
from dataclasses import asdict

import pytest

from nsbf_pricer import ConfigError, NumericsConfig
from nsbf_pricer.cli import build_parser, load_config, main, read_block, read_run
from nsbf_pricer.fd import FDGrid


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fast_config(tmp_path):
    """Small mesh keeps CLI runs quick; accuracy is not under test here."""
    cfg = {
        "model": {"type": "ejdcev", "beta": -1.0, "gamma": 2.0},
        "contract": {"style": "call", "K": 100.0, "L": 90.0, "U": 120.0, "T": 0.5},
        "numerics": {"mesh_points": 2001, "omega_max": 15.0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPrice:
    def test_price_json(self, capsys, fast_config):
        code, out, err = run_cli(capsys, "price", "--config", fast_config)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["price"] == pytest.approx(1.2574, abs=2e-3)
        assert payload["delta"] is None
        assert payload["diagnostics"]["identity_residual_alpha_sum"] < 1e-6
        assert payload["N_used"] >= 4

    def test_deterministic_output(self, capsys, fast_config):
        _, out1, _ = run_cli(capsys, "price", "--config", fast_config)
        _, out2, _ = run_cli(capsys, "price", "--config", fast_config)
        assert out1 == out2

    def test_greeks_json(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "greeks", "--config", fast_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(0.0469, abs=2e-3)
        assert payload["vega"] is not None
        assert payload["theta"] is not None

    def test_output_file(self, capsys, fast_config, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "price", "--config", fast_config, "--output", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["price"] > 0

    def test_flag_overrides(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "price", "--config", fast_config, "--nsbf-order", "12")
        assert code == 0
        assert json.loads(out)["M_used"] == 12


class TestConfigErrors:
    def test_invalid_barriers_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "contract": {"style": "call", "K": 100.0, "L": 120.0, "U": 90.0, "T": 0.5},
        }))
        code, _, err = run_cli(capsys, "price", "--config", path.as_posix())
        assert code == 2
        assert "contract: barriers need 0 < L < U, got L=120.0, U=90.0" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "price", "--preset", "nope")
        assert code == 2
        assert "unknown preset" in err

    def test_unknown_model_type(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"type": "heston", "beta": 0, "gamma": 0}}))
        code, _, err = run_cli(capsys, "price", "--config", path.as_posix())
        assert code == 2
        assert "model.type" in err

    def test_invalid_mesh_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--mesh", "10000")
        assert code == 2
        assert "config error" in err and "mesh_points" in err

    def test_removed_numerics_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"numerics": {"n_max": 5}}))
        code, _, err = run_cli(capsys, "price", "--config", path.as_posix())
        assert code == 2
        assert "unknown keys ['n_max']" in err

    def test_removed_grid_count_rejected(self, capsys, tmp_path):
        # the omega scan is sized from l(U); its point count is no setting
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"numerics": {"omega_grid_count": 100}}))
        code, _, err = run_cli(capsys, "price", "--config", path.as_posix())
        assert code == 2
        assert "unknown keys ['omega_grid_count']" in err
        with pytest.raises(SystemExit) as exc:
            main(["price", "--omega-grid", "100"])
        assert exc.value.code == 2

    # an omega_max implying more roots than the mesh resolves is refused by
    # name, before the scan: 1e12 once asked numpy for 78.6 TiB, 1e308 overflowed
    def test_omega_max_too_large_to_scan_refused(self, capsys, fast_config):
        for omega_max, roots in (("1e12", "5.4e+11"), ("1e308", "5.4e+307")):
            code, out, err = run_cli(capsys, "price", "--config", fast_config,
                                     "--omega-max", omega_max)
            assert (code, out) == (1, "")
            assert err == (
                f"error: ValueError: omega_max = {float(omega_max):g} implies about {roots} roots "
                "(omega_max l(U) / pi), more than the 1999 a 2001-point mesh can resolve\n"
            )

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "price", "--config", "/does/not/exist.json")
        assert code == 2

    # (subcommand, config file, what the message names): each is refused
    # before any solve, never dropped, truncated or left to the numerics
    MALFORMED = {
        "model-key": ("price", {"model": {"sigma_0": 0.40}}, "model: unknown keys ['sigma_0']"),
        "contract-key": ("price", {"contract": {"rebates": 5.0}},
                         "contract: unknown keys ['rebates']"),
        "top-level-key": ("price", {"numeric": {"mesh_points": 2001}},
                          "config: unknown keys ['numeric']"),
        "sweep-key": ("table", {"sweep": {"K": [100.0], "gama": [1.0]}},
                      "sweep: unknown keys ['gama']"),
        "output-format": ("price", {"output": {"format": "xml"}}, "output.format must be one of"),
        "output-key": ("price", {"output": {"fmt": "csv"}}, "output: unknown keys ['fmt']"),
        "fd-fraction": ("oracle-compare", {"fd": {"y_count": 801.5}},
                        "fd: y_count must be an integer >= 201, got 801.5"),
        "top-level-list": ("price", [1, 2], "config must be an object"),
        "numerics-scalar": ("price", {"numerics": 5}, "numerics must be an object"),
        "model-string": ("price", {"model": {"beta": "abc"}},
                         "model: EJDCEV parameters must be real numbers: beta"),
        # JSON true is a Python bool, which would otherwise read as the number 1
        "model-bool": ("price", {"model": {"beta": True}},
                       "model: EJDCEV parameters must be real numbers: beta"),
        "contract-bool": ("price", {"contract": {"T": True}}, "contract: contract T must be real"),
        "rebate-bool": ("price", {"contract": {"rebate": True}},
                        "contract: contract rebate must be real"),
        "numerics-bool": ("price", {"numerics": {"nsbf_order": True}},
                          "numerics.nsbf_order must be None or a non-negative integer, got True"),
        # the truncation rule is not a knob: the removed keys are unknown
        "removed-knobs": ("price", {"numerics": {"lambda_cutoff": 20, "lambda_decay_cap": 20}},
                          "numerics: unknown keys ['lambda_cutoff', 'lambda_decay_cap']"),
        "fd-string": ("oracle-compare", {"fd": {"y_count": "x"}}, "fd: y_count must be an integer"),
        "fd-too-small": ("oracle-compare", {"fd": {"y_count": 100}},
                         "fd: y_count must be an integer >= 201, got 100"),
        "fd-on-another-command": ("price", {"fd": {"t_count": 0.5}}, "fd: t_count"),
        "band-short": ("contrib", {"bands": [[1]]}, "bands must be a list of [n1, n2]"),
        "sweep-string": ("table", {"sweep": {"K": ["a"]}}, "sweep.K must be a non-empty list"),
        "sweep-strike-outside": ("table", {"sweep": {"K": [100.0, 200.0]}},
                                 "sweep.K: strike must satisfy L < K < U"),
    }

    # a command writes only its own formats; any other is refused, not ignored
    @pytest.mark.parametrize("command, fmt", [
        ("price", "csv"), ("greeks", "csv"), ("surface", "json"),
        ("check-coefficients", "json"), ("table", "json"),
    ])
    def test_format_the_command_does_not_write_exits_2(self, capsys, command, fmt):
        code, out, err = run_cli(capsys, command, "--preset", "table1-medium", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("config error: output.format") and f"for {command}" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_config_exits_2_naming_block_and_key(self, capsys, tmp_path, case):
        command, cfg, named = self.MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", path.as_posix())
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and named in err


class TestNumericsValidation:
    # every invalid value of a field raises ConfigError when the config is built
    BAD = {
        "mesh_points": [10000, 5, 1, 2001.0, "2001"],
        "nsbf_order": [-1, 2.5, True],
        "omega_max": [0.0, -15.0, float("nan"), float("inf"), True],
    }

    @pytest.mark.parametrize("field", sorted(BAD))
    def test_invalid_values_rejected(self, field):
        for value in self.BAD[field]:
            with pytest.raises(ConfigError, match=f"numerics.{field}"):
                NumericsConfig(**{field: value})

    def test_edge_values_accepted(self):
        NumericsConfig(mesh_points=6, nsbf_order=0, omega_max=1e-9)

    # the series is cut by lambda_n (T - t) <= NumericsConfig.lambda_decay_cap,
    # a class constant; neither the cap nor a cutoff can be set
    # (the config keys are refused by TestConfigErrors' removed-knobs case)
    @pytest.mark.parametrize("key", ["lambda_cutoff", "lambda_decay_cap"])
    def test_removed_knob_refused(self, key):
        with pytest.raises(TypeError):
            NumericsConfig(**{key: 20.0})
        with pytest.raises(SystemExit) as exc:
            main(["price", f"--{key.replace('_', '-')}", "20"])
        assert exc.value.code == 2


class TestSubcommands:
    def test_spectrum_csv(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "spectrum", "--config", fast_config, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,omega,lambda,norm_sq"
        assert len(lines) >= 5
        first = lines[1].split(",")
        assert int(first[0]) == 1 and float(first[2]) > 0

    def test_surface_csv_shape(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "surface", "--config", fast_config)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 102  # header + 101 time rows
        assert len(lines[1].split(",")) == 102  # t column + 101 prices

    def test_contrib_csv(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "contrib", "--config", fast_config, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "band,contribution"
        assert lines[-1].startswith("price,")
        total = sum(float(line.split(",")[1]) for line in lines[1:-1])
        assert total == pytest.approx(float(lines[-1].split(",")[1]), abs=1e-5)

    def test_check_coefficients_csv(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "check-coefficients", "--config", fast_config)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("y,res_alpha_sum")
        assert len(lines) == 2002
        worst = max(float(line.split(",")[1]) for line in lines[1:])
        assert worst < 1e-6

    def test_oracle_compare(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "oracle-compare", "--config", fast_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_gap"] < 2e-3

    def test_table_single_point(self, capsys, tmp_path, fast_config):
        cfg = json.loads(open(fast_config).read())
        cfg["sweep"] = {"K": [100.0], "beta": [-1.0], "gamma": [2.0]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "table", "--config", path.as_posix())
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "100" and cells[1] == "-1" and cells[2] == "2"
        assert float(cells[3]) == pytest.approx(1.2574, abs=2e-3)
        # put columns present
        assert float(cells[7]) == pytest.approx(0.1272, abs=2e-3)

    def test_table_needs_sweep(self, capsys, fast_config):
        code, _, err = run_cli(capsys, "table", "--config", fast_config)
        assert code == 2
        assert "sweep" in err


class TestPresets:
    # the NumericsConfig each preset resolves to, written out in full
    EXPECTED = {
        "table1-medium": dict(omega_max=15.0),
        "table3-short": dict(omega_max=100.0),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_resolved_numerics_pinned(self, name):
        args = build_parser().parse_args(["price", "--preset", name])
        numerics = read_run(load_config(args))[2]
        assert asdict(numerics) == dict(
            mesh_points=10001,
            nsbf_order=None,
            **self.EXPECTED[name],
        )

    # the model, contract and FD grid each preset resolves to, written out in
    # full: the presets list only what differs from the dataclass defaults
    HORIZON = {"table1-medium": (-1.0, 0.5), "table3-short": (-2.0, 1.0 / 360.0)}

    @pytest.mark.parametrize("name", sorted(HORIZON))
    def test_resolved_model_contract_and_grid_pinned(self, name):
        beta, T = self.HORIZON[name]
        cfg = load_config(build_parser().parse_args(["price", "--preset", name]))
        params, contract, _ = read_run(cfg)
        assert asdict(params) == dict(
            beta=beta, gamma=2.0, b=0.02, c=0.5, rbar=0.1, qbar=0.0, sigma0=0.25, y0=100.0
        )
        assert asdict(contract) == dict(
            style="call", L=90.0, U=120.0, T=T, K=100.0, rebate=0.0, payoff=None
        )
        grid = read_block("fd", cfg.get("fd", {}), FDGrid)
        assert asdict(grid) == dict(y_count=801, t_count=400, damping_steps=2)
