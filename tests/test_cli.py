import json
from dataclasses import asdict

import pytest

from nsbf_pricer import ConfigError, NumericsConfig
from nsbf_pricer.cli import build_parser, load_config, main, numerics_from_config


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
        "numerics": {"mesh_points": 2001, "omega_max": 15.0, "omega_grid_count": 100},
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

    def test_lambda_cutoff_flag(self, capsys, fast_config):
        # at T = 0.5 the decay rule keeps lambda_n <= 70 (4 pairs); the cutoff
        # 20 lies between lambda_2 ~ 14.1 and lambda_3 ~ 31.2
        args = build_parser().parse_args(["price", "--config", fast_config, "--lambda-cutoff", "20"])
        assert numerics_from_config(load_config(args)["numerics"]).lambda_cutoff == 20.0
        _, out, _ = run_cli(capsys, "price", "--config", fast_config)
        assert json.loads(out)["N_used"] == 4
        code, out, err = run_cli(capsys, "price", "--config", fast_config, "--lambda-cutoff", "20")
        assert code == 0, err
        assert json.loads(out)["N_used"] == 2


class TestConfigErrors:
    def test_invalid_barriers_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "contract": {"style": "call", "K": 100.0, "L": 120.0, "U": 90.0, "T": 0.5},
        }))
        code, _, err = run_cli(capsys, "price", "--config", path.as_posix())
        assert code == 2
        assert "contract.U" in err

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

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "price", "--config", "/does/not/exist.json")
        assert code == 2


class TestNumericsValidation:
    # every invalid value of a field raises ConfigError when the config is built
    BAD = {
        "mesh_points": [10000, 5, 1, 2001.0, "2001"],
        "nsbf_order": [-1, 2.5],
        "omega_max": [0.0, -15.0, float("nan"), float("inf")],
        "omega_grid_count": [1, 0, 100.0],
        "lambda_decay_cap": [0.0, -35.0, float("nan"), float("inf")],
        "lambda_cutoff": [0.0, -1.0, float("nan"), float("inf")],
    }

    @pytest.mark.parametrize("field", sorted(BAD))
    def test_invalid_values_rejected(self, field):
        for value in self.BAD[field]:
            with pytest.raises(ConfigError, match=f"numerics.{field}"):
                NumericsConfig(**{field: value})

    def test_edge_values_accepted(self):
        NumericsConfig(mesh_points=6, nsbf_order=0, omega_grid_count=2, lambda_cutoff=1e-9)


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
        "table1-medium": dict(omega_max=15.0, omega_grid_count=100),
        "table3-short": dict(omega_max=100.0, omega_grid_count=1000),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_resolved_numerics_pinned(self, name):
        args = build_parser().parse_args(["price", "--preset", name])
        numerics = numerics_from_config(load_config(args)["numerics"])
        assert asdict(numerics) == dict(
            mesh_points=10001,
            nsbf_order=None,
            lambda_decay_cap=35.0,
            lambda_cutoff=None,
            **self.EXPECTED[name],
        )
