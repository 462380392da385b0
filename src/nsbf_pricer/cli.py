"""Command-line interface: price, greeks, surface, spectrum, contrib,
check-coefficients, oracle-compare and table subcommands over a JSON config."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .engine import DoubleBarrierSolver, NumericsConfig
from .errors import ConfigError, NSBFError
from .fd import FDGrid, fd_price
from .model import DiffusionSpec, EJDCEVParams, ejdcev_spec
from .presets import DEFAULT_BANDS, default_config, preset
from .pricing import OptionContract

_FLAG_TO_NUMERIC = {
    "mesh": "mesh_points",
    "omega_max": "omega_max",
    "nsbf_order": "nsbf_order",
    "lambda_cutoff": "lambda_cutoff",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbf-pricer",
        description="Double-barrier knock-out option pricing via a Bessel-series "
        "Sturm-Liouville expansion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("price", "price one contract"),
        ("greeks", "price plus Delta/Vega/Theta"),
        ("surface", "value surface on a (t, y) grid as CSV"),
        ("spectrum", "eigenvalues, omegas and norms"),
        ("contrib", "eigenindex band contributions to the price"),
        ("check-coefficients", "identity-residual curves as CSV"),
        ("oracle-compare", "spectral vs finite-difference price"),
        ("table", "sweep (K, beta, gamma) and print the price/Greek table"),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--preset", metavar="NAME", help="named preset to start from")
        p.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], help="output format")
        p.add_argument("--mesh", type=int, metavar="M", help="mesh point count")
        p.add_argument("--omega-max", type=float, dest="omega_max", metavar="W")
        p.add_argument("--nsbf-order", type=int, dest="nsbf_order", metavar="M")
        p.add_argument("--lambda-cutoff", type=float, dest="lambda_cutoff", metavar="X")
    return parser


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(args) -> dict:
    cfg = default_config()
    if args.preset:
        try:
            cfg = _merge(cfg, preset(args.preset))
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = _merge(cfg, json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    numerics = cfg.setdefault("numerics", {})
    for flag, key in _FLAG_TO_NUMERIC.items():
        val = getattr(args, flag, None)
        if val is not None:
            numerics[key] = val
    if args.format:
        cfg.setdefault("output", {})["format"] = args.format
    if args.output:
        cfg.setdefault("output", {})["path"] = args.output
    return cfg


def model_from_config(block: dict) -> tuple[DiffusionSpec, float]:
    if not isinstance(block, dict):
        raise ConfigError("model block missing")
    kind = block.get("type", "ejdcev")
    if kind != "ejdcev":
        raise ConfigError(f"unknown model.type {kind!r} (built-in: 'ejdcev')")
    try:
        params = EJDCEVParams(
            beta=float(block["beta"]),
            gamma=float(block["gamma"]),
            b=float(block.get("b", 0.02)),
            c=float(block.get("c", 0.5)),
            rbar=float(block.get("rbar", 0.1)),
            qbar=float(block.get("qbar", 0.0)),
            sigma0=float(block.get("sigma0", 0.25)),
            y0=float(block.get("y0", 100.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"model.{exc.args[0]} missing") from exc
    return ejdcev_spec(params), params.y0


def contract_from_config(block: dict) -> OptionContract:
    if not isinstance(block, dict):
        raise ConfigError("contract block missing")
    try:
        L, U = float(block["L"]), float(block["U"])
        if U <= L or L <= 0:
            raise ConfigError("contract.U must exceed contract.L > 0")
        return OptionContract(
            style=block.get("style", "call"),
            L=L,
            U=U,
            T=float(block["T"]),
            K=float(block["K"]) if block.get("K") is not None else None,
            rebate=float(block.get("rebate", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"contract.{exc.args[0]} missing") from exc
    except ValueError as exc:
        raise ConfigError(f"contract: {exc}") from exc


def numerics_from_config(block: dict) -> NumericsConfig:
    known = {f for f in NumericsConfig.__dataclass_fields__}
    bad = set(block) - known
    if bad:
        raise ConfigError(f"numerics: unknown keys {sorted(bad)}")
    return NumericsConfig(**block)


def _emit(text: str, cfg: dict):
    path = cfg.get("output", {}).get("path")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(payload, cfg: dict):
    _emit(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n", cfg)


def _solver_for(cfg: dict) -> tuple[DoubleBarrierSolver, OptionContract, float]:
    """The solved basis of the configured model, the contract and the spot."""
    spec, y0 = model_from_config(cfg.get("model"))
    contract = contract_from_config(cfg.get("contract"))
    numerics = numerics_from_config(cfg.get("numerics", {}))
    solver = DoubleBarrierSolver(spec, contract.L, contract.U, numerics).solve()
    return solver, contract, y0


def cmd_price(cfg: dict, greeks: bool) -> int:
    solver, contract, y0 = _solver_for(cfg)
    result = solver.price(contract, y0, greeks=greeks)
    _dump_json(asdict(result), cfg)
    return 0


def cmd_surface(cfg: dict) -> int:
    solver, contract, _ = _solver_for(cfg)
    t_grid, y_grid, surf = solver.surface(contract)
    lines = ["t\\y," + ",".join(f"{y:.10g}" for y in y_grid)]
    for ti, row in zip(t_grid, surf):
        lines.append(f"{ti:.10g}," + ",".join(f"{v:.12g}" for v in row))
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_spectrum(cfg: dict) -> int:
    solver, contract, _ = _solver_for(cfg)
    basis = solver.pairs
    records = [
        {"n": i + 1, "omega": float(om), "lambda": float(lam), "norm_sq": float(norm)}
        for i, (om, lam, norm) in enumerate(zip(basis.omega, basis.lam, basis.norm_sq))
    ]
    if cfg.get("output", {}).get("format") == "csv":
        lines = ["n,omega,lambda,norm_sq"]
        lines += [f"{r['n']},{r['omega']:.12g},{r['lambda']:.12g},{r['norm_sq']:.12g}" for r in records]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _dump_json(records, cfg)
    return 0


def cmd_contrib(cfg: dict) -> int:
    solver, contract, y0 = _solver_for(cfg)
    bands = [tuple(b) for b in cfg.get("bands", DEFAULT_BANDS)]
    result = solver.price(contract, y0, bands=bands)
    if cfg.get("output", {}).get("format") == "csv":
        lines = ["band,contribution"]
        for n1, n2, val in result.contributions.bands:
            label = f"{n1}-{n2}" if n2 is not None else f">{n1 - 1}"
            lines.append(f"{label},{val:.5f}")
        lines.append(f"steady,{result.contributions.steady:.5f}")
        lines.append(f"price,{result.price:.5f}")
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _dump_json(asdict(result), cfg)
    return 0


def cmd_check_coefficients(cfg: dict) -> int:
    solver, _, _ = _solver_for(cfg)
    res = solver.coeffs.check_residuals
    y = solver.mesh.points
    lines = ["y,res_alpha_sum,res_alpha_alt,res_beta_sum,res_beta_alt"]
    for i in range(len(y)):
        lines.append(",".join([f"{y[i]:.10g}"] + [f"{r[i]:.6e}" for r in res]))
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_oracle_compare(cfg: dict) -> int:
    solver, contract, y0 = _solver_for(cfg)
    nsbf = solver.price(contract, y0).price
    grid_cfg = cfg.get("fd", {})
    grid = FDGrid(
        y_count=int(grid_cfg.get("y_count", 801)),
        t_count=int(grid_cfg.get("t_count", 400)),
        damping_steps=int(grid_cfg.get("damping_steps", 2)),
    )
    fd = fd_price(solver.spec, contract, grid, y0)
    payload = {"nsbf_price": nsbf, "fd_price": fd, "abs_gap": abs(nsbf - fd)}
    if cfg.get("output", {}).get("format") == "csv":
        _emit("nsbf_price,fd_price,abs_gap\n"
              f"{nsbf:.10f},{fd:.10f},{abs(nsbf - fd):.3e}\n", cfg)
    else:
        _dump_json(payload, cfg)
    return 0


def _fmt4(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.4f}"


def cmd_table(cfg: dict) -> int:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("table needs a sweep block with K/beta/gamma lists")
    strikes = [float(k) for k in sweep.get("K", [cfg["contract"]["K"]])]
    betas = [float(b) for b in sweep.get("beta", [cfg["model"]["beta"]])]
    gammas = [float(g) for g in sweep.get("gamma", [cfg["model"]["gamma"]])]

    lines = [
        "K,beta,gamma,call_price,call_delta,call_vega,call_theta,"
        "put_price,put_delta,put_vega,put_theta"
    ]
    for beta in betas:
        for gamma in gammas:
            model_cfg = dict(cfg["model"], beta=beta, gamma=gamma)
            spec, y0 = model_from_config(model_cfg)
            base_contract = contract_from_config(cfg["contract"])
            numerics = numerics_from_config(cfg.get("numerics", {}))
            solver = DoubleBarrierSolver(spec, base_contract.L, base_contract.U, numerics)
            solver.solve()
            for K in strikes:
                cells = [f"{K:g},{beta:g},{gamma:g}"]
                for style in ("call", "put"):
                    contract = OptionContract(
                        style=style, L=base_contract.L, U=base_contract.U,
                        T=base_contract.T, K=K, rebate=base_contract.rebate,
                    )
                    r = solver.price(contract, y0, greeks=True)
                    cells.append(
                        f"{_fmt4(r.price)},{_fmt4(r.delta)},{_fmt4(r.vega)},{_fmt4(r.theta)}"
                    )
                lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "price":
            return cmd_price(cfg, greeks=False)
        if args.command == "greeks":
            return cmd_price(cfg, greeks=True)
        if args.command == "surface":
            return cmd_surface(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "contrib":
            return cmd_contrib(cfg)
        if args.command == "check-coefficients":
            return cmd_check_coefficients(cfg)
        if args.command == "oracle-compare":
            return cmd_oracle_compare(cfg)
        if args.command == "table":
            return cmd_table(cfg)
        raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NSBFError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
