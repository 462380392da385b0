"""Command-line interface: price, greeks, surface, spectrum, contrib,
check-coefficients, oracle-compare and table subcommands over a JSON config.

The config is the defaults merged with the preset, the config file and the
flags.  read_block reads each block into the dataclass that holds its
defaults and checks; output, sweep and bands get shape checks.  An unknown
key or a rejected value is a ConfigError naming the block (exit 2), and an
output.format that the command does not write one naming the command.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from .engine import DoubleBarrierSolver, NumericsConfig
from .errors import ConfigError, NSBFError
from .fd import FDGrid, fd_price
from .model import EJDCEVParams, ejdcev_spec, is_number
from .presets import DEFAULT_BANDS, default_config, preset
from .pricing import OptionContract, is_band

# flag -> (block, key) it sets
_FLAGS = {
    "mesh": ("numerics", "mesh_points"),
    "omega_max": ("numerics", "omega_max"),
    "nsbf_order": ("numerics", "nsbf_order"),
    "format": ("output", "format"),
    "output": ("output", "path"),
}
_BLOCKS = ("model", "contract", "numerics", "fd", "output", "sweep", "bands")


def _require(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


def _require_known(where: str, block: dict, known):
    unknown = sorted(set(block) - set(known))
    _require(not unknown, f"{where}: unknown keys {unknown}")


def _require_object(where: str, value):
    _require(isinstance(value, dict), f"{where} must be an object, got {type(value).__name__}")


def read_block(name: str, block, cls, exclude=()):
    """cls built from a config block that may set any field of cls but the excluded ones.

    A block that is not an object, an unknown key or a value the constructor
    rejects raises a ConfigError naming the block.
    """
    _require_object(name, block)
    _require_known(name, block, {f.name for f in fields(cls)} - set(exclude))
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _merge(base: dict, override, where: str = "config") -> dict:
    _require_object(where, override)
    out = dict(base)
    for key, val in override.items():
        out[key] = _merge(out[key], val, key) if isinstance(out.get(key), dict) else val
    return out


def _check_shape(cfg: dict, command: str):
    """Top-level keys, the fd block (oracle-compare's alone) and output, sweep and bands."""
    _require_known("config", cfg, _BLOCKS)
    read_block("fd", cfg.get("fd", {}), FDGrid)
    out, formats = cfg["output"], COMMANDS[command][1]
    _require_known("output", out, ("format", "path"))
    _require(out["format"] is None or out["format"] in formats,
             f"output.format must be one of {list(formats)} or null for {command}, "
             f"got {out['format']!r}")
    _require(out["path"] is None or isinstance(out["path"], str),
             f"output.path must be a string or null, got {out['path']!r}")
    sweep = cfg.get("sweep", {})
    _require_object("sweep", sweep)
    _require_known("sweep", sweep, ("K", "beta", "gamma"))
    for key, vals in sweep.items():
        _require(isinstance(vals, list) and vals and all(map(is_number, vals)),
                 f"sweep.{key} must be a non-empty list of numbers, got {vals!r}")
    bands = cfg.get("bands", DEFAULT_BANDS)
    _require(isinstance(bands, list) and all(map(is_band, bands)),
             f"bands must be a list of [n1, n2], integers 1 <= n1 <= n2 or n2 null, got {bands!r}")


def load_config(args) -> dict:
    """The default config merged with the preset, the config file and the flags."""
    cfg = default_config()
    if args.preset:
        cfg = _merge(cfg, preset(args.preset))
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = _merge(cfg, loaded)
    for flag, (block, key) in _FLAGS.items():
        val = getattr(args, flag)
        if val is not None:
            cfg[block][key] = val
    _check_shape(cfg, args.command)
    return cfg


def read_run(cfg: dict) -> tuple[EJDCEVParams, OptionContract, NumericsConfig]:
    """The model parameters, the contract and the numerics of a loaded config."""
    model = dict(cfg["model"])
    kind = model.pop("type", None)
    _require(kind == "ejdcev", f"unknown model.type {kind!r} (built-in: 'ejdcev')")
    return (
        read_block("model", model, EJDCEVParams),
        read_block("contract", cfg["contract"], OptionContract, exclude=("payoff",)),
        read_block("numerics", cfg["numerics"], NumericsConfig),
    )


def _emit(text: str, cfg: dict):
    path = cfg["output"]["path"]
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


def _solver_for(cfg: dict) -> tuple[DoubleBarrierSolver, OptionContract, float]:
    """The solved basis of the configured model, the contract and the spot."""
    params, contract, numerics = read_run(cfg)
    solver = DoubleBarrierSolver(ejdcev_spec(params), contract.L, contract.U, numerics).solve()
    return solver, contract, params.y0


# Each command returns its output by format: a JSON payload, or CSV lines.
def cmd_price(cfg: dict, greeks: bool) -> dict:
    solver, contract, y0 = _solver_for(cfg)
    return {"json": asdict(solver.price(contract, y0, greeks=greeks))}


def cmd_surface(cfg: dict) -> dict:
    solver, contract, _ = _solver_for(cfg)
    t_grid, y_grid, surf = solver.surface(contract)
    lines = ["t\\y," + ",".join(f"{y:.10g}" for y in y_grid)]
    for ti, row in zip(t_grid, surf):
        lines.append(f"{ti:.10g}," + ",".join(f"{v:.12g}" for v in row))
    return {"csv": lines}


def cmd_spectrum(cfg: dict) -> dict:
    solver, contract, _ = _solver_for(cfg)
    basis = solver.pairs
    records = [
        {"n": i + 1, "omega": float(om), "lambda": float(lam), "norm_sq": float(norm)}
        for i, (om, lam, norm) in enumerate(zip(basis.omega, basis.lam, basis.norm_sq))
    ]
    lines = ["n,omega,lambda,norm_sq"]
    lines += [f"{r['n']},{r['omega']:.12g},{r['lambda']:.12g},{r['norm_sq']:.12g}" for r in records]
    return {"json": records, "csv": lines}


def cmd_contrib(cfg: dict) -> dict:
    solver, contract, y0 = _solver_for(cfg)
    bands = [tuple(b) for b in cfg.get("bands", DEFAULT_BANDS)]
    result = solver.price(contract, y0, bands=bands)
    lines = ["band,contribution"]
    for n1, n2, val in result.contributions.bands:
        label = f"{n1}-{n2}" if n2 is not None else f">{n1 - 1}"
        lines.append(f"{label},{val:.5f}")
    lines.append(f"steady,{result.contributions.steady:.5f}")
    lines.append(f"price,{result.price:.5f}")
    return {"json": asdict(result), "csv": lines}


def cmd_check_coefficients(cfg: dict) -> dict:
    solver, _, _ = _solver_for(cfg)
    res = solver.coeffs.check_residuals
    y = solver.mesh.points
    lines = ["y,res_alpha_sum,res_alpha_alt,res_beta_sum,res_beta_alt"]
    for i in range(len(y)):
        lines.append(",".join([f"{y[i]:.10g}"] + [f"{r[i]:.6e}" for r in res]))
    return {"csv": lines}


def cmd_oracle_compare(cfg: dict) -> dict:
    grid = read_block("fd", cfg.get("fd", {}), FDGrid)
    solver, contract, y0 = _solver_for(cfg)
    nsbf = solver.price(contract, y0).price
    fd = fd_price(solver.spec, contract, grid, y0)
    return {"json": {"nsbf_price": nsbf, "fd_price": fd, "abs_gap": abs(nsbf - fd)},
            "csv": ["nsbf_price,fd_price,abs_gap", f"{nsbf:.10f},{fd:.10f},{abs(nsbf - fd):.3e}"]}


def _fmt4(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.4f}"


def cmd_table(cfg: dict) -> dict:
    sweep = cfg.get("sweep")
    _require(sweep, "table needs a sweep block with K/beta/gamma lists")
    params, contract, _ = read_run(cfg)
    try:  # every strike's call and put, made before any solve
        legs = [(K, [replace(contract, style=style, K=K) for style in ("call", "put")])
                for K in sweep.get("K", [contract.K])]
    except ValueError as exc:
        raise ConfigError(f"sweep.K: {exc}") from exc
    betas = sweep.get("beta", [params.beta])
    gammas = sweep.get("gamma", [params.gamma])

    lines = [
        "K,beta,gamma,call_price,call_delta,call_vega,call_theta,"
        "put_price,put_delta,put_vega,put_theta"
    ]
    for beta in betas:
        for gamma in gammas:
            solver, _, y0 = _solver_for(_merge(cfg, {"model": {"beta": beta, "gamma": gamma}}))
            for K, contracts in legs:
                cells = [f"{K:g},{beta:g},{gamma:g}"]
                for leg in contracts:
                    r = solver.price(leg, y0, greeks=True)
                    cells.append(
                        f"{_fmt4(r.price)},{_fmt4(r.delta)},{_fmt4(r.vega)},{_fmt4(r.theta)}"
                    )
                lines.append(",".join(cells))
    return {"csv": lines}


# name -> (help line, formats it writes, the first when output.format is null, command)
COMMANDS = {
    "price": ("price one contract", ("json",), partial(cmd_price, greeks=False)),
    "greeks": ("price plus Delta/Vega/Theta", ("json",), partial(cmd_price, greeks=True)),
    "surface": ("value surface on a (t, y) grid as CSV", ("csv",), cmd_surface),
    "spectrum": ("eigenvalues, omegas and norms", ("json", "csv"), cmd_spectrum),
    "contrib": ("eigenindex band contributions to the price", ("json", "csv"), cmd_contrib),
    "check-coefficients": ("identity-residual curves as CSV", ("csv",), cmd_check_coefficients),
    "oracle-compare": ("spectral vs finite-difference price", ("json", "csv"),
                       cmd_oracle_compare),
    "table": ("sweep (K, beta, gamma) and print the price/Greek table", ("csv",), cmd_table),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbf-pricer",
        description="Double-barrier knock-out option pricing via a Bessel-series "
        "Sturm-Liouville expansion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--preset", metavar="NAME", help="named preset to start from")
        p.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
        p.add_argument("--mesh", type=int, metavar="M", help="mesh point count")
        p.add_argument("--omega-max", type=float, dest="omega_max", metavar="W")
        p.add_argument("--nsbf-order", type=int, dest="nsbf_order", metavar="M")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, formats, command = COMMANDS[args.command]
    try:
        cfg = load_config(args)
        fmt = cfg["output"]["format"] or formats[0]
        out = command(cfg)[fmt]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NSBFError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        _emit(json.dumps(out, indent=2, sort_keys=True, default=_json_default) + "\n", cfg)
    else:
        _emit("\n".join(out) + "\n", cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
