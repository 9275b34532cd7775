"""Command-line front end.

Subcommands: solve, fixed-points, check-kappa2, check-kappa3, check-special,
duration, simulate, sweep.  Output goes to stdout or --output as JSON or
RFC-4180 CSV; identical configuration and seed produce byte-identical
output.  Exit status: 0 success, 2 validation error, 3 non-convergence or an
internal-consistency failure (no trustworthy numerical result).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys

import numpy as np

from . import criteria, fixpoint, oracle
from .fixpoint import EdgeWeightLaw, GameSpec
from .offspring import _float_param, _int_param, distribution_from_json


class CliError(ValueError):
    """Configuration problem; reported with exit status 2."""


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

_FAMILY_PARAMS = {
    "dirac": ("m",),
    "uniform": ("m",),
    "binomial": ("n", "pi"),
    "poisson": ("lam",),
    "negbinomial": ("r", "pi"),
    "geometric": ("pi",),
    "twopoint": ("pi", "d"),
    "explicit": ("pmf",),
}

_DEFAULTS = {
    "kappa": 3,
    "p0": None,
    "p1": None,
    "tol": fixpoint.DEFAULT_TOL,
    "max_iter": fixpoint.DEFAULT_MAX_ITER,
    "draw_epsilon": fixpoint.DEFAULT_DRAW_EPSILON,
    "positive_threshold": fixpoint.DEFAULT_POSITIVE_THRESHOLD,
    "cluster_radius": fixpoint.DEFAULT_CLUSTER_RADIUS,
    "horizon": 6,
    "samples": 10000,
    "seed": 0,
    "node_cap": oracle.DEFAULT_NODE_CAP,
    "jobs": 1,
    "format": "json",
    "output": "-",
    "alpha": None,
    "family": None,
    "m": None, "n": None, "pi": None, "lam": None, "r": None, "d": None, "pmf": None,
    "what": "solve",
    "grid_p0": None,
    "grid_p1": None,
    "grid_param": None,
    "count_fixed_points": False,
}

# typed at the boundary: flags by argparse, config-file values here
_INT_FIELDS = ("kappa", "max_iter", "horizon", "samples", "seed", "node_cap", "jobs")
_FLOAT_FIELDS = ("p0", "p1", "tol", "draw_epsilon", "positive_threshold", "cluster_radius", "alpha")


def _fmt(value):
    """Round floats to 9 significant digits, recursively, for stable output."""
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.9g}")
    if isinstance(value, (int, np.integer, bool, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    return value


def _fmt_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _emit(payload, rows, header, config) -> None:
    """Write the command result as JSON (payload) or CSV (rows, iterated once, and header)."""
    if config["format"] == "json":
        text = json.dumps(_fmt(payload), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row[col]) for col in header])
        text = buf.getvalue()
    if config["output"] in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(config["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"output: cannot write {config['output']}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="percgame",
                                     description="Percolation games on edge-weighted branching trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, law=True, knobs=True):
        p.add_argument("--config", help="JSON config file; explicit flags take precedence")
        p.add_argument("--family", choices=sorted(_FAMILY_PARAMS))
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--pi", type=float)
        p.add_argument("--lam", "--lambda", dest="lam", type=float)
        p.add_argument("--r", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--pmf", help="comma-separated probabilities for the explicit family")
        if law:
            p.add_argument("--kappa", type=int)
            p.add_argument("--p0", type=float)
            p.add_argument("--p1", type=float)
        if knobs:
            p.add_argument("--tol", type=float)
            p.add_argument("--max-iter", dest="max_iter", type=int)
            p.add_argument("--draw-epsilon", dest="draw_epsilon", type=float)
            p.add_argument("--positive-threshold", dest="positive_threshold", type=float)
            p.add_argument("--cluster-radius", dest="cluster_radius", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="output path; '-' for stdout")
        p.add_argument("--format", choices=["json", "csv"])

    p = sub.add_parser("solve", help="loss/win/draw matrices for one parameter point")
    add_common(p)

    p = sub.add_parser("fixed-points", help="multi-start fixed-point search")
    add_common(p)

    p = sub.add_parser("check-kappa2", help="exact draw dichotomy at target capital 2")
    add_common(p, knobs=False)

    p = sub.add_parser("check-kappa3", help="contraction bounds at target capital 3")
    add_common(p)
    p.add_argument("--count-fixed-points", action="store_true", default=None,
                   help="also report max E and the number of fixed points found")

    p = sub.add_parser("check-special", help="ratio-form certificate on the binary tree")
    add_common(p, knobs=False)
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("duration", help="finite expected duration certificate")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo oracle estimates")
    add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--node-cap", dest="node_cap", type=int)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("sweep", help="run a check over a parameter grid")
    add_common(p)
    p.add_argument("--what", choices=["solve", "check-kappa2", "check-kappa3"])
    p.add_argument("--grid-p0", help="comma-separated p0 values")
    p.add_argument("--grid-p1", help="comma-separated p1 values")
    p.add_argument("--grid-param", action="append",
                   help="NAME=v1,v2,... distribution parameter values to sweep")
    p.add_argument("--count-fixed-points", action="store_true", default=None)
    p.add_argument("--jobs", type=int)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over the optional config file over defaults.

    The PERCGAME_SEED environment variable supplies the seed only when
    neither a flag nor the config file does.
    """
    config = dict(_DEFAULTS)
    file_conf = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise CliError("config: top-level JSON object expected")
    for key, value in file_conf.items():
        key = key.replace("-", "_")
        if key not in config:
            raise CliError(f"config: unknown field {key!r}")
        config[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            config[key] = value
    if config["seed"] == _DEFAULTS["seed"] and args.__dict__.get("seed") is None \
            and "seed" not in file_conf and os.environ.get("PERCGAME_SEED"):
        try:
            config["seed"] = int(os.environ["PERCGAME_SEED"])
        except ValueError as exc:
            raise CliError("PERCGAME_SEED: integer expected") from exc
    for name in _INT_FIELDS:
        config[name] = _int_param(config, name)
    for name in _FLOAT_FIELDS:
        if config[name] is not None or _DEFAULTS[name] is not None:
            _float_param(config, name)
    return config


def _build_dist(config):
    family = config.get("family")
    if not family:
        raise CliError("family: an offspring family is required")
    if family not in _FAMILY_PARAMS:
        raise CliError(f"family: unknown offspring family {family!r}")
    params = {name: config[name] for name in _FAMILY_PARAMS[family] if config.get(name) is not None}
    if isinstance(params.get("pmf"), str):
        params["pmf"] = _parse_grid(params["pmf"], "pmf")
    return distribution_from_json({"family": family, "params": params})


def _build_law(config) -> EdgeWeightLaw:
    p0, p1 = config.get("p0"), config.get("p1")
    if p0 is None or p1 is None:
        raise CliError("p0/p1: both edge-weight probabilities are required")
    if p0 + p1 > 1.0 + 1e-12:
        raise CliError("p0/p1: p0 + p1 must not exceed 1")
    return EdgeWeightLaw.from_p0_p1(float(p0), float(p1))


def _build_spec(config, kappa=None) -> GameSpec:
    """The configured game, at target capital kappa if given, else config["kappa"]."""
    return GameSpec(kappa or config["kappa"], _build_dist(config), _build_law(config))


def _spec_row(spec: GameSpec) -> dict:
    """Leading columns of a one-row table: the offspring law, p0 and p1."""
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.dist.params().items()))
    return {"distribution": f"{spec.dist.family}({params})", "p0": spec.law.p_0,
            "p1": spec.law.p_1}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _ij_rows(n, **columns):
    """CSV rows over the capital pairs (i, j) in row-major order.

    A column is an n x n matrix, read at [i - 1][j - 1], or one value for every
    pair.  The rows are generated as `_emit` writes them, so JSON output builds none.
    """
    names = ("i", "j", *columns)
    values = zip(*(np.broadcast_to(col, (n, n)).ravel().tolist() for col in columns.values()))
    for ij, row in zip(itertools.product(range(1, n + 1), repeat=2), values):
        yield dict(zip(names, ij + row))


def _solve(spec: GameSpec, config):
    return fixpoint.solve(spec, tol=config["tol"], max_iter=config["max_iter"],
                          draw_epsilon=config["draw_epsilon"])


def _fixed_points(spec: GameSpec, config) -> list:
    return fixpoint.find_fixed_points(spec, tol=config["tol"], max_iter=config["max_iter"],
                                      cluster_radius=config["cluster_radius"])


def _status(result) -> int:
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


# A row function maps (spec, config) to (one table row, exit status, what else
# its command prints); `sweep` runs it once per grid cell.

def _solve_row(spec: GameSpec, config):
    result = _solve(spec, config)
    row = _spec_row(spec)
    sep = "_" if spec.size >= 10 else ""       # d1_11 and d11_1, not two d111
    row.update((f"d{i + 1}{sep}{j + 1}", d) for (i, j), d in np.ndenumerate(result.D))
    return row, _status(result), None


def _kappa2_row(spec: GameSpec, config):
    zero = criteria.kappa2_draw_zero(spec.dist, spec.law)
    return {**_spec_row(spec), "draw_zero": zero}, EXIT_OK, None


def _kappa3_row(spec: GameSpec, config):
    bounds = criteria.kappa3_bounds(spec.dist, spec.law)
    row = {**_spec_row(spec), "E11": bounds.E[0, 0], "E12": bounds.E[0, 1],
           "E21": bounds.E[1, 0], "E22": bounds.E[1, 1],
           "max_E": float(np.max(bounds.E)),
           "contraction_holds": criteria.kappa3_contraction_holds(bounds)}
    if config["count_fixed_points"]:
        row["fixed_point_count"] = len(_fixed_points(spec, config))
    return row, EXIT_OK, bounds


def _cmd_solve(config) -> int:
    spec = _build_spec(config)
    result = _solve(spec, config)
    verdicts = None
    if result.converged:
        verdicts = [[v.value for v in row] for row in
                    fixpoint.classify_draw(result, positive_threshold=config["positive_threshold"])]
    payload = {"spec": spec.to_json(), "result": result.to_json_dict(), "verdicts": verdicts}
    rows = _ij_rows(spec.size, ell=result.L, w=result.W, d=result.D,
                    verdict="" if verdicts is None else verdicts)
    _emit(payload, rows, ["i", "j", "ell", "w", "d", "verdict"], config)
    return _status(result)


def _cmd_fixed_points(config) -> int:
    spec = _build_spec(config)
    points = _fixed_points(spec, config)
    payload = {"spec": spec.to_json(), "count": len(points),
               "fixed_points": [p.tolist() for p in points]}
    rows = (row for idx, p in enumerate(points) for row in _ij_rows(spec.size, index=idx, value=p))
    _emit(payload, rows, ["index", "i", "j", "value"], config)
    return EXIT_OK


def _cmd_check_kappa2(config) -> int:
    spec = _build_spec(config, kappa=2)
    row, _, _ = _kappa2_row(spec, config)
    payload = {"family": spec.dist.to_json(), "p0": row["p0"], "p1": row["p1"],
               "draw_zero": row["draw_zero"]}
    _emit(payload, [row], ["distribution", "p0", "p1", "draw_zero"], config)
    return EXIT_OK


def _cmd_check_kappa3(config) -> int:
    spec = _build_spec(config, kappa=3)
    row, _, bounds = _kappa3_row(spec, config)
    payload = {"spec": spec.to_json(), "A": bounds.A.tolist(), "B": bounds.B.tolist(),
               "E": bounds.E.tolist(), "max_E": row["max_E"],
               "contraction_holds": row["contraction_holds"]}
    header = ["distribution", "p0", "p1", "E11", "E12", "E21", "E22", "contraction_holds"]
    if config["count_fixed_points"]:
        payload["fixed_point_count"] = row["fixed_point_count"]
        header = header[:-1] + ["max_E", "fixed_point_count", "contraction_holds"]
    _emit(payload, [row], header, config)
    return EXIT_OK


def _cmd_check_special(config) -> int:
    alpha = config.get("alpha")
    if alpha is None:
        raise CliError("alpha: required for check-special")
    if alpha < 0:
        raise CliError("alpha: must be non-negative")
    if config.get("family") is not None:
        if config["family"] != "dirac" or config.get("m") != 2:
            raise CliError("family: the ratio certificate applies to the dirac family with m=2")
    if config.get("p0") is not None or config.get("p1") is not None:
        law = _build_law(config)
        expected = criteria.ratio_law(alpha)
        if (abs(law.p_0 - expected.p_0) > 1e-9 or abs(law.p_1 - expected.p_1) > 1e-9
                or abs(law.p_minus1 - expected.p_minus1) > 1e-9):
            raise CliError("p0/p1: law does not match the 1:alpha:alpha^2 ratio form")
    certified = criteria.kappa3_special_ratio(alpha)
    payload = {"alpha": alpha, "certified_draws_zero": certified,
               "law": criteria.ratio_law(alpha).to_json()}
    rows = [{"alpha": alpha, "certified_draws_zero": certified}]
    _emit(payload, rows, ["alpha", "certified_draws_zero"], config)
    return EXIT_OK


def _cmd_duration(config) -> int:
    spec = _build_spec(config)
    result = _solve(spec, config)
    if not result.converged:
        sys.stderr.write("duration: fixed-point iteration did not converge\n")
        return EXIT_NONCONVERGENCE
    report = criteria.duration_criterion(spec, result)
    payload = {"spec": spec.to_json(), "report": report.to_json_dict()}
    n = spec.size
    rows = _ij_rows(n, alpha=report.alpha, beta=report.beta,
                    row_sum=np.reshape(list(report.row_sums.values()), (n, n)),
                    draws_zero=report.draws_zero, criterion_holds=report.criterion_holds)
    _emit(payload, rows, ["i", "j", "alpha", "beta", "row_sum", "draws_zero", "criterion_holds"], config)
    return EXIT_OK


def _cmd_simulate(config) -> int:
    spec = _build_spec(config)
    est = oracle.estimate_probs(spec, horizon=config["horizon"], samples=config["samples"],
                                seed=config["seed"], node_cap=config["node_cap"],
                                jobs=config["jobs"])
    payload = {"spec": spec.to_json(), "estimate": est.to_json_dict(), "seed": est.seed}
    rows = _ij_rows(spec.size, horizon=est.horizon, ell=est.loss_hat[-1],
                    ell_stderr=est.loss_stderr[-1], w=est.win_hat[-1], w_stderr=est.win_stderr[-1])
    _emit(payload, rows, ["i", "j", "horizon", "ell", "ell_stderr", "w", "w_stderr"], config)
    return EXIT_OK


def _parse_grid(text, name):
    if text is None:
        return None
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"{name}: comma-separated numbers expected") from exc


def _sweep_tasks(config):
    """Cartesian grid of (distribution params) x (p0, p1) pairs, in grid order."""
    grid_p0 = _parse_grid(config.get("grid_p0"), "grid-p0") or [config.get("p0")]
    grid_p1 = _parse_grid(config.get("grid_p1"), "grid-p1") or [config.get("p1")]
    if any(v is None for v in grid_p0) or any(v is None for v in grid_p1):
        raise CliError("grid-p0/grid-p1: a grid or fixed p0/p1 values are required")
    param_grids = []
    raw = config.get("grid_param") or []
    if isinstance(raw, dict):
        raw = [f"{k}={','.join(str(x) for x in v)}" for k, v in sorted(raw.items())]
    for item in raw:
        if "=" not in item:
            raise CliError("grid-param: expected NAME=v1,v2,...")
        name, values = item.split("=", 1)
        if name not in ("m", "n", "pi", "lam", "r", "d"):
            raise CliError(f"grid-param: unknown parameter {name!r}")
        parsed = _parse_grid(values, f"grid-param {name}")
        if not parsed:
            raise CliError(f"grid-param {name}: at least one value expected")
        # integer parameters stay floats here; distribution_from_json rejects 2.7
        param_grids.append((name, parsed))
    tasks = []
    def expand(idx, overrides):
        if idx == len(param_grids):
            for p0 in grid_p0:
                for p1 in grid_p1:
                    if p0 + p1 > 1.0 + 1e-12:
                        raise CliError(f"grid: p0 + p1 exceeds 1 at ({p0}, {p1})")
                    tasks.append((dict(overrides), float(p0), float(p1)))
            return
        name, values = param_grids[idx]
        for v in values:
            overrides[name] = v
            expand(idx + 1, overrides)
        del overrides[name]
    expand(0, {})
    return tasks


_SWEEP_ROWS = {"solve": (_solve_row, None), "check-kappa2": (_kappa2_row, 2),
               "check-kappa3": (_kappa3_row, 3)}


def _sweep_cell(config, task):
    """Row and exit status of one grid cell, at the target capital the sweep target forces."""
    overrides, p0, p1 = task
    row_fn, kappa = _SWEEP_ROWS[config["what"]]
    spec = _build_spec({**config, **overrides, "p0": p0, "p1": p1}, kappa)
    row, status, _ = row_fn(spec, config)
    return row, status


def _cmd_sweep(config) -> int:
    if config["what"] not in _SWEEP_ROWS:
        raise CliError(f"what: unknown sweep target {config['what']!r}")
    tasks = _sweep_tasks(config)
    cell = functools.partial(_sweep_cell, config)
    jobs = min(config["jobs"], len(tasks))
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(cell, tasks))
    else:
        cells = [cell(task) for task in tasks]
    rows = [row for row, _ in cells]
    _emit({"rows": rows}, rows, list(rows[0]), config)
    return max(status for _, status in cells)


_COMMANDS = {
    "solve": _cmd_solve,
    "fixed-points": _cmd_fixed_points,
    "check-kappa2": _cmd_check_kappa2,
    "check-kappa3": _cmd_check_kappa3,
    "check-special": _cmd_check_special,
    "duration": _cmd_duration,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except ValueError as exc:  # CliError, DistributionError and the library's input checks
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (fixpoint.InternalInconsistencyError, oracle.NodeCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
