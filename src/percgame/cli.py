"""Command-line front end.

Subcommands: solve, fixed-points, check-kappa2, check-kappa3, check-special,
duration, simulate, sweep.  Output goes to stdout or --output as JSON or
RFC-4180 CSV; identical configuration and seed produce byte-identical
output.  Exit status: 0 success, 2 validation error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import criteria, fixpoint, oracle
from .fixpoint import EdgeWeightLaw, GameSpec
from .offspring import DistributionError, distribution_from_json


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
    """Write the command result as JSON (payload) or CSV (rows/header)."""
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
    try:
        return distribution_from_json({"family": family, "params": params})
    except DistributionError as exc:
        raise CliError(str(exc)) from exc


def _build_law(config) -> EdgeWeightLaw:
    p0, p1 = config.get("p0"), config.get("p1")
    if p0 is None or p1 is None:
        raise CliError("p0/p1: both edge-weight probabilities are required")
    if p0 + p1 > 1.0 + 1e-12:
        raise CliError("p0/p1: p0 + p1 must not exceed 1")
    try:
        return EdgeWeightLaw.from_p0_p1(float(p0), float(p1))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _build_spec(config) -> GameSpec:
    try:
        return GameSpec(int(config["kappa"]), _build_dist(config), _build_law(config))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _spec_label(spec: GameSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.dist.params().items()))
    return f"{spec.dist.family}({params})"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_solve(config) -> int:
    spec = _build_spec(config)
    result = fixpoint.solve(spec, tol=config["tol"], max_iter=config["max_iter"],
                            draw_epsilon=config["draw_epsilon"])
    verdicts = None
    if result.converged:
        verdicts = fixpoint.classify_draw(result, positive_threshold=config["positive_threshold"])
    payload = {"spec": spec.to_json(), "result": result.to_json_dict(),
               "verdicts": None if verdicts is None else [[v.value for v in row] for row in verdicts]}
    rows = []
    for row in result.csv_rows():
        i, j = row["i"], row["j"]
        row["verdict"] = verdicts[i - 1][j - 1].value if verdicts is not None else ""
        rows.append(row)
    _emit(payload, rows, ["i", "j", "ell", "w", "d", "verdict"], config)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_fixed_points(config) -> int:
    spec = _build_spec(config)
    points = fixpoint.find_fixed_points(spec, tol=config["tol"], max_iter=config["max_iter"],
                                        cluster_radius=config["cluster_radius"])
    payload = {"spec": spec.to_json(), "count": len(points),
               "fixed_points": [p.tolist() for p in points]}
    rows = []
    for idx, p in enumerate(points):
        for i in range(1, spec.size + 1):
            for j in range(1, spec.size + 1):
                rows.append({"index": idx, "i": i, "j": j, "value": p[i - 1, j - 1]})
    _emit(payload, rows, ["index", "i", "j", "value"], config)
    return EXIT_OK


def _cmd_check_kappa2(config) -> int:
    dist = _build_dist(config)
    law = _build_law(config)
    try:
        zero = criteria.kappa2_draw_zero(dist, law)
    except criteria.UnsupportedFamilyError as exc:
        raise CliError(str(exc)) from exc
    payload = {"family": dist.to_json(), "p0": law.p_0, "p1": law.p_1, "draw_zero": zero}
    rows = [{"distribution": _spec_label(GameSpec(2, dist, law)), "p0": law.p_0,
             "p1": law.p_1, "draw_zero": zero}]
    _emit(payload, rows, ["distribution", "p0", "p1", "draw_zero"], config)
    return EXIT_OK


def _kappa3_row(spec: GameSpec, config, count_fixed_points: bool) -> dict:
    bounds = criteria.kappa3_bounds(spec.dist, spec.law)
    row = {"distribution": _spec_label(spec), "p0": spec.law.p_0, "p1": spec.law.p_1,
           "E11": bounds.E[0, 0], "E12": bounds.E[0, 1],
           "E21": bounds.E[1, 0], "E22": bounds.E[1, 1],
           "max_E": float(np.max(bounds.E)),
           "contraction_holds": criteria.kappa3_contraction_holds(bounds)}
    if count_fixed_points:
        points = fixpoint.find_fixed_points(spec, tol=config["tol"],
                                            max_iter=config["max_iter"],
                                            cluster_radius=config["cluster_radius"])
        row["fixed_point_count"] = len(points)
    return row, bounds


def _cmd_check_kappa3(config) -> int:
    config = dict(config)
    config["kappa"] = 3
    spec = _build_spec(config)
    count = bool(config.get("count_fixed_points"))
    row, bounds = _kappa3_row(spec, config, count)
    payload = {"spec": spec.to_json(), "A": bounds.A.tolist(), "B": bounds.B.tolist(),
               "E": bounds.E.tolist(), "max_E": row["max_E"],
               "contraction_holds": row["contraction_holds"]}
    header = ["distribution", "p0", "p1", "E11", "E12", "E21", "E22", "contraction_holds"]
    if count:
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
    result = fixpoint.solve(spec, tol=config["tol"], max_iter=config["max_iter"],
                            draw_epsilon=config["draw_epsilon"])
    if not result.converged:
        sys.stderr.write("duration: fixed-point iteration did not converge\n")
        return EXIT_NONCONVERGENCE
    report = criteria.duration_criterion(spec, result)
    payload = {"spec": spec.to_json(), "report": report.to_json_dict()}
    rows = []
    for (i, j), rs in sorted(report.row_sums.items()):
        rows.append({"i": i, "j": j, "alpha": report.alpha[i - 1, j - 1],
                     "beta": report.beta[i - 1, j - 1], "row_sum": rs,
                     "draws_zero": report.draws_zero,
                     "criterion_holds": report.criterion_holds})
    _emit(payload, rows, ["i", "j", "alpha", "beta", "row_sum", "draws_zero", "criterion_holds"], config)
    return EXIT_OK


def _cmd_simulate(config) -> int:
    spec = _build_spec(config)
    est = oracle.estimate_probs(spec, horizon=int(config["horizon"]),
                                samples=int(config["samples"]), seed=int(config["seed"]),
                                node_cap=int(config["node_cap"]), jobs=int(config["jobs"]))
    payload = {"spec": spec.to_json(), "estimate": est.to_json_dict(), "seed": est.seed}
    rows = []
    for row in est.csv_rows():
        row["horizon"] = est.horizon
        rows.append(row)
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


def _sweep_cell(config, overrides, p0, p1):
    cell = dict(config)
    cell.update(overrides)
    cell["p0"], cell["p1"] = p0, p1
    what = config.get("what") or "solve"
    if what == "solve":
        spec = _build_spec(cell)
        result = fixpoint.solve(spec, tol=cell["tol"], max_iter=cell["max_iter"],
                                draw_epsilon=cell["draw_epsilon"])
        row = {"distribution": _spec_label(spec), "p0": p0, "p1": p1}
        for i in range(1, spec.size + 1):
            for j in range(1, spec.size + 1):
                row[f"d{i}{j}"] = result.D[i - 1, j - 1]
        row["_converged"] = result.converged
        return row
    if what == "check-kappa2":
        dist = _build_dist(cell)
        law = EdgeWeightLaw.from_p0_p1(p0, p1)
        row = {"distribution": _spec_label(GameSpec(2, dist, law)), "p0": p0, "p1": p1,
               "draw_zero": criteria.kappa2_draw_zero(dist, law), "_converged": True}
        return row
    if what == "check-kappa3":
        cell["kappa"] = 3
        spec = _build_spec(cell)
        row, _ = _kappa3_row(spec, cell, bool(cell.get("count_fixed_points")))
        row["_converged"] = True
        return row
    raise CliError(f"what: unknown sweep target {what!r}")


def _cmd_sweep(config) -> int:
    tasks = _sweep_tasks(config)
    jobs = int(config.get("jobs") or 1)
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_cell_star,
                                 [(config, o, p0, p1) for (o, p0, p1) in tasks]))
    else:
        rows = [_sweep_cell(config, o, p0, p1) for (o, p0, p1) in tasks]
    all_converged = all(row.pop("_converged", True) for row in rows)
    header = list(rows[0].keys()) if rows else []
    payload = {"rows": rows}
    _emit(payload, rows, header, config)
    return EXIT_OK if all_converged else EXIT_NONCONVERGENCE


def _sweep_cell_star(packed):
    config, overrides, p0, p1 = packed
    return _sweep_cell(config, overrides, p0, p1)


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
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (DistributionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
