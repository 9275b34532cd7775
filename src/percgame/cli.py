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
import math
import os
import sys
from typing import Callable, Collection, NamedTuple

import numpy as np

from . import criteria, fixpoint, oracle
from .fixpoint import EdgeWeightLaw, GameSpec
from .offspring import _FAMILIES, _float_param, _floats_param, _int_param, distribution_from_json


class CliError(ValueError):
    """Configuration problem; reported with exit status 2."""


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

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


def _family_params(config) -> dict:
    """{parameter: parser} of the configured offspring family, from offspring._FAMILIES."""
    if config["family"] is None:
        raise CliError("family: an offspring family is required")
    return _FAMILIES[config["family"]][1]


def _build_dist(config):
    params = {name: config[name] for name in _family_params(config) if config[name] is not None}
    return distribution_from_json({"family": config["family"], "params": params})


def _build_law(config) -> EdgeWeightLaw:
    p0, p1 = config["p0"], config["p1"]
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


def _solve(spec, config):
    return fixpoint.solve(spec, tol=config["tol"], max_iter=config["max_iter"])


def _fixed_points(specs: list, config) -> list:
    # the seed grid is passed, not defaulted, so that a wrapper counting seeds
    # (perfbench/spans.py) can count them for a spec list, which has no kappa
    seeds = fixpoint.default_seed_matrices(specs[0].kappa)
    return fixpoint.find_fixed_points(specs, seeds, tol=config["tol"], max_iter=config["max_iter"])


def _status(result) -> int:
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


# A row function maps (specs sharing kappa and offspring law, config) to one (table
# row, exit status, what else its command prints) per spec.  A command passes its one
# spec; `sweep` passes the grid cells that share a law, whose solves and fixed-point
# searches then run as one stack.

def _solve_rows(specs: list, config) -> list:
    out = []
    for spec, result in zip(specs, _solve(specs, config)):
        row = _spec_row(spec)
        sep = "_" if spec.size >= 10 else ""       # d1_11 and d11_1, not two d111
        row.update((f"d{i + 1}{sep}{j + 1}", d) for (i, j), d in np.ndenumerate(result.D))
        out.append((row, _status(result), None))
    return out


def _kappa2_rows(specs: list, config) -> list:
    return [({**_spec_row(spec), "draw_zero": criteria.kappa2_draw_zero(spec.dist, spec.law)},
             EXIT_OK, None) for spec in specs]


def _kappa3_rows(specs: list, config) -> list:
    counts = ([len(points) for points in _fixed_points(specs, config)]
              if config["count_fixed_points"] else [None] * len(specs))
    out = []
    for spec, count in zip(specs, counts):
        bounds = criteria.kappa3_bounds(spec.dist, spec.law)
        row = {**_spec_row(spec), "E11": bounds.E[0, 0], "E12": bounds.E[0, 1],
               "E21": bounds.E[1, 0], "E22": bounds.E[1, 1],
               "max_E": float(np.max(bounds.E)),
               "contraction_holds": criteria.kappa3_contraction_holds(bounds)}
        if count is not None:
            row["fixed_point_count"] = count
        out.append((row, EXIT_OK, bounds))
    return out


def _cmd_solve(config) -> int:
    spec = _build_spec(config)
    result = _solve(spec, config)
    verdicts = None
    if result.converged:
        verdicts = [[v.value for v in row] for row in fixpoint.classify_draw(result)]
    payload = {"spec": spec.to_json(), "result": result.to_json_dict(), "verdicts": verdicts}
    rows = _ij_rows(spec.size, ell=result.L, w=result.W, d=result.D,
                    verdict="" if verdicts is None else verdicts)
    _emit(payload, rows, ["i", "j", "ell", "w", "d", "verdict"], config)
    return _status(result)


def _cmd_fixed_points(config) -> int:
    spec = _build_spec(config)
    points, = _fixed_points([spec], config)
    payload = {"spec": spec.to_json(), "count": len(points),
               "fixed_points": [p.tolist() for p in points]}
    rows = (row for idx, p in enumerate(points) for row in _ij_rows(spec.size, index=idx, value=p))
    _emit(payload, rows, ["index", "i", "j", "value"], config)
    return EXIT_OK


def _cmd_check_kappa2(config) -> int:
    spec = _build_spec(config, kappa=2)
    (row, _, _), = _kappa2_rows([spec], config)
    payload = {"family": spec.dist.to_json(), "p0": row["p0"], "p1": row["p1"],
               "draw_zero": row["draw_zero"]}
    _emit(payload, [row], ["distribution", "p0", "p1", "draw_zero"], config)
    return EXIT_OK


def _cmd_check_kappa3(config) -> int:
    spec = _build_spec(config, kappa=3)
    (row, _, bounds), = _kappa3_rows([spec], config)
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
    alpha = config["alpha"]
    if alpha is None:
        raise CliError("alpha: required for check-special")
    if config["m"] not in (None, 2):
        raise CliError("m: the ratio certificate applies to the binary tree, m=2")
    if config["family"] is not None and (config["family"] != "dirac" or config["m"] != 2):
        raise CliError("family: the ratio certificate applies to the dirac family with m=2")
    if config["p0"] is not None or config["p1"] is not None:
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
    report = criteria.duration_criterion(result)
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


def _sweep_tasks(config):
    """(parameter overrides, p0, p1) per grid cell; the first grid parameter varies slowest."""
    grid_p0 = config["grid_p0"] or [config["p0"]]
    grid_p1 = config["grid_p1"] or [config["p1"]]
    if None in grid_p0 or None in grid_p1:
        raise CliError("grid-p0/grid-p1: a grid or fixed p0/p1 values are required")
    grids = config["grid_param"] or []     # names checked by _resolve_config
    names = [name for name, _ in grids]
    tasks = []
    for *values, p0, p1 in itertools.product(*(values for _, values in grids), grid_p0, grid_p1):
        if p0 + p1 > 1.0 + 1e-12:
            raise CliError(f"grid: p0 + p1 exceeds 1 at ({p0}, {p1})")
        tasks.append((dict(zip(names, values)), p0, p1))
    return tasks


_SWEEP_ROWS = {"solve": (_solve_rows, None), "check-kappa2": (_kappa2_rows, 2),
               "check-kappa3": (_kappa3_rows, 3)}


def _sweep_cells(config, tasks) -> list:
    """(row, exit status) per grid cell, at the target capital the sweep target forces;
    the cells that share an offspring law go to one row-function call."""
    rows_fn, kappa = _SWEEP_ROWS[config["what"]]
    specs = [_build_spec({**config, **overrides, "p0": p0, "p1": p1}, kappa)
             for overrides, p0, p1 in tasks]
    by_law = {}
    for idx, spec in enumerate(specs):
        by_law.setdefault(spec.dist, []).append(idx)
    cells = [None] * len(specs)
    for idxs in by_law.values():
        for idx, (row, status, _) in zip(idxs, rows_fn([specs[i] for i in idxs], config)):
            cells[idx] = row, status
    return cells


def _cmd_sweep(config) -> int:
    tasks = _sweep_tasks(config)
    # --jobs k: at most k contiguous chunks of cells, one per worker process
    k = min(config["jobs"], len(tasks))
    bounds = [len(tasks) * part // k for part in range(k + 1)]
    chunks = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    parts = oracle.map_in_processes(functools.partial(_sweep_cells, config), k, chunks)
    cells = [cell for part in parts for cell in part]
    rows = [row for row, _ in cells]
    _emit({"rows": rows}, rows, list(rows[0]), config)
    return max(status for _, status in cells)


_COMMANDS = {
    "solve": (_cmd_solve, "loss/win/draw matrices for one parameter point"),
    "fixed-points": (_cmd_fixed_points, "multi-start fixed-point search"),
    "check-kappa2": (_cmd_check_kappa2, "exact draw dichotomy at target capital 2"),
    "check-kappa3": (_cmd_check_kappa3, "contraction bounds at target capital 3"),
    "check-special": (_cmd_check_special, "ratio-form certificate on the binary tree"),
    "duration": (_cmd_duration, "finite expected duration certificate"),
    "simulate": (_cmd_simulate, "Monte-Carlo oracle estimates"),
    "sweep": (_cmd_sweep, "run a check over a parameter grid"),
}


# ---------------------------------------------------------------------------
# options: one table types the flags and the config-file values alike
# ---------------------------------------------------------------------------

def _text(config, name):
    if isinstance(config[name], str):
        return config[name]
    raise CliError(f"{name}: a string is required, got {config[name]!r}")


def _switch(config, name):
    if isinstance(config[name], bool):
        return config[name]
    raise CliError(f"{name}: true or false is required, got {config[name]!r}")


def _numbers(config, name):
    """Comma-separated numbers, one number or a list of numbers, as a list of finite floats."""
    value = config[name]
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list):
        items = [items]
    try:
        if not any(isinstance(v, bool) for v in items):
            values = [float(v) for v in items if v != ""]
            if all(math.isfinite(v) for v in values):
                return values
    except (TypeError, ValueError):
        pass
    raise CliError(f"{name}: comma-separated finite numbers or a list of them is required, "
                   f"got {value!r}")


def _grid(config, name):
    """NAME=v1,v2,... strings (one per --grid-param) or an object of lists, as (NAME, values)
    pairs; an object's names are taken in sorted order."""
    value = config[name]
    if isinstance(value, list) and all(isinstance(item, str) and "=" in item for item in value):
        pairs = [item.split("=", 1) for item in value]
        pairs = [(key, _numbers({f"grid-param {key}": text}, f"grid-param {key}"))
                 for key, text in pairs]
    elif isinstance(value, dict) and all(isinstance(v, list) for v in value.values()):
        pairs = sorted(value.items())
    else:
        raise CliError(f"{name}: NAME=v1,v2,... strings or an object of lists is required, "
                       f"got {value!r}")
    for key, values in pairs:
        if not values:
            raise CliError(f"grid-param {key}: at least one value expected")
    return pairs


class _Kind(NamedTuple):
    flag: dict         # argparse keywords of the flag
    check: Callable    # (config, name) -> typed value; raises an error naming the field


def _choice(*values):
    def check(config, name):
        if config[name] in values:
            return config[name]
        raise CliError(f"{name}: one of {', '.join(values)} is required, got {config[name]!r}")
    return _Kind({"choices": values}, check)


_INT = _Kind({"type": int}, _int_param)
_REAL = _Kind({"type": float}, _float_param)
_TEXT = _Kind({}, _text)
_SWITCH = _Kind({"action": "store_true", "default": None}, _switch)
_NUMBERS = _Kind({"metavar": "X1,X2,..."}, _numbers)
_GRID = _Kind({"action": "append", "metavar": "NAME=X1,X2,..."}, _grid)
_PARAM_KINDS = {_int_param: _INT, _float_param: _REAL, _floats_param: _NUMBERS}

_EVERY = frozenset(_COMMANDS)
_LAW = _EVERY - {"check-special"}                  # the ratio certificate reads family and m only
_KAPPA = _LAW - {"check-kappa2", "check-kappa3"}   # the checks fix the target capital
_ITERATE = {"solve", "fixed-points", "check-kappa3", "duration", "sweep"}   # tol and max_iter


class _Option(NamedTuple):
    kind: _Kind
    default: object               # a null value is accepted only where this is None
    commands: Collection[str]     # subcommands that take the flag; config files take every field
    help: str = None


_OPTIONS = {
    "family": _Option(_choice(*sorted(_FAMILIES)), None, _EVERY, "offspring family"),
    **{name: _Option(_PARAM_KINDS[parse], None, _EVERY if name == "m" else _LAW,
                     "offspring parameter")
       for _, parsers in _FAMILIES.values() for name, parse in parsers.items()},
    "kappa": _Option(_INT, 3, _KAPPA, "target capital"),
    "p0": _Option(_REAL, None, _EVERY, "probability of edge weight 0"),
    "p1": _Option(_REAL, None, _EVERY, "probability of edge weight +1"),
    "tol": _Option(_REAL, fixpoint.DEFAULT_TOL, _ITERATE),
    "max_iter": _Option(_INT, fixpoint.DEFAULT_MAX_ITER, _ITERATE),
    "seed": _Option(_INT, 0, {"simulate"}),
    "output": _Option(_TEXT, None, _EVERY, "output path; '-' for stdout"),
    "format": _Option(_choice("json", "csv"), "json", _EVERY),
    "count_fixed_points": _Option(_SWITCH, False, {"check-kappa3", "sweep"},
                                  "also report max E and the number of attracting fixed points "
                                  "found from the 75-matrix seed grid"),
    "alpha": _Option(_REAL, None, {"check-special"}),
    "horizon": _Option(_INT, 6, {"simulate"}),
    "samples": _Option(_INT, 10000, {"simulate"}),
    "node_cap": _Option(_INT, oracle.DEFAULT_NODE_CAP, {"simulate"}),
    "jobs": _Option(_INT, 1, {"simulate", "sweep"}),
    "what": _Option(_choice(*_SWEEP_ROWS), "solve", {"sweep"}),
    "grid_p0": _Option(_NUMBERS, None, {"sweep"}, "p0 values"),
    "grid_p1": _Option(_NUMBERS, None, {"sweep"}, "p1 values"),
    "grid_param": _Option(_GRID, None, {"sweep"}, "distribution parameter values to sweep"),
}
_ALIASES = {"lam": ("--lambda",)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="percgame",
                                     description="Percolation games on edge-weighted branching trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags take precedence")
        for name, option in _OPTIONS.items():
            if command in option.commands:
                p.add_argument("--" + name.replace("_", "-"), *_ALIASES.get(name, ()), dest=name,
                               help=option.help, **option.kind.flag)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over the optional config file over the defaults, then type every
    value by its option's kind.

    The PERCGAME_SEED environment variable supplies the seed only when
    neither a flag nor the config file does.
    """
    config = {name: option.default for name, option in _OPTIONS.items()}
    file_conf = {}
    if args.config:
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
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config") and value is not None}
    config.update(flags)
    if (getattr(args, "seed", None) is None and "seed" not in file_conf
            and os.environ.get("PERCGAME_SEED")):
        try:
            config["seed"] = int(os.environ["PERCGAME_SEED"])
        except ValueError as exc:
            raise CliError("PERCGAME_SEED: integer expected") from exc
    for name, option in _OPTIONS.items():
        if config[name] is not None or option.default is not None:
            config[name] = option.kind.check(config, name)
    # checked before any work, also where a run never reaches the reader; the library checks again
    fixpoint._check_nonnegative(tol=config["tol"], max_iter=config["max_iter"])
    if config["jobs"] < 1:
        raise CliError(f"jobs must be >= 1, got {config['jobs']!r}")
    if args.command == "sweep":   # a flag that only other --what targets read is an error
        for name in flags:
            commands = _OPTIONS[name].commands
            if config["what"] not in commands and not _SWEEP_ROWS.keys().isdisjoint(commands):
                raise CliError(f"{name}: sweep --what {config['what']} does not read it")
        replaced = {name: f"grid-{name}" for name in ("p0", "p1") if config[f"grid_{name}"]}
        for name, _ in config["grid_param"] or []:
            if name not in _family_params(config) or name == "pmf":
                raise CliError(f"grid-param: family {config['family']} takes no parameter {name!r}")
            replaced[name] = f"grid-param {name}"
        for name, grid in replaced.items():     # nor a flag that a grid replaces
            if name in flags:
                raise CliError(f"{name}: sweep --{grid} replaces it in every cell")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command][0](config)
    except ValueError as exc:  # CliError, DistributionError and the library's input checks
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (fixpoint.InternalInconsistencyError, oracle.NodeCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
