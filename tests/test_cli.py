import concurrent.futures
import json
import os

import pytest

from percgame.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(instance, schema):
    """Minimal structural validator for the shipped draft-07 subset."""
    types = {"object": dict, "array": list, "string": str, "boolean": bool,
             "integer": int, "number": (int, float), "null": type(None)}

    def walk(node, sch, path):
        declared = sch.get("type")
        if declared is not None:
            allowed = declared if isinstance(declared, list) else [declared]
            assert any(isinstance(node, types[t]) and not (t != "boolean" and isinstance(node, bool))
                       for t in allowed), f"{path}: {node!r} is not {declared}"
        if "enum" in sch:
            assert node in sch["enum"], f"{path}: {node!r} not in {sch['enum']}"
        if isinstance(node, dict):
            for req in sch.get("required", []):
                assert req in node, f"{path}: missing {req}"
            for key, sub in sch.get("properties", {}).items():
                if key in node:
                    walk(node[key], sub, f"{path}.{key}")
        if isinstance(node, list) and "items" in sch:
            for idx, item in enumerate(node):
                walk(item, sch["items"], f"{path}[{idx}]")

    walk(instance, schema, "$")


def test_solve_json_matches_published_value(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "dirac", "--m", "2",
                           "--kappa", "3", "--p0", "0.9", "--p1", "0.05")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["D"][0][0] == pytest.approx(0.985522, abs=1e-5)
    assert obj["verdicts"][0][0] == "POSITIVE"


def test_solve_json_validates_against_shipped_schema(capsys):
    import percgame
    schema_path = os.path.join(os.path.dirname(percgame.__file__),
                               "schemas", "solve_result.schema.json")
    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    code, out, _ = run_cli(capsys, "solve", "--family", "poisson", "--lam", "2",
                           "--kappa", "2", "--p0", "0.8", "--p1", "0.1")
    assert code == 0
    check_schema(json.loads(out), schema)


def test_check_kappa2_command(capsys):
    code, out, _ = run_cli(capsys, "check-kappa2", "--family", "poisson", "--lam", "2",
                           "--p0", "0.95", "--p1", "0.03")
    assert code == 0
    assert json.loads(out)["draw_zero"] is True


def test_check_kappa3_command(capsys):
    code, out, _ = run_cli(capsys, "check-kappa3", "--family", "poisson", "--lam", "50",
                           "--p0", "0.4", "--p1", "0.3")
    assert code == 0
    obj = json.loads(out)
    assert obj["contraction_holds"] is True
    assert obj["max_E"] < 1e-3


def test_check_special_command_and_law_validation(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-special", "--alpha", "0.1")
    assert code == 0
    assert json.loads(out)["certified_draws_zero"] is True
    code, _, err = run_cli(capsys, "check-special", "--alpha", "0.1",
                           "--p0", "0.5", "--p1", "0.2")
    assert code == 2
    assert "ratio" in err
    # the certificate is for the binary tree: m other than 2 is refused with or without a family
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"m": 3}), encoding="utf-8")
    for argv in (["--m", "3"], ["--config", str(conf)], ["--family", "dirac", "--m", "3"]):
        code, out, err = run_cli(capsys, "check-special", "--alpha", "0.1", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: m: "), err
    for argv in (["--family", "dirac"], ["--family", "poisson", "--m", "2"]):
        code, out, err = run_cli(capsys, "check-special", "--alpha", "0.1", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: family: "), err


def test_simulate_all_zero_and_deterministic(capsys):
    argv = ["simulate", "--family", "dirac", "--m", "2", "--kappa", "2",
            "--p0", "1", "--p1", "0", "--horizon", "5", "--samples", "1000",
            "--seed", "7", "--format", "csv"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out1.strip().split("\r\n")
    assert lines[0] == "i,j,horizon,ell,ell_stderr,w,w_stderr"
    assert lines[1] == "1,1,5,0,0,0,0"
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_seed_changes_output(capsys):
    argv = ["simulate", "--family", "poisson", "--lam", "2", "--kappa", "2",
            "--p0", "0.8", "--p1", "0.1", "--horizon", "3", "--samples", "500"]
    _, out1, _ = run_cli(capsys, *argv, "--seed", "1")
    _, out2, _ = run_cli(capsys, *argv, "--seed", "2")
    assert out1 != out2


def test_duration_command(capsys):
    code, out, _ = run_cli(capsys, "duration", "--family", "dirac", "--m", "2",
                           "--kappa", "3", "--p0", "0.8", "--p1", "0.15")
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["draws_zero"] is True
    assert obj["report"]["criterion_holds"] is False


def test_fixed_points_command(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--family", "geometric", "--pi", "0.5",
                           "--kappa", "2", "--p0", "0.8", "--p1", "0.1")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_sweep_solve_csv_shape_and_determinism(capsys, tmp_path):
    argv = ["sweep", "--what", "solve", "--family", "dirac", "--m", "2", "--kappa", "3",
            "--grid-p0", "0.9,0.95", "--grid-p1", "0.05", "--format", "csv"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out1.strip().split("\r\n")
    assert lines[0] == "distribution,p0,p1,d11,d12,d21,d22"
    assert len(lines) == 3
    assert lines[1].startswith("dirac(m=2),0.9,0.05,0.985521946")
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    # output file path writes identical bytes
    path = tmp_path / "sweep.csv"
    code, out3, _ = run_cli(capsys, *argv, "--output", str(path))
    assert out3 == ""
    assert path.read_bytes().decode("utf-8") == out1


def test_sweep_grid_param_and_jobs(capsys):
    argv = ["sweep", "--what", "check-kappa2", "--family", "poisson",
            "--grid-param", "lam=2,3", "--grid-p0", "0.9", "--grid-p1", "0.05",
            "--format", "csv"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "distribution,p0,p1,draw_zero"
    assert len(lines) == 3
    code, out_jobs, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert out_jobs == out


class InlinePool:
    """Stand-in for ProcessPoolExecutor that records max_workers and runs inline."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_process_pools_capped_at_work(capsys, monkeypatch):
    # no process is started: the pool class is replaced before either command runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    simulate = ["simulate", "--family", "dirac", "--m", "2", "--kappa", "2",
                "--p0", "0.8", "--p1", "0.1", "--horizon", "1", "--samples", "30000",
                "--seed", "7"]
    code, out_inline, _ = run_cli(capsys, *simulate, "--jobs", "64")
    assert code == 0
    assert InlinePool.sizes == [2]  # 30000 samples are two default chunks
    assert out_inline == run_cli(capsys, *simulate)[1]
    code, _, _ = run_cli(capsys, "sweep", "--what", "check-kappa2", "--family", "poisson",
                         "--grid-param", "lam=2,3,4", "--grid-p0", "0.9",
                         "--grid-p1", "0.05", "--jobs", "64")
    assert code == 0
    assert InlinePool.sizes == [2, 3]


LAW_POINT = ("--family", "poisson", "--lam", "5", "--p0", "0.8", "--p1", "0.1")
SOLVE_POINT = (*LAW_POINT, "--kappa", "3")


@pytest.mark.parametrize("argv, field", [
    (("solve", *SOLVE_POINT, "--max-iter", "-1"), "max_iter"),
    (("fixed-points", "--family", "dirac", "--m", "2", "--kappa", "3", "--p0", "0.875",
      "--p1", "0.025", "--tol", "-1", "--max-iter", "2000"), "tol"),
    (("fixed-points", *SOLVE_POINT, "--max-iter", "-1"), "max_iter"),
    (("simulate", *SOLVE_POINT, "--samples", "10", "--jobs", "0"), "jobs"),
    (("simulate", *SOLVE_POINT, "--samples", "10", "--jobs", "-3"), "jobs"),
    (("sweep", "--what", "check-kappa2", *LAW_POINT, "--jobs", "0"), "jobs"),
    # a setting is checked before any work, not only once a run reaches its reader:
    # the check-kappa2 cells never solve
    (("sweep", "--what", "check-kappa2", "--family", "poisson", "--lam", "5", "--grid-p0", "0.8",
      "--grid-p1", "0.1", "--tol", "-1", "--format", "csv"), "tol"),
], ids=lambda v: "_".join(v[:1] + v[-2:]) if isinstance(v, tuple) else v)
def test_out_of_range_solver_values_exit_2(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert field in err


def test_out_of_range_config_values_exit_2_for_every_command(capsys, tmp_path):
    # a config file is range-checked like the flags, also for a command that never reads the field
    conf = tmp_path / "conf.json"
    for command, (field, value) in zip(
            ("solve", "fixed-points", "check-kappa2", "check-kappa3", "check-special", "duration",
             "simulate", "sweep"),
            (("tol", -1), ("max_iter", -1), ("tol", -1e-9), ("max_iter", -7),
             ("tol", -1), ("max_iter", -1), ("jobs", 0), ("jobs", -3))):
        conf.write_text(json.dumps({field: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(conf))
        assert (code, out) == (2, ""), command
        assert err.startswith(f"error: {field} must be"), err


@pytest.mark.parametrize("argv", [
    ("check-kappa3", "--kappa", "5"), ("check-kappa2", "--kappa", "2"),
    ("simulate", "--tol", "1e-9"), ("solve", "--seed", "1"), ("check-special", "--lam", "2"),
    ("fixed-points", "--draw-epsilon", "1e-8"), ("sweep", "--positive-threshold", "1e-6"),
    ("solve", "--draw-epsilon", "1e-8"), ("duration", "--positive-threshold", "1e-6"),
    ("check-kappa3", "--cluster-radius", "1e-6"),
], ids=" ".join)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("solve", *SOLVE_POINT), "draw_epsilon"),
    (("duration", *SOLVE_POINT), "positive_threshold"),
    (("check-kappa3", *LAW_POINT, "--count-fixed-points"), "cluster_radius"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_config_file_unknown_field_exits_2(capsys, tmp_path, argv, field):
    # the three verdict thresholds are constants; a config naming one is refused
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({field: 1e-6}), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(conf))
    assert (code, out, err) == (2, "", f"error: config: unknown field '{field}'\n")


@pytest.mark.parametrize("argv, field", [
    (("--what", "check-kappa3", "--family", "binomial", "--n", "10", "--pi", "0.6",
      "--count-fixed-points", "--kappa", "5"), "kappa"),
    (("--what", "solve", *SOLVE_POINT, "--count-fixed-points"), "count_fixed_points"),
    (("--what", "check-kappa2", *LAW_POINT, "--tol", "5", "--max-iter", "3", "--kappa", "7"),
     "kappa"),
    (("--what", "check-kappa2", *LAW_POINT, "--max-iter", "3"), "max_iter"),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, tuple) else v)
def test_sweep_flags_its_target_does_not_read_exit_2(capsys, argv, field):
    code, out, err = run_cli(capsys, "sweep", *argv, "--grid-p0", "0.8", "--grid-p1", "0.05")
    assert (code, out) == (2, "")
    assert err == f"error: {field}: sweep --what {argv[1]} does not read it\n"


@pytest.mark.parametrize("grid, flags, field, replaced_by", [
    (("--grid-p0", "0.8", "--grid-p1", "0.1"), ("--p0", "0.3", "--p1", "0.6"), "p0", "grid-p0"),
    (("--grid-p0", "0.8", "--grid-p1", "0.1"), ("--p1", "0.6"), "p1", "grid-p1"),
    (("--p0", "0.8", "--p1", "0.1", "--grid-param", "lam=2"), ("--lam", "9"), "lam",
     "grid-param lam"),
    (("--p0", "0.8", "--p1", "0.1", "--grid-param", "lam=2"), ("--lambda", "9"), "lam",
     "grid-param lam"),
], ids=["p0 and p1", "p1", "lam", "lambda"])
def test_sweep_flag_a_grid_replaces_exits_2(capsys, tmp_path, grid, flags, field, replaced_by):
    # these pairs once printed the grid's bytes and exited 0, the flag ignored
    sweep = ["sweep", "--what", "check-kappa2", "--family", "poisson", "--format", "csv", *grid]
    if "--grid-param" not in grid:
        sweep += ["--lam", "5"]
    code, out, _ = run_cli(capsys, *sweep)
    assert code == 0 and out
    code, out, err = run_cli(capsys, *sweep, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {field}: sweep --{replaced_by} replaces it in every cell\n"
    # a config-file value that a grid replaces stays accepted, like any config field
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({field: 0.3 if field != "lam" else 9}), encoding="utf-8")
    assert run_cli(capsys, *sweep, "--config", str(conf))[0] == 0


def test_parser_built_once_and_parses_afresh(capsys):
    from percgame.cli import _build_parser
    assert _build_parser() is _build_parser()
    argv = ["check-kappa2", "--family", "poisson", "--lam", "2", "--p0", "0.95", "--p1", "0.03"]
    first = _build_parser().parse_args(argv)
    second = _build_parser().parse_args(argv[:5] + ["--p0", "0.5", "--p1", "0.03"])
    assert first is not second and (first.p0, second.p0) == (0.95, 0.5)
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_sweep_takes_its_target_flags_and_any_config_field(capsys, tmp_path):
    # check-kappa3 reads tol only with --count-fixed-points, and is still offered it
    sweep = ["sweep", "--what", "check-kappa3", *LAW_POINT[:4], "--grid-p0", "0.8",
             "--grid-p1", "0.05", "--format", "csv"]
    code, out, _ = run_cli(capsys, *sweep, "--tol", "1e-10", "--jobs", "1")
    assert (code, out) == run_cli(capsys, *sweep)[:2]
    assert code == 0
    # a config file may name a field the target never reads
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kappa": 5, "count_fixed_points": False}), encoding="utf-8")
    assert run_cli(capsys, *sweep, "--config", str(conf))[:2] == (0, out)


def test_sweep_rejects_invalid_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--what", "solve", "--family", "dirac",
                           "--m", "2", "--grid-p0", "0.9", "--grid-p1", "0.2")
    assert code == 2
    assert "grid" in err


def test_validation_errors_name_the_field(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--family", "poisson",
                           "--p0", "0.8", "--p1", "0.1")
    assert code == 2
    assert "lam" in err
    code, _, err = run_cli(capsys, "solve", "--family", "dirac", "--m", "2")
    assert code == 2
    assert "p0" in err
    # non-finite reals stop at the boundary: p0 nan once printed ZERO verdicts,
    # tol nan ran all max_iter iterations
    poisson = ["solve", "--family", "poisson", "--lam", "5", "--kappa", "3", "--format", "csv"]
    for argv, field in ((["--p0", "nan", "--p1", "0.1"], "p0"),
                        (["--p0", "0.8", "--p1", "0.1", "--tol", "nan"], "tol"),
                        (["--p0", "0.8", "--p1", "0.1", "--tol", "inf"], "tol"),
                        (["--p0", "0.8", "--p1", "0.1", "--lam", "inf"], "lam")):
        code, out, err = run_cli(capsys, *poisson, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {field}: a finite number"), err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "weibull", "--p0", "0.8", "--p1", "0.1"])
    assert exc.value.code == 2
    sweep = ["sweep", "--what", "check-kappa2", "--grid-p0", "0.9", "--grid-p1", "0.05"]
    for argv, field in ((["--family", "poisson", "--grid-param", "lam=2,x"], "grid-param lam"),
                        (["--family", "poisson", "--grid-param", "lam="], "grid-param lam"),
                        (["--family", "dirac", "--grid-param", "m=2.7"], "m: an integer"),
                        (["--family", "explicit", "--pmf", "0.5,x"], "pmf"),
                        (["--family", "explicit", "--pmf", "0.5,nan,0.5"], "pmf"),
                        (["--family", "poisson", "--grid-param", "lam=2,nan"], "grid-param lam"),
                        (["--family", "poisson", "--lam", "2", "--grid-param", "m=2,3,4"],
                         "grid-param: family poisson takes no parameter 'm'"),
                        (["--family", "explicit", "--pmf", "0,1", "--grid-param", "pmf=1"],
                         "grid-param: family explicit takes no parameter 'pmf'")):
        code, _, err = run_cli(capsys, *sweep, *argv)
        assert code == 2
        assert field in err
    # config-file values are typed at the boundary like flags
    conf = tmp_path / "conf.json"
    for field, value in (("kappa", 3.7), ("horizon", 2.5), ("max_iter", 10.5), ("samples", "x"),
                         ("seed", True), ("node_cap", None), ("jobs", 1.5), ("p0", "0.5"),
                         ("tol", "x"), ("tol", None), ("max_iter", False),
                         ("horizon", [1]), ("alpha", "1"), ("lam", "x"),
                         ("format", "xml"), ("output", 2), ("count_fixed_points", "no"),
                         ("what", "x"), ("family", "weibull"), ("grid_param", {"lam": 2}),
                         ("grid_param", "lam=2"), ("grid_p0", "0.5,x"), ("pmf", {"a": 1}),
                         ("tol", float("nan")), ("p0", float("nan")), ("lam", float("inf")),
                         ("grid_p1", [0.1, float("nan")]), ("pmf", [0.5, float("nan")])):
        conf.write_text(json.dumps({"family": "poisson", "lam": 2, "kappa": 3, "p0": 0.8,
                                    "p1": 0.1, field: value}), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "--config", str(conf))
        assert (code, out) == (2, ""), field
        assert err.startswith(f"error: {field}: "), err


def test_config_file_integral_floats_and_null_defaults(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "dirac", "m": 2.0, "kappa": 3.0, "max_iter": 1e4,
                                "p0": 0.9, "p1": 0.05, "alpha": None}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["spec"]["kappa"] == 3


def test_config_file_forms_match_their_flags(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    sweep = ["sweep", "--what", "check-kappa2", "--family", "poisson", "--format", "csv"]
    flags = run_cli(capsys, *sweep, "--grid-param", "lam=2,3", "--grid-p0", "0.9,0.5",
                    "--grid-p1", "0.05")
    for grid in ({"grid_param": {"lam": [2, 3]}, "grid_p0": "0.9,0.5", "grid_p1": 0.05},
                 {"grid_param": ["lam=2,3"], "grid_p0": [0.9, 0.5], "grid_p1": "0.05",
                  "output": None}):
        conf.write_text(json.dumps(grid), encoding="utf-8")
        assert run_cli(capsys, *sweep, "--config", str(conf)) == flags
    explicit = ["check-kappa2", "--family", "explicit", "--p0", "0.9", "--p1", "0.05"]
    flags = run_cli(capsys, *explicit, "--pmf", "0.2,0.3,0.5")
    for pmf in ([0.2, 0.3, 0.5], "0.2,0.3,0.5"):
        conf.write_text(json.dumps({"pmf": pmf}), encoding="utf-8")
        assert run_cli(capsys, *explicit, "--config", str(conf)) == flags


# every subcommand's option strings: exactly the options its command reads
# (test_every_flag_of_a_command_is_read checks that against the running commands)
COMMON_FLAGS = ["--config", "--family", "--format", "--help", "--m", "--output", "--p0", "--p1",
                "-h"]
LAW_FLAGS = ["--d", "--lam", "--lambda", "--n", "--pi", "--pmf", "--r"]
SUBCOMMAND_FLAGS = {
    "solve": LAW_FLAGS + ["--kappa", "--tol", "--max-iter"],
    "fixed-points": LAW_FLAGS + ["--kappa", "--tol", "--max-iter"],
    "check-kappa2": LAW_FLAGS,
    "check-kappa3": LAW_FLAGS + ["--count-fixed-points", "--tol", "--max-iter"],
    "check-special": ["--alpha"],
    "duration": LAW_FLAGS + ["--kappa", "--tol", "--max-iter"],
    "simulate": LAW_FLAGS + ["--kappa", "--seed", "--horizon", "--samples", "--node-cap",
                             "--jobs"],
    "sweep": LAW_FLAGS + ["--kappa", "--tol", "--max-iter", "--count-fixed-points", "--jobs",
                          "--what", "--grid-p0", "--grid-p1", "--grid-param"],
}


def subcommand_parsers():
    import argparse

    from percgame.cli import _build_parser
    return next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_subcommands_keep_their_option_strings():
    parsers = subcommand_parsers()
    assert sorted(parsers) == sorted(SUBCOMMAND_FLAGS)
    for command, extra in SUBCOMMAND_FLAGS.items():
        flags = [flag for action in parsers[command]._actions for flag in action.option_strings]
        assert sorted(flags) == sorted(COMMON_FLAGS + extra), command


FAMILY_FLAGS = [("dirac", "--m", "2"), ("uniform", "--m", "3"),
                ("binomial", "--n", "4", "--pi", "0.5"), ("poisson", "--lam", "2"),
                ("negbinomial", "--r", "2", "--pi", "0.5"), ("geometric", "--pi", "0.5"),
                ("twopoint", "--pi", "0.5", "--d", "3"), ("explicit", "--pmf", "0.2,0.3,0.5")]


def test_every_flag_of_a_command_is_read(capsys, monkeypatch):
    # each command reads every setting its parser offers, over all eight families
    from percgame import cli, criteria
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config", lambda args: Recording(resolve(args)))
    extra = {"solve": ["--kappa", "3"], "fixed-points": ["--kappa", "3"], "check-kappa2": [],
             "check-kappa3": ["--count-fixed-points"], "duration": ["--kappa", "3"],
             "simulate": ["--kappa", "3", "--horizon", "2", "--samples", "10"]}
    ratio = criteria.ratio_law(0.1)
    runs = [("check-special", ["--alpha", "0.1", "--family", "dirac", "--m", "2",
                               "--p0", repr(ratio.p_0), "--p1", repr(ratio.p_1)])]
    runs += [(command, ["--family", family, *params, "--p0", "0.4", "--p1", "0.3", *flags])
             for command, flags in extra.items() for family, *params in FAMILY_FLAGS]
    reads = {}
    for command, argv in runs:
        code = main([command, *argv])
        err = capsys.readouterr().err
        # check-kappa2 has no closed form for dirac, uniform and explicit; it stops after the law
        assert code == 0 or err.startswith("error: no closed-form capital-2 test"), (argv, err)
        reads[command] = reads.get(command, set()) | read
        read.clear()
    for command, parser in subcommand_parsers().items():
        dests = {action.dest for action in parser._actions} - {"help", "config"}
        if command != "sweep":      # sweep offers the union of its three targets' settings
            assert reads[command] == dests, command


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from percgame import fixpoint

    def inconsistent(*args, **kwargs):
        raise fixpoint.InternalInconsistencyError("mixed ZERO and POSITIVE draw verdicts")

    monkeypatch.setattr(fixpoint, "classify_draw", inconsistent)
    code, out, err = run_cli(capsys, "solve", "--family", "dirac", "--m", "2",
                             "--kappa", "3", "--p0", "0.9", "--p1", "0.05")
    assert code == 3
    assert out == ""
    assert err == "error: mixed ZERO and POSITIVE draw verdicts\n"


def test_simulate_unreachable_node_cap_exits_3(capsys):
    # every 2-regular tree of depth 3 has 15 nodes, so no sample fits under 3
    code, out, err = run_cli(capsys, "simulate", "--family", "dirac", "--m", "2", "--kappa", "3",
                             "--p0", "0.8", "--p1", "0.1", "--horizon", "3", "--samples", "5",
                             "--node-cap", "3")
    assert code == 3
    assert out == ""
    assert err == "error: resampling keeps hitting the node cap; raise node_cap\n"


def test_simulate_rejects_nonpositive_node_cap(capsys):
    for cap in ("0", "-4"):
        code, out, err = run_cli(capsys, "simulate", "--family", "dirac", "--m", "2",
                                 "--kappa", "3", "--p0", "0.8", "--p1", "0.1", "--horizon", "3",
                                 "--samples", "5", "--node-cap", cap)
        assert code == 2
        assert out == ""
        assert err == "error: node_cap must be >= 1\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "solve", "--family", "dirac", "--m", "2",
                             "--p0", "0.8", "--p1", "0.1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: output: cannot write {target}")


def test_nonconvergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "dirac", "--m", "2",
                           "--kappa", "3", "--p0", "0.9", "--p1", "0.05",
                           "--max-iter", "3")
    assert code == 3
    assert json.loads(out)["result"]["converged"] is False
    # a sweep exits 3 when any cell does not converge; every row keeps the table's columns
    code, out, _ = run_cli(capsys, "sweep", "--what", "solve", "--family", "dirac",
                           "--grid-param", "m=2,5", "--grid-p0", "0.8,0.9", "--grid-p1", "0.05",
                           "--kappa", "3", "--max-iter", "5")
    assert code == 3
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert all(sorted(row) == ["d11", "d12", "d21", "d22", "distribution", "p0", "p1"]
               for row in rows)


def test_config_file_and_flag_precedence(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"family": "dirac", "m": 2, "kappa": 3,
                                "p0": 0.9, "p1": 0.05}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["result"]["D"][0][0] == pytest.approx(0.985522, abs=1e-5)
    # flags override the file
    code, out, _ = run_cli(capsys, "solve", "--config", str(conf), "--p0", "0.8",
                           "--p1", "0.15")
    assert code == 0
    assert json.loads(out)["result"]["D"][0][0] == pytest.approx(0.0, abs=1e-6)
    code, _, err = run_cli(capsys, "solve", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_env_seed_fallback(capsys, monkeypatch, tmp_path):
    argv = ["simulate", "--family", "poisson", "--lam", "2", "--kappa", "2",
            "--p0", "0.8", "--p1", "0.1", "--horizon", "2", "--samples", "400"]
    monkeypatch.setenv("PERCGAME_SEED", "99")
    _, out_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("PERCGAME_SEED")
    _, out_99, _ = run_cli(capsys, *argv, "--seed", "99")
    assert out_env == out_99
    # an explicit flag wins over the environment
    monkeypatch.setenv("PERCGAME_SEED", "99")
    _, out_flag, _ = run_cli(capsys, *argv, "--seed", "5")
    monkeypatch.delenv("PERCGAME_SEED")
    _, out_5, _ = run_cli(capsys, *argv, "--seed", "5")
    assert out_flag == out_5
