"""Mutation audit of the layers that the test-side references cover.

    python tests/mutants.py [NAME ...]

Each mutant is one textual change to `src/` (an operator swap, a comparison off by
one or a constant nudge) in the box bookkeeping of `_iterate_stack`, the law operands,
stacked residual and block-tested `_multi_start` of a sweep's stacks, the operator step
`_g_step`, the contraction certificate `_unique_fixed_point`, `sample_forest`,
`_row_dtype`, `_forest_root_counts`, the `_pgf_inplace` bodies, `_check_unit_interval`,
`kappa3_bounds`, `kappa3_p0_zero_check`, the `pgf_derivative` bodies, `params`,
`duration_criterion` or `DurationReport.to_json_dict`.  It is
applied to a copy of `src/`, `tests/`, `perfbench/`, `pyproject.toml` and
`BENCHMARK.json` in the system's temporary directory, never to the working tree.
Two pytest runs (`-x`, no cache, no bytecode) go side by side on the copy: the suite
without `tests/test_reference_paths.py`, and that file alone; a column reads 1 when
its run fails, next to the first failing test.  Criteria 2, 5 and 6, which fail on
the unchanged code, are deselected.  An unchanged copy runs first as a control.
Given mutant names, only those run.  Uses the standard library alone.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
REFERENCE_FILE = "tests/test_reference_paths.py"
KNOWN_FAILURES = ("tests/test_acceptance.py::test_criterion_02_draw_table_poisson",
                  "tests/test_acceptance.py::test_criterion_05_contraction_coefficients",
                  "tests/test_acceptance.py::"
                  "test_criterion_06_fixed_point_counts_and_max_coefficient")
TIMEOUT_S = 600

FIXPOINT = "src/percgame/fixpoint.py"
ORACLE = "src/percgame/oracle.py"
OFFSPRING = "src/percgame/offspring.py"
CRITERIA = "src/percgame/criteria.py"

# (name, file, text, replacement): the text occurs exactly once in the file
MUTANTS = [
    # the boxes of _iterate_stack's large-kappa steps (_next_boxes, _box_step)
    ("box-own-half", FIXPOINT, "nxt[1 - h] = [", "nxt[h] = ["),
    ("box-rows-cols-swapped", FIXPOINT, "nxt[1 - h] = [(max(c - 1, 0), min(d + 1, n), a, b)",
     "nxt[1 - h] = [(max(a - 1, 0), min(b + 1, n), c, d)"),
    ("box-first-spec", FIXPOINT,
     "moved[h].append(np.logical_or.reduce(np.not_equal(step, _ZERO), 0))",
     "moved[h].append(np.not_equal(step, _ZERO)[0])"),
    ("box-rule-inverted", FIXPOINT, "_box_entries(boxes) + BOX_STEP_ENTRIES <= B.size",
     "_box_entries(boxes) + BOX_STEP_ENTRIES > B.size"),
    ("box-split-drops-a-column", FIXPOINT, "for part in (cols[:mid], cols[mid:])",
     "for part in (cols[:mid], cols[mid + 1:])"),
    ("box-run-ends-written-back", FIXPOINT, "reshape(run.shape)[:, :, :b - a]",
     "reshape(run.shape)[:, :, 1:b - a + 1]"),
    ("box-not-widened", FIXPOINT, "nxt[1 - h] = [(max(c - 1, 0), min(d + 1, n), a, b)",
     "nxt[1 - h] = [(c, d, a, b)"),
    ("box-reduceat-offset-shifted", FIXPOINT, "split = split if h else done",
     "split = split if h else done + 1"),
    ("box-run-short", FIXPOINT, "first, last = max(a - 1, 0), min(b + 1, n)",
     "first, last = max(a - 1, 0), min(b, n)"),
    # a step that makes and drops a copy of its mix (an allocation only)
    ("step-copies-mix", FIXPOINT, "    mix = _edge_mix(buffers[1], *laws, buffers, out)\n",
     "    mix = _edge_mix(buffers[1], *laws, buffers, out)\n    mix.copy()\n"),
    # the sweep's stacks: law operands, the stacked residual and the block-tested multi-start
    ("stop-at-block-end", FIXPOINT, "below.argmax(0), len(deltas))",
     "len(deltas) - 1, len(deltas))"),
    ("freeze-one-step-early", FIXPOINT, "= path[stops[frozen] + 1, :, frozen]",
     "= path[stops[frozen], :, frozen]"),
    ("residual-P-untransposed", FIXPOINT, "(J - X) @ P.swapaxes(-1, -2)", "(J - X) @ P"),
    ("law-rows-rolled", FIXPOINT, "= np.repeat(values, repeat).reshape(",
     "= np.roll(np.repeat(values, repeat), 1).reshape("),
    ("law-rows-kept-off-by-one", FIXPOINT, "c.compress(keep, 1)", "c.compress(np.roll(keep, 1), 1)"),
    # the operator step _g_step
    ("step-one-minus-swapped", FIXPOINT, "np.subtract(_ONE, fill, buffers[1])",
     "np.subtract(fill, _ONE, buffers[1])"),
    ("step-laws-reversed", FIXPOINT, "mix = _edge_mix(buffers[1], *laws, buffers, out)",
     "mix = _edge_mix(buffers[1], *laws[::-1], buffers, out)"),
    ("step-no-clip", FIXPOINT, "return G(_clip(mix, _ZERO, _ONE, mix))", "return G(mix)"),
    # the contraction certificate of find_fixed_points (_unique_fixed_point)
    ("cert-inner-at-up", FIXPOINT, "a_inner = a(lo)", "a_inner = a(up)"),
    ("cert-outer-at-up", FIXPOINT, "a_outer = a(_g_fast(dist._pgf_inplace, *laws, up))",
     "a_outer = a(up)"),
    ("cert-margin-flipped", FIXPOINT, "(top <= 1.0 - 1e-9)", "(top <= 1.0 + 1e-9)"),
    ("cert-one-zero-padding", FIXPOINT, "zero_pad[0][0] = 0.0", "zero_pad[0][0] = 1.0"),
    # sample_forest
    ("forest-cap-ge", ORACLE, "aborted |= cum > node_cap", "aborted |= cum >= node_cap"),
    ("forest-cum-zeros", ORACLE, "cum = np.ones(n_samples", "cum = np.zeros(n_samples"),
    ("forest-cum-per-gen", ORACLE, "cum += np.diff(bounds)", "cum = 1 + np.diff(bounds)"),
    ("forest-p1-le", ORACLE, "(u < p1).view", "(u <= p1).view"),
    ("forest-cut-gt", ORACLE, "(u >= p1 + p0).view", "(u > p1 + p0).view"),
    ("forest-no-zeroing", ORACLE, "if aborted.any():", "if aborted.all():"),
    ("forest-extra-uniform", ORACLE, "u = rng.random(int(bounds[-1]))",
     "u = rng.random(int(bounds[-1]) + 1)[1:]"),
    # _row_dtype and _forest_root_counts
    ("rowdtype-one-bit-short", ORACLE, "if bits <= np.iinfo(dt).bits:",
     "if bits <= np.iinfo(dt).bits + 1:"),
    ("kernel-lost-i2", ORACLE, "((c == 1) & (i == 1))", "((c == 1) & (i == 2))"),
    ("kernel-won-i", ORACLE, "(c & 4 > 0) & (i == n)", "(c & 4 > 0) & (i == n - 1)"),
    ("kernel-wonb-mask6", ORACLE, "won_b = np.where(c & 4 > 0", "won_b = np.where(c & 6 > 0"),
    ("kernel-lostb-row2", ORACLE, "np.where(c == 1, row(1), zero)",
     "np.where(c == 1, row(2), zero)"),
    ("kernel-shift-2w", ORACLE, "(m, at, (1 + w).astype(dt))", "(m, at, (2 + w).astype(dt))"),
    ("kernel-order-reversed", ORACLE, "order = (top - nch)", "order = (nch - top)"),
    ("kernel-keep-unordered", ORACLE, "keep = (~forest.aborted.take(order))",
     "keep = (~forest.aborted)"),
    ("kernel-fold-one-short", ORACLE, "range(H - step + 1 if step > 1 else 0)",
     "range(H - step if step > 1 else 0)"),
    # the array bodies _pgf_inplace of G
    ("pgf-dirac-identity", OFFSPRING,
     "power, exponent = self._operands\n        return power(x, *exponent, x)",
     "power, exponent = self._operands\n        return x"),
    ("pgf-uniform-divisor", OFFSPRING, "x /= self.m", "x /= self.m + 1"),
    ("pgf-binomial-constants-swapped", OFFSPRING, "pi, q, (power, exponent) = self._operands",
     "q, pi, (power, exponent) = self._operands"),
    ("pgf-poisson-plus-one", OFFSPRING, "np.subtract(x, _ONE, x)", "np.add(x, _ONE, x)"),
    ("pgf-negbinomial-unscaled", OFFSPRING, "return np.multiply(x, scale, x)", "return x"),
    ("pgf-twopoint-constants-swapped", OFFSPRING, "(power, exponent), pi, q = self._operands",
     "(power, exponent), q, pi = self._operands"),
    ("pgf-explicit-reversed", OFFSPRING, "return _horner(self.pmf_values, x)",
     "return _horner(self.pmf_values[::-1], x)"),
    # _check_unit_interval
    ("check-low-gt", OFFSPRING, "arr, None) >= -_PGF_DOMAIN_SLACK",
     "arr, None) > -_PGF_DOMAIN_SLACK"),
    ("check-high-minus", OFFSPRING, "<= 1.0 + _PGF_DOMAIN_SLACK", "<= 1.0 - _PGF_DOMAIN_SLACK"),
    ("check-slack-1e-8", OFFSPRING, "_PGF_DOMAIN_SLACK = 1e-9", "_PGF_DOMAIN_SLACK = 1e-8"),
    ("check-clip-in-place", OFFSPRING, "clipped = arr.clip(0.0, 1.0)",
     "clipped = arr.clip(0.0, 1.0, out=arr)"),
    ("check-no-float", OFFSPRING, "isinstance(x, np.ndarray) else float(clipped)",
     "isinstance(x, np.ndarray) else clipped"),
    ("check-message-str", OFFSPRING, "outside [0, 1]: {x!r}", "outside [0, 1]: {x}"),
    # kappa3_bounds and kappa3_p0_zero_check
    ("k3-B12-gm", CRITERIA, "B12 = G(1.0 - p1 * g_q_gq)", "B12 = G(1.0 - p1 * g_q_gm)"),
    ("k3-mix-p0", CRITERIA, "mix = (1.0 - pm1) * (1.0 - g_m) + pm1",
     "mix = (1.0 - pm1) * (1.0 - g_m) + p0"),
    ("k3-A21-p1", CRITERIA, "A21 = G(pm1 * (1.0 - g_lose))", "A21 = G(p1 * (1.0 - g_lose))"),
    ("k3-weights-swap", CRITERIA, "weights = ((p0, pm1), (p1, p0))",
     "weights = ((p0, pm1), (p0, p1))"),
    ("k3-gp2-swap", CRITERIA, "gp2 = Gp(p0 + pm1 - p0 * x2 - pm1 * x1)",
     "gp2 = Gp(p0 + pm1 - pm1 * x2 - p0 * x1)"),
    ("k3-g1gq-gm", CRITERIA, "g_1_gq = G(1.0 - g_q)", "g_1_gq = G(1.0 - g_m)"),
    ("k3-f2B1-B12", CRITERIA, "G(p0 + pm1 - p0 * B12 - pm1 * B11)",
     "G(p0 + pm1 - p0 * B11 - pm1 * B12)"),
    ("k3-outer-nudge", CRITERIA, "outer = (Gp(1.0 - p1 * f1B2",
     "outer = ((1.0 + 1e-9) * Gp(1.0 - p1 * f1B2"),
    ("k3-gq-nudge", CRITERIA, "g_q = G(1.0 - p1)", "g_q = G(1.0 - p1 * (1.0 + 1e-6))"),
    ("p0zero-lose-factor", CRITERIA, "Gp(1.0 - (1.0 - p_minus1) * g)", "Gp(1.0 - p_minus1 * g)"),
    ("p0zero-open-low", CRITERIA, "if not 0.0 <= p_minus1 <= 1.0:",
     "if not 0.0 < p_minus1 <= 1.0:"),
    # pgf_derivative and params
    ("gp-dirac-power", OFFSPRING, "return self.m * x ** (self.m - 1)",
     "return self.m * x ** self.m"),
    ("gp-uniform-range", OFFSPRING, "_horner(range(1, self.m + 1), x)",
     "_horner(range(1, self.m), x)"),
    ("gp-binomial-power", OFFSPRING, "self.pi * x) ** (self.n - 1)",
     "self.pi * x) ** (self.n - 2)"),
    ("gp-poisson-nudge", OFFSPRING, "return self.lam * self._pgf_inplace(x)",
     "return (self.lam + 1e-9) * self._pgf_inplace(x)"),
    ("gp-negbinomial-power", OFFSPRING, "** (-self.r - 1))", "** (-self.r))"),
    ("gp-twopoint-pi", OFFSPRING, "return self.pi * self.d * x",
     "return (1.0 - self.pi) * self.d * x"),
    ("gp-explicit-shift", OFFSPRING, "enumerate(self.pmf_values)][1:]",
     "enumerate(self.pmf_values)][:-1]"),
    ("gp-public-unchecked", OFFSPRING, "return _on_array(self._pgf_derivative, x)",
     "return self._pgf_derivative(x)"),
    ("params-sorted", OFFSPRING, "for name in _FAMILIES[self.family][1]}",
     "for name in sorted(_FAMILIES[self.family][1])}"),
    ("params-explicit-tuple", OFFSPRING, 'return {"pmf": list(self.pmf_values)}',
     'return {"pmf": self.pmf_values}'),
    # duration_criterion and DurationReport.to_json_dict
    ("duration-weights-reversed", CRITERIA, "weights = (p1, p0, pm1)", "weights = (pm1, p0, p1)"),
    ("duration-alpha-untransposed", CRITERIA, "np.pad(Gp(alpha).T,", "np.pad(Gp(alpha),"),
    ("json-keys-col-major", CRITERIA,
     "(i + j for i in map(str, range(1, rows + 1)) for j in ends)",
     "(i + j for j in ends for i in map(str, range(1, rows + 1)))"),
    ("json-values-transposed", CRITERIA, "self.row_sums.ravel().tolist()",
     "self.row_sums.T.ravel().tolist()"),
    ("json-rows-cols", CRITERIA, "map(str, range(1, rows + 1))", "map(str, range(1, cols + 1))"),
    ("json-numpy-floats", CRITERIA, "self.row_sums.ravel().tolist())",
     "list(self.row_sums.ravel()))"),
]

FAILED_LINE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def mutate(tree: Path, path: str, text: str, replacement: str) -> None:
    source = (tree / path).read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{path}: {text!r} occurs {source.count(text)} times, not once")
    (tree / path).write_text(source.replace(text, replacement))


def start_pytest(tree: Path, args: list) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *args], cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def outcome(proc: subprocess.Popen) -> tuple:
    """(caught, first failing test) of a finished or timed-out pytest run."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 1, f"timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return 0, ""
    failed = FAILED_LINE.search(out)
    if proc.returncode == 1 and failed:
        return 1, failed.group(1)
    return 1, f"pytest exit {proc.returncode}: {out.strip().splitlines()[-1]}"


def run(tree: Path) -> tuple:
    """Outcomes of the suite without the reference file and of that file alone, run together."""
    others = start_pytest(tree, ["tests", "--ignore", REFERENCE_FILE,
                                 *(a for t in KNOWN_FAILURES for a in ("--deselect", t))])
    reference = start_pytest(tree, [REFERENCE_FILE])
    return outcome(others), outcome(reference)


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="percgame-mutants-") as tmp:
        control = Path(tmp) / "control"
        copy_tree(control)
        for caught, first in run(control):
            if caught:
                raise SystemExit(f"the unchanged copy fails: {first}")
        shutil.rmtree(control)
        print("| mutant | file | other tests | test_reference_paths.py | first failures |")
        print("|---|---|---|---|---|")
        rows = []
        for name, path, text, replacement in chosen:
            tree = Path(tmp) / name
            copy_tree(tree)
            mutate(tree, path, text, replacement)
            (a, first_a), (b, first_b) = run(tree)
            shutil.rmtree(tree)
            rows.append((a, b))
            firsts = "; ".join(f for f in (first_a, first_b) if f)
            print(f"| `{name}` | {Path(path).name} | {a} | {b} | {firsts} |", flush=True)
    only_reference = sum(1 for a, b in rows if b and not a)
    survived = sum(1 for a, b in rows if not (a or b))
    print(f"\n{len(rows)} mutants: {sum(a for a, _ in rows)} caught by the other tests, "
          f"{sum(b for _, b in rows)} by {REFERENCE_FILE}, {only_reference} by that file "
          f"alone, {survived} by neither; {time.perf_counter() - start:.0f} s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
