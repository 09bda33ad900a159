"""End-to-end subcommand behaviour, file formats and determinism."""

import csv
import ctypes
import hashlib
import importlib
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkequiv import (
    Equispaced,
    GenConfig,
    LinkKind,
    ModelSpec,
    SplitPlan,
    cli,
    concord,
    parallel,
    predictive_sim,
    structural_sim,
)
from linkequiv import fit as fit_module
from linkequiv.cli import EXIT_ERROR, EXIT_OK, EXIT_TOO_MANY_INVALID, main, read_dataset_csv


def run(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "d.csv"
    assert run("gen", "--n", 80, "--seed", 3, "--out", path) == EXIT_OK
    return path


# sha256 of ``gen``'s default CSV
GEN_DEFAULT_SHA256 = "5e2c4f003fb40e399099b5392c88561a738089c5e2ff35743bce8d27fb8c1dcb"


class TestGen:
    def test_writes_example_layout(self, tmp_path):
        out = tmp_path / "ex1.csv"
        assert run("gen", "--out", out) == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["x", "y"]
        assert len(rows) == 200  # header + n=199 default
        assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 1.0

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("gen", "--n", 50, "--seed", 7, "--out", a)
        run("gen", "--n", 50, "--seed", 7, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_labels(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("gen", "--n", 50, "--seed", 7, "--out", a)
        run("gen", "--n", 50, "--seed", 8, "--out", b)
        assert a.read_bytes() != b.read_bytes()

    # sha256 of the CSVs as written before structural replicates were drawn
    # as one stacked stream: gen output must not change with that scheme
    @pytest.mark.parametrize("args, digest", [
        ((), GEN_DEFAULT_SHA256),
        (("--design", "gaussian", "--sd", 2, "--truth-link", "cauchit", "--beta0", 1,
          "--beta1", 2, "--seed", 3, "--n", 500),
         "d2416e09f42275d1b57103cfe9b39a7ddc17a4e8e82b010d37068c3e425d7176"),
    ], ids=["default", "gaussian"])
    def test_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "g.csv"
        assert run("gen", *args, "--out", out) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args, name", [
        (("gen", "--design", "gaussian", "--mean", "nan"), "mean"),
        (("gen", "--design", "gaussian", "--sd", "inf"), "sd"),
        (("gen", "--beta0", "inf"), "beta0"),
        (("structural", "-R", 1, "-S", 5, "--beta1", "nan"), "beta1"),
        (("gen", "--interval", "-1e308", "1e308"), "interval width"),
        (("gen", "--beta1", "1e308", "--interval", 0, 10), "linear predictor"),
        (("gen", "--design", "gaussian", "--sd", "1e308", "--beta1", "1e308"),
         "linear predictor"),
        (("gen", "--design", "gaussian", "--sd", "1e308", "--beta1", 0), "gaussian design"),
    ], ids=["mean", "sd", "beta0", "beta1", "overflowing-width", "overflowing-predictor",
            "overflowing-gaussian-predictor", "overflowing-gaussian-draw"])
    def test_non_finite_generator_input_exits_one(self, tmp_path, capsys, args, name):
        """A non-finite generator parameter, or one that overflows the
        design or the true linear predictor, ends in one error line that
        names it, with no numpy warning first."""
        out = tmp_path / "g.csv"
        assert run(*args, "--out", out) == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
        assert not out.exists()

    def test_runs_as_python_dash_m(self, tmp_path):
        out = tmp_path / "g.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "linkequiv", "gen", "--out", str(out)],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DEFAULT_SHA256


# sha256 of the predictive and ic CSVs.  The gauss predictive pin dates
# from when every replicate and every link was fitted by its own fit_mle
# call, and the thin one from when fits began to stop on the Newton
# decrement; both ic pins were re-derived when the paired pass began to
# order each split's rows by response and then x, and logit fits began to
# start from the linear discriminant; the gauss ic pin again when the
# cauchit log term began to take pi*F(-|t|) from arctan(1/|t|).  Each
# agrees with the same run at every --jobs value.  "thin" has training
# splits without a positive label, so its CSVs hold failed (empty) cells.
PAIRED_GEN = {
    "gauss": ("--design", "gaussian", "--sd", 2, "--truth-link", "cauchit", "--beta0", 1,
              "--beta1", 2, "--seed", 3, "--n", 200),
    "thin": ("--n", 12, "--truth-link", "logit", "--beta0", -3, "--beta1", 1, "--seed", 1),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("data, command, digest", [
    ("gauss", "predictive", "6ffa0ccc07a0d6ed924168d538d03c641aa8c795eab6ef612ba4692f52b5eec9"),
    ("gauss", "ic", "04c288fdaf833d264dbfe64a89d05372208a8ece8a4973a6f07740d553e0f800"),
    ("thin", "predictive", "dc5737f0c15e3ad118afd086dff0f2795835d7e10cb4bf9f984b330b1747e6d7"),
    ("thin", "ic", "07be397a44ea0de4fd056cd2433ce8b4a72302c8e2518a595b5d02800d342bee"),
], ids=["gauss-predictive", "gauss-ic", "thin-predictive", "thin-ic"])
def test_paired_bytes_pinned(tmp_path, data, command, digest, jobs):
    path = tmp_path / "d.csv"
    assert run("gen", *PAIRED_GEN[data], "--out", path) == EXIT_OK
    source = ["--csv", path] if command == "predictive" else [path]
    out = tmp_path / "o.csv"
    code = run(command, *source, "-R", 20, "--seed", 4, "--max-invalid-frac", 1,
               "--jobs", jobs, "--out", out)
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of structural CSVs: the equispaced design (one shared x, no
# intercept) as written when the probit log term began to come from one
# erfc, and the gaussian design (per-row x, with an intercept) as written
# when the intercept of its logit fits' linear-discriminant start became
# log(n1) - log(n0), which negates exactly when the labels flip
@pytest.mark.parametrize("args, digest", [
    ((), "aea9e7d3ddfe00a13f1bf1aabd426e3b17a774ea4f425100900888f9b24a6098"),
    (("--design", "gaussian", "--sd", 2, "--beta0", 1, "--beta1", 2),
     "ab9eaa3b32e90e3c50b6a763c50a53cafa0c7163164f11740d8bfc06ed940c50"),
], ids=["equispaced", "gaussian"])
def test_structural_bytes_pinned(tmp_path, args, digest):
    out = tmp_path / "s.csv"
    assert run("structural", "-R", 3, "-S", 20, *args, "--seed", 5, "--out", out) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def readme_block(section, language):
    """The first ``language`` code block under the README's ``section``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_cli_examples():
    """The ``linkequiv ...`` lines of the README's ``## CLI`` code block."""
    block = readme_block("CLI", "sh")
    return [line for line in block.splitlines() if line.startswith("linkequiv ")]


# numeric values argparse alone would take for options
NEGATIVE_EXPONENT_LINES = [
    "linkequiv gen --beta0 -1e-3",
    "linkequiv cdfgrid --interval -1e-3 1e-3",
    "linkequiv concordance --interval -2.5e1 25",
    "linkequiv gen --interval -1E2 0",
]


@pytest.mark.parametrize("line", readme_cli_examples() + NEGATIVE_EXPONENT_LINES)
def test_readme_cli_example_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])


def test_readme_api_sketch_runs(capsys):
    exec(compile(readme_block("API sketch", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_console_script_target_resolves():
    """``[project.scripts]`` names an importable callable; the suite runs
    from the source tree, so nothing else checks it."""
    tomllib = pytest.importorskip("tomllib")
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    target = tomllib.loads(text)["project"]["scripts"]["linkequiv"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


# ``fit --links all`` on the paired studies' 500-row draw, as printed when
# every link was fitted by its own fit_mle call
P500_FIT_TABLE = """\
coefficient  probit  compit   cauchit  logit
intercept    0.3892  -0.1233  1.3166   0.7787
x            0.7536  0.6096   3.0002   1.5530

measure  probit     compit     cauchit    logit
loglik   -181.7288  -198.9191  -159.2406  -172.3913
aic      367.4575   401.8381   322.4812   348.7826
bic      375.8867   410.2673   330.9104   357.2118
"""


class TestFit:
    def test_links_share_one_warm_started_solve(self, tmp_path, capsys, monkeypatch):
        """The command fits its links in one ``_fit_links`` call: the table
        is the one that per-link fit_mle calls printed, and the cauchit fit,
        started from the command's logit fit, takes the iterations of its
        ``_fit_links`` row, fewer than a fit from zero."""
        path = tmp_path / "p500.csv"
        assert run("gen", *PAIRED_GEN["gauss"][:-2], "--n", 500, "--out", path) == EXIT_OK
        capsys.readouterr()
        results = []
        inner = cli._fit_result

        def recorded(spec, fit, data):
            results.append((spec.link, inner(spec, fit, data)))
            return results[-1][1]

        monkeypatch.setattr(cli, "_fit_result", recorded)
        assert run("fit", path, "--links", "all") == EXIT_OK
        assert capsys.readouterr().out == P500_FIT_TABLE
        data = read_dataset_csv(path, "y")
        row = fit_module._fit_links(cli.ALL_LINKS, True, data.predictors, data.response[None])
        cauchit = dict(results)[LinkKind.CAUCHIT]
        assert cauchit.iterations == row[LinkKind.CAUCHIT].iterations[0]
        assert cauchit.iterations < fit_module.fit_mle(ModelSpec(LinkKind.CAUCHIT), data).iterations

    def test_round_trips_generated_csv(self, dataset_csv, capsys):
        assert run("fit", dataset_csv) == EXIT_OK
        out = capsys.readouterr().out
        assert "probit" in out and "logit" in out and "ratio" in out

    def test_ratio_column_only_for_two_links(self, dataset_csv, capsys):
        run("fit", dataset_csv, "--links", "all")
        assert "ratio" not in capsys.readouterr().out

    def test_no_intercept(self, dataset_csv, capsys):
        assert run("fit", dataset_csv, "--no-intercept", "--links", "logit") == EXIT_OK
        assert "intercept" not in capsys.readouterr().out

    def test_unknown_response_column(self, dataset_csv, capsys):
        assert run("fit", dataset_csv, "--response", "label") == EXIT_ERROR
        assert "label" in capsys.readouterr().err

    def test_non_binary_response(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2\n2.0,0\n")
        assert run("fit", path) == EXIT_ERROR
        assert "0/1" in capsys.readouterr().err

    def test_constant_response_reports_separation(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("x,y\n" + "".join(f"{v},1\n" for v in np.linspace(0, 1, 9)))
        assert run("fit", path) == EXIT_ERROR
        assert "single value" in capsys.readouterr().err

    def test_separated_data_fits_with_notes(self, tmp_path, capsys):
        """Complete separation is reported on stderr as notes, not errors."""
        path = tmp_path / "sep.csv"
        path.write_text("x,y\n0,0\n1,0\n2,0\n3,1\n4,1\n5,1\n")
        assert run("fit", path, "--links", "all") == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("note: ") for line in lines)
        assert "note: logit: separation_suspected" in lines
        assert "note: cauchit: max_iterations_reached" in lines
        # the links noted as capped are those whose row stops at the cap
        x = np.arange(6.0)
        fits = fit_module._fit_links(list(LinkKind), True, x[:, None], (x >= 3.0)[None])
        for link, stack in fits.items():
            capped = stack.stop[0] == fit_module._CAP
            assert (f"note: {link.value}: max_iterations_reached" in lines) == capped

    def test_missing_value_aborts(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("x,y\n1.0,1\n,0\n")
        assert run("fit", path) == EXIT_ERROR
        assert "missing" in capsys.readouterr().err

    def test_error_after_multiline_cell_names_its_line(self, tmp_path, capsys):
        # the quoted cell of record 2 spans lines 2 and 3, so 'abc' is on line 5
        path = tmp_path / "ml.csv"
        path.write_text('x,y\n"1.0\n",1\n2.0,0\nabc,0\n')
        assert run("fit", path) == EXIT_ERROR
        assert f"{path}:5: non-numeric cell 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, args, message", [
        ("x,y\n1.0,1\nabc,0\n", (), "non-numeric cell 'abc'"),
        ("x,y\n1.0,1\n2.0,0,3.0\n", (), "expected 2 cells"),
        ("", (), "empty file"),
        ("x,y\n", (), "no data rows"),
        ("x,y\n1.0,1\n2.0,0\n", ("--links", "probit,tobit"), "unknown link 'tobit'"),
        (None, (), "No such file"),
    ], ids=["non-numeric", "cell-count", "empty", "header-only", "unknown-link",
            "no-file"])
    def test_bad_input_exits_one_with_message(self, tmp_path, capsys, text, args, message):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        assert run("fit", path, *args) == EXIT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content, message", [
        (b"x,y\n1.0,1\n\xe9,0\n", "{path}: not UTF-8 text"),
        (b"x,y\n1.0,1\n" + b"1" * 131_073 + b",0\n", "{path}:3: field larger than field limit"),
    ], ids=["latin-1-byte", "oversized-field"])
    def test_unreadable_csv_exits_one_with_one_error_line(self, tmp_path, capsys, content,
                                                         message):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        assert run("fit", path) == EXIT_ERROR
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message.format(path=path) in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (("structural", "--jobs", "x"), "argument --jobs: invalid int value: 'x'"),
        (("tabulate",), "invalid choice: 'tabulate'"),
        (("gen", "--beta0", "-x"), "argument --beta0: expected one argument"),
    ], ids=["bad-jobs", "unknown-subcommand", "option-as-value"])
    def test_usage_error_exits_one_with_message(self, capsys, argv, message):
        assert run(*argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fit", "structural", "predictive", "concordance",
                                         "ic", "gen", "cdfgrid"])
    def test_help_still_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert f"usage: linkequiv {command}" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_finite_cell_rejected_with_its_place(self, tmp_path, capsys, cell, column):
        path = tmp_path / "in.csv"
        row = f"{cell},0" if column == "x" else f"0.5,{cell}"
        path.write_text(f"x,y\n1.0,1\n-2.0,0\n\n{row}\n3.0,1\n")
        assert run("fit", path, "--links", "logit") == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"{path}:5: non-finite cell {cell!r} in column {column!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("header, name", [("x,y,y", "y"), ("x,x,y", "x")])
    def test_repeated_column_name_rejected(self, tmp_path, capsys, header, name):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n0.5,1,0\n-1.0,0,1\n2.0,1,1\n-0.3,0,0\n")
        assert run("fit", path, "--links", "logit") == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"column {name!r} is named more than once" in captured.err
        assert captured.out == ""


class TestStructural:
    def test_minimal_run_yields_one_row(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run("structural", "-R", 1, "-S", 3, "--n", 30, "--seed", 1, "--out", out)
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["replicate", "theta", "tau", "rho", "r_squared", "dropped"]
        assert len(rows) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("structural", "-R", 2, "-S", 5, "--n", 40, "--seed", 4, "--out", a)
        run("structural", "-R", 2, "-S", 5, "--n", 40, "--seed", 4, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_printed(self, tmp_path, capsys):
        run("structural", "-R", 3, "-S", 6, "--n", 40, "--seed", 2,
            "--out", tmp_path / "t.csv")
        out = capsys.readouterr().out
        assert "theta summary" in out and "median" in out


class TestPredictive:
    def test_csv_input(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "te.csv"
        code = run("predictive", "--csv", dataset_csv, "-R", 5, "--seed", 2, "--out", out)
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["replicate", "probit", "compit", "cauchit", "logit"]
        assert len(rows) == 6
        printed = capsys.readouterr().out
        order = ["median", "mean", "sd", "skewness", "kurtosis", "cv", "iqr", "min", "max"]
        positions = [printed.index(f"\n{stat} ") for stat in order]
        assert positions == sorted(positions)

    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        return err[0]

    def test_csv_required(self, tmp_path, capsys):
        out = tmp_path / "te.csv"
        assert run("predictive", "-R", 3, "--out", out) == EXIT_ERROR
        assert "--csv" in self._one_error_line(capsys)
        assert not out.exists()

    def test_generator_flag_rejected(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "te.csv"
        assert run("predictive", "--csv", dataset_csv, "-R", 3, "--n", 50,
                   "--out", out) == EXIT_ERROR
        assert "--n" in self._one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, dataset_csv, tmp_path, unbuffered):
        """A run whose stdout reader has gone writes the same CSV as a
        normal run, then exits 1 with nothing on stderr, whether its
        stdout is block-buffered or not."""
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        argv = ["predictive", "--csv", dataset_csv, "-R", 5, "--seed", 2, "--out"]
        assert run(*argv, want) == EXIT_OK
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "linkequiv", *map(str, argv), str(got)],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_ERROR, b"")
        assert got.read_bytes() == want.read_bytes()

    def test_flaky_fits_flip_exit_status(self, tmp_path):
        """A dataset with a single positive label makes many training
        splits single-class, pushing failures over the threshold."""
        path = tmp_path / "thin.csv"
        rows = ["x,y"] + [f"{v},0" for v in np.linspace(-1, 1, 11)] + ["2.0,1"]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "te.csv"
        code = run("predictive", "--csv", path, "-R", 10, "--seed", 1,
                   "--out", out, "--links", "logit")
        assert code == EXIT_TOO_MANY_INVALID


def replication_argv(command, csv_path, out):
    """A tiny run of one replication subcommand."""
    if command == "structural":
        return ["structural", "-R", 4, "-S", 3, "--n", 30, "--out", out]
    if command == "predictive":
        return ["predictive", "--csv", csv_path, "-R", 3, "--links", "logit", "--out", out]
    return ["ic", csv_path, "-R", 3, "--links", "logit", "--out", out]


def fake_cpus(monkeypatch, count, usable):
    """The host as ``parallel.replicate_map`` sees it when it sizes a pool:
    ``count`` CPUs, of which the process may run on ``usable``; with
    ``usable`` None the platform reports no affinity set."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if usable is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                            raising=False)


class FakePool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in this process, so no worker process is started."""

    started: list = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("command", ["structural", "predictive", "ic"])
class TestReplicationFlags:
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, command, jobs, dataset_csv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(*replication_argv(command, dataset_csv, out), "--jobs", jobs) == EXIT_ERROR
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cpus, started", [(1, []), (3, [3])])
    def test_jobs_capped_at_cpu_count(self, command, cpus, started, dataset_csv, tmp_path,
                                      monkeypatch):
        """Where the platform reports no affinity set, the CPU count caps
        --jobs."""
        # a budget of one element makes every paired replicate a block of its own
        monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", 1)
        fake_cpus(monkeypatch, cpus, None)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "started", [])
        out = tmp_path / "o.csv"
        assert run(*replication_argv(command, dataset_csv, out), "--jobs", 64) == EXIT_OK
        assert FakePool.started == started

    @pytest.mark.parametrize("jobs, usable, started", [(2, 1, []), (64, 3, [3])])
    def test_jobs_capped_at_usable_cpus(self, command, jobs, usable, started, dataset_csv,
                                        tmp_path, monkeypatch):
        """A process pinned to fewer CPUs than the host has (``taskset -c
        0`` on 8 CPUs) starts no more workers than it may run on."""
        monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", 1)
        fake_cpus(monkeypatch, 8, usable)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "started", [])
        out = tmp_path / "o.csv"
        assert run(*replication_argv(command, dataset_csv, out), "--jobs", jobs) == EXIT_OK
        assert FakePool.started == started

    @pytest.mark.parametrize("frac", ["-1", "1.5", "nan"])
    def test_max_invalid_frac_outside_unit_interval_rejected(self, command, frac, dataset_csv,
                                                             tmp_path, capsys):
        argv = replication_argv(command, dataset_csv, tmp_path / "o.csv")
        assert run(*argv, "--max-invalid-frac", frac) == EXIT_ERROR
        assert "--max-invalid-frac" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", ["0", "1"])
    def test_max_invalid_frac_bounds_accepted(self, command, frac, dataset_csv, tmp_path):
        argv = replication_argv(command, dataset_csv, tmp_path / "o.csv")
        assert run(*argv, "--max-invalid-frac", frac) == EXIT_OK


@pytest.mark.parametrize("command", ["predictive", "ic"])
@pytest.mark.parametrize("jobs, started", [(64, [3]), (1, [])])
def test_one_pool_per_paired_command(command, jobs, started, dataset_csv, tmp_path,
                                     monkeypatch):
    """All links share one pool: a budget of one element cuts the 3
    replicates into 3 blocks, mapped once for every link, not once per
    link."""
    monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", 1)
    fake_cpus(monkeypatch, 3, 3)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    argv = replication_argv(command, dataset_csv, tmp_path / "o.csv")
    argv[argv.index("--links") + 1] = "all"
    assert run(*argv, "--jobs", jobs) == EXIT_OK
    assert FakePool.started == started


@pytest.mark.parametrize("command", ["predictive", "ic"])
def test_pass_within_one_block_starts_no_pool(command, dataset_csv, tmp_path, monkeypatch):
    """3 replicates of 54 training rows x 2 coefficients fit in one budget
    block, which runs in this process at any --jobs."""
    fake_cpus(monkeypatch, 3, 3)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    argv = replication_argv(command, dataset_csv, tmp_path / "o.csv")
    argv[argv.index("--links") + 1] = "all"
    assert run(*argv, "--jobs", 64) == EXIT_OK
    assert FakePool.started == []


def test_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    """A pool starts every worker up front, so the 2 replicate tasks of
    ``structural -R 2`` at --jobs 64 (capped at 3 CPUs) start 2 workers,
    not 3."""
    fake_cpus(monkeypatch, 3, 3)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    argv = ["structural", "-R", 2, "-S", 3, "--n", 30, "--out", tmp_path / "o.csv"]
    assert run(*argv, "--jobs", 64) == EXIT_OK
    assert FakePool.started == [2]


@pytest.mark.parametrize("run", [
    lambda csv_path: parallel.replicate_map(abs, range(8), jobs=64),
    lambda csv_path: structural_sim(
        GenConfig(Equispaced(0.0, 1.0), LinkKind.CAUCHIT, beta0=0.0, beta1=0.5, n=199),
        R=64, S=3, seed=0, jobs=64),
    lambda csv_path: predictive_sim(read_dataset_csv(csv_path, "y"), [LinkKind.LOGIT],
                                    SplitPlan(replications=4, seed=0), jobs=64),
], ids=["replicate_map", "structural_sim", "predictive_sim"])
def test_library_pools_capped_at_usable_cpus(run, dataset_csv, monkeypatch):
    """A library caller's pool is capped at the usable CPUs, as the CLI's
    is: on 3 of 8 CPUs, jobs=64 over 8 elements, 64 structural replicates
    or 4 one-replicate blocks starts 3 workers."""
    monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", 1)
    fake_cpus(monkeypatch, 8, 3)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "started", [])
    run(dataset_csv)
    assert FakePool.started == [3]


class FakeLibc:
    """A C library whose ``mallopt`` records each call and returns
    ``accept``, as glibc returns 1 on success and 0 on a refused value."""

    def __init__(self, accept=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return accept

        self.mallopt = mallopt


class TestMallocThresholds:
    """``cli._raise_malloc_thresholds`` without its once-per-process cache,
    on a fake C library, so this process's allocator is left as it is."""

    @pytest.fixture(autouse=True)
    def linux(self, monkeypatch):
        monkeypatch.setattr(cli.sys, "platform", "linux")
        for name in cli._MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)

    def raise_with(self, monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._raise_malloc_thresholds.__wrapped__()

    def test_sets_both_thresholds(self, monkeypatch):
        libc = FakeLibc()
        self.raise_with(monkeypatch, libc)
        assert libc.calls == [(cli._M_MMAP_THRESHOLD, 32 << 20), (cli._M_TRIM_THRESHOLD, 64 << 20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    def test_refused_mmap_threshold_leaves_trim_alone(self, monkeypatch):
        libc = FakeLibc(accept=0)
        self.raise_with(monkeypatch, libc)
        assert libc.calls == [(cli._M_MMAP_THRESHOLD, 32 << 20)]

    def test_no_op_without_mallopt(self, monkeypatch):
        self.raise_with(monkeypatch, object())

    @pytest.mark.parametrize("name", cli._MALLOC_ENV)
    def test_skipped_when_user_sets_thresholds(self, monkeypatch, name):
        value = "glibc.malloc.mmap_threshold=65536" if name == "GLIBC_TUNABLES" else "65536"
        monkeypatch.setenv(name, value)
        libc = FakeLibc()
        self.raise_with(monkeypatch, libc)
        assert libc.calls == []

    def test_skipped_off_linux(self, monkeypatch):
        monkeypatch.setattr(cli.sys, "platform", "darwin")
        libc = FakeLibc()
        self.raise_with(monkeypatch, libc)
        assert libc.calls == []

    def test_main_sets_them_once(self, monkeypatch, tmp_path):
        libc = FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._raise_malloc_thresholds.cache_clear()
        for seed in (1, 2):
            assert run("gen", "--n", 5, "--seed", seed, "--out", tmp_path / "g.csv") == EXIT_OK
        assert len(libc.calls) == 2


@pytest.mark.parametrize("command", ["predictive", "ic"])
def test_duplicate_links_rejected(command, dataset_csv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    argv = replication_argv(command, dataset_csv, out)
    argv[argv.index("--links") + 1] = "probit,logit,PROBIT"
    assert run(*argv) == EXIT_ERROR
    assert "once" in capsys.readouterr().err
    assert not out.exists()


class TestConcordance:
    def test_default_links_table(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("concordance", "--s", 3000, "--out", out) == EXIT_OK
        printed = capsys.readouterr().out
        assert "equispaced" in printed
        rows = read_rows(out)
        assert rows[0] == ["mode", "link_a", "link_b", "rate"]
        # 4 links -> 10 unordered pairs including diagonal
        assert len(rows) == 11

    def test_single_link_zero_matrix(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("concordance", "--links", "probit", "--s", 100, "--out", out) == EXIT_OK
        rows = read_rows(out)
        assert rows[1] == ["equispaced", "probit", "probit", "0.0"]

    def test_two_point_run(self, tmp_path):
        assert run("concordance", "--s", 2, "--out", tmp_path / "c.csv") == EXIT_OK

    # sha256 of the CSVs as written while each pair's rate came from its own
    # comparison of +1/-1 sign vectors
    @pytest.mark.parametrize("args, digest", [
        ((), "c4721b4511c1e74c8f70ad509921b26f1d368858653473d40d333e8fe0db0d90"),
        (("--mode", "uniform_random", "--seed", 4, "--s", 5000),
         "3ca60fd0106ec48cebd576546ded1cbeaa64c5848fe5397d282039bbeb420051"),
    ], ids=["equispaced", "uniform-random"])
    def test_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "c.csv"
        assert run("concordance", *args, "--out", out) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_random_mode_recorded_and_seeded(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("concordance", "--mode", "uniform_random", "--seed", 5, "--s", 500, "--out", a)
        run("concordance", "--mode", "uniform_random", "--seed", 5, "--s", 500, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert read_rows(a)[1][0] == "uniform_random"


class TestIc:
    def test_minimal_run(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "ic.csv"
        code = run("ic", dataset_csv, "-R", 2, "--seed", 6, "--out", out)
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0][0] == "replicate"
        assert "probit_aic" in rows[0] and "logit_bic" in rows[0]
        assert len(rows) == 3
        printed = capsys.readouterr().out
        assert "AIC" in printed and "BIC" in printed


@pytest.mark.parametrize("cell, text", [
    (0.1, "0.1"), (np.float64(-2.5e-300), "-2.5e-300"), (np.float32(0.5), "0.5"),
    (3, "3"), (np.int64(-7), "-7"), (True, "1"), (math.nan, ""), (np.float64("nan"), ""),
])
def test_full_precision_cell_text(cell, text):
    assert cli._full(cell) == text


class TestCdfGrid:
    def test_schema_and_monotone_columns(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("cdfgrid", "--s", 201, "--out", out) == EXIT_OK
        rows = read_rows(out)
        header = rows[0]
        assert header[0] == "u"
        for link in ["probit", "compit", "cauchit", "logit"]:
            assert f"{link}_density" in header and f"{link}_cdf" in header
        body = np.array([[float(c) for c in row] for row in rows[1:]])
        for name in header[1:]:
            col = body[:, header.index(name)]
            if name.endswith("_cdf"):
                assert np.all((col > 0.0) & (col < 1.0))
                assert np.all(np.diff(col) >= 0.0)

    def test_scaled_probit_column_tracks_logit(self, tmp_path):
        """Reading back the emitted curves reproduces the sqrt(pi/8)
        agreement between the logit CDF and the rescaled probit CDF."""
        lam = math.sqrt(math.pi / 8.0)
        a = tmp_path / "logit.csv"
        b = tmp_path / "probit.csv"
        run("cdfgrid", "--links", "logit", "--interval", -6, 6, "--s", 601, "--out", a)
        run("cdfgrid", "--links", "probit",
            "--interval", -6 * lam, 6 * lam, "--s", 601, "--out", b)
        logit_cdf = np.array([float(r[2]) for r in read_rows(a)[1:]])
        probit_cdf = np.array([float(r[2]) for r in read_rows(b)[1:]])
        assert np.max(np.abs(logit_cdf - probit_cdf)) <= 0.02

    # integer bounds, since argparse reads "-1e308" as a flag
    @pytest.mark.parametrize("args", [("--interval", 1, 1), ("--s", 1),
                                      ("--interval", -10**308, 10**308)],
                             ids=["empty-interval", "one-point", "overflowing-width"])
    def test_bad_grid_exits_one_and_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "g.csv"
        assert run("cdfgrid", *args, "--out", out) == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("cdfgrid", "--s", 50, "--out", a)
        run("cdfgrid", "--s", 50, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestReadDatasetCsv:
    def test_feature_names_preserve_order(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,y,b\n1.0,0,2.0\n3.0,1,4.0\n5.0,1,0.5\n")
        data = read_dataset_csv(str(path), "y")
        assert data.names == ("a", "b")
        np.testing.assert_array_equal(data.predictors[0], [1.0, 2.0])
        np.testing.assert_array_equal(data.response, [0.0, 1.0, 1.0])

    def test_generated_file_round_trips(self, dataset_csv):
        data = read_dataset_csv(str(dataset_csv), "y")
        assert data.n == 80 and data.names == ("x",)

    @pytest.mark.parametrize("header, row", [
        ("y,x,z", "1,0.5,2.0"),
        ("x,y,z", "0.5,1,2.0"),
    ], ids=["response-first", "predictor-first"])
    def test_byte_order_mark_skipped(self, tmp_path, header, row):
        path = tmp_path / "bom.csv"
        path.write_bytes(f"\ufeff{header}\n{row}\n".encode("utf-8"))
        data = read_dataset_csv(str(path), "y")
        assert data.names == ("x", "z")
        np.testing.assert_array_equal(data.predictors, [[0.5, 2.0]])
        np.testing.assert_array_equal(data.response, [1.0])
