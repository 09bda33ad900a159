"""The three benchmark workloads: their command lines, inputs, units of
work and correctness gates.

This module uses the standard library only, so the orchestrator can
build inputs and set-up probes without importing numpy.

Each workload turns a seed into the ``linkequiv`` command lines of one
pass, split into ``pieces`` short pieces that each write their own output
files, so that each piece is short enough to be timed many times in one
run.  After a pass the workload reads the outputs of all its pieces to
count units of work and failures and to apply its gates.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

LINKS = ("probit", "compit", "cauchit", "logit")

# The CLI's exit status for an aborted command (cli.EXIT_ERROR).
EXIT_ERROR = 1

# The gaussian design both CSV workloads read: x ~ Normal(0, 2^2), cauchit
# truth with intercept 1 and slope 2, drawn by `linkequiv gen --seed 3`.
# The seed is fixed because fit cost on this design depends strongly on the
# draw: over gen seeds 0-4 the n=500 data need 8 to 36 log-likelihood
# evaluations per fit, and the n=200,000 data 2 to 8.5 s per `fit --links
# all`, through the stall path of the solver (probit and compit end
# converged=False).  Seed 3 is a draw on which that stall path runs, so the
# defect stays in the measurement.  Both files keep the generated row order
# for every run seed.  On the n=200,000 file the rounding of the row order
# alone changes how long the stall path runs (423 to 518 log-likelihood
# evaluations per `fit --links all` over five shuffles), and measured rates
# followed those counts; on the n=500 file a shuffle changes the splits.
REFERENCE_GEN_SEED = 3
GAUSSIAN_DESIGN = ["--design", "gaussian", "--mean", "0", "--sd", "2",
                   "--truth-link", "cauchit", "--beta0", "1", "--beta1", "2"]
TRUE_BETA = (1.0, 2.0)

# structural: criterion 02 bands; paired: criterion 05 gap.
THETA_BAND = (0.55, 0.70)
MIN_R_SQUARED = 0.95
MAX_TEST_ERROR_GAP = 0.02


# exit status of body.py when a gate fails; its last output line is {"error": ...}
GATE_FAILED = 3


class GateError(Exception):
    """A workload output failed its correctness gate."""


@dataclass
class Tally:
    """Units of work in one pass.  ``items`` counts completed units of the
    throughput metric; ``attempted``/``failed`` count the units in which
    the failure fraction is defined."""

    items: int
    attempted: int
    failed: int


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _cell(text: str) -> float:
    # the CLI writes a failed replicate as an empty cell
    return float(text) if text else math.nan


def copy_rows(src: Path, dst: Path, limit: int | None = None) -> None:
    """Copy a headed CSV, keeping the first ``limit`` data rows when given."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(lines[:1] + lines[1:][:limit]), encoding="utf-8")


class Structural:
    """`linkequiv structural -R 8 -S 199 --jobs 1`, scaled to 16 pieces of
    `-R 1 -S 50`: equispaced x on [0, 1], n = 199, cauchit truth, slope
    0.5, no intercept, logit and probit fits.  Thousands of tiny
    one-coefficient fits: per-call overhead in fit and links dominates.
    Piece ``k`` passes ``seed * pieces + k`` as the CLI seed.  Unit: one
    dataset fitted under both links."""

    name = "structural"
    jobs = 1

    def __init__(self, work: Path, smoke: bool):
        self.work = work
        self.pieces, self.R, self.S = (2, 1, 12) if smoke else (16, 1, 50)

    def reference_inputs(self) -> list[tuple[list[str], Path, int | None]]:
        return []

    def warmup_argv(self) -> list[str]:
        return ["structural", "-R", "1", "-S", "3", "--jobs", "1",
                "--out", str(self.work / "warmup.csv")]

    def commands(self, seed: int, jobs: int, k: int) -> list[list[str]]:
        return [["structural", "-R", str(self.R), "-S", str(self.S), "--jobs", str(jobs),
                 "--seed", str(seed * self.pieces + k), "--out", str(self.outputs(k)[0])]]

    def outputs(self, k: int) -> list[Path]:
        return [self.work / f"theta-{k}.csv"]

    def tally(self, results: list[tuple[list[int], list[str]]]) -> Tally:
        attempted = self.pieces * self.R * self.S
        failed = 0
        thetas, r2s = [], []
        for k, (codes, _) in enumerate(results):
            if codes[0] == EXIT_ERROR:
                failed += self.R * self.S
                continue
            _, rows = _read_rows(self.outputs(k)[0])
            for _, theta, _, _, r2, dropped in rows:
                if theta:
                    thetas.append(float(theta))
                    r2s.append(float(r2))
                    failed += int(dropped)
                else:
                    failed += self.S  # a NaN replicate loses all its pairs
        if not thetas:
            raise GateError("structural: no valid replicate")
        med_theta = statistics.median(thetas)
        med_r2 = statistics.median(r2s)
        if not THETA_BAND[0] <= med_theta <= THETA_BAND[1]:
            raise GateError(f"structural: median theta {med_theta} outside {THETA_BAND}")
        if not med_r2 >= MIN_R_SQUARED:
            raise GateError(f"structural: median R^2 {med_r2} below {MIN_R_SQUARED}")
        return Tally(attempted - failed, attempted, failed)


class Paired:
    """`linkequiv predictive --csv d.csv -R 300 --jobs 2`, then `linkequiv ic
    d.csv -R 300 --jobs 2`, scaled to 2 pieces of `-R 50`, on one n = 500
    gaussian-design dataset with all four links and an intercept.
    Two-coefficient fits with heavy line searches, 5 splits per replicate
    and 5 process pools per piece.  Unit: one split replicate scored under
    all four links for test error, AIC and BIC.

    The work is the same for every run seed: piece ``k`` draws its splits
    with CLI seed ``k`` from the rows in generated order, because the
    splits change the work of a pass by up to 20%."""

    name = "paired"
    jobs = 2

    def __init__(self, work: Path, smoke: bool):
        self.work = work
        self.pieces, self.R = (2, 2) if smoke else (2, 50)
        self.data = work / "d.csv"

    def reference_inputs(self) -> list[tuple[list[str], Path, int | None]]:
        return [(["--n", "500"], self.data, None)]

    def warmup_argv(self) -> list[str]:
        return ["predictive", "--csv", str(self.data), "-R", "2", "--jobs", "1",
                "--out", str(self.work / "warmup.csv")]

    def commands(self, seed: int, jobs: int, k: int) -> list[list[str]]:
        common = ["-R", str(self.R), "--jobs", str(jobs), "--seed", str(k)]
        te, ic = self.outputs(k)
        return [
            ["predictive", "--csv", str(self.data), *common, "--out", str(te)],
            ["ic", str(self.data), *common, "--out", str(ic)],
        ]

    def outputs(self, k: int) -> list[Path]:
        return [self.work / f"te-{k}.csv", self.work / f"ic-{k}.csv"]

    def tally(self, results: list[tuple[list[int], list[str]]]) -> Tally:
        attempted = self.pieces * self.R * len(LINKS) * 2
        failed = 0
        items = 0
        errors = {link: [] for link in LINKS}
        for k, (codes, _) in enumerate(results):
            if EXIT_ERROR in codes:
                failed += self.R * len(LINKS) * 2
                continue
            te_path, ic_path = self.outputs(k)
            te_header, te_rows = _read_rows(te_path)
            ic_header, ic_rows = _read_rows(ic_path)
            if te_header[1:] != list(LINKS) or len(te_rows) != self.R or len(ic_rows) != self.R:
                raise GateError("paired: unexpected CSV shape")
            for te_row, ic_row in zip(te_rows, ic_rows):
                te = [_cell(c) for c in te_row[1:]]
                aic_bic = [_cell(c) for c in ic_row[1:]]
                if any(math.isinf(v) for v in aic_bic):
                    raise GateError(f"paired: AIC/BIC not finite in replicate {ic_row[0]}")
                for link, value in zip(LINKS, te):
                    if not math.isnan(value):
                        errors[link].append(value)
                # a failed training fit empties both its AIC and BIC cells
                missing = sum(map(math.isnan, te)) + sum(map(math.isnan, aic_bic[0::2]))
                failed += missing
                items += missing == 0
        means = [statistics.fmean(v) for v in errors.values() if v]
        if len(means) != len(LINKS):
            raise GateError("paired: a link has no test error")
        if max(means) - min(means) > MAX_TEST_ERROR_GAP:
            raise GateError(f"paired: mean test errors {means} differ by more "
                            f"than {MAX_TEST_ERROR_GAP}")
        return Tally(items, attempted, failed)


class Bigfit:
    """`linkequiv fit big.csv --links all` on n = 200,000 rows of the same
    gaussian design, in one piece.  A few large fits bound by per-element
    arithmetic and allocation, plus a large CSV read.  Unit: one link fit."""

    name = "bigfit"
    jobs = 1
    pieces = 1

    def __init__(self, work: Path, smoke: bool):
        self.work = work
        self.n = 2000 if smoke else 200_000
        self.data = work / "big.csv"
        self.tiny = work / "tiny.csv"

    def reference_inputs(self) -> list[tuple[list[str], Path, int | None]]:
        return [(["--n", str(self.n)], self.data, None),
                (["--n", str(self.n)], self.tiny, 500)]

    def warmup_argv(self) -> list[str]:
        return ["fit", str(self.tiny), "--links", "all"]

    def commands(self, seed: int, jobs: int, k: int) -> list[list[str]]:
        return [["fit", str(self.data), "--links", "all"]]

    def outputs(self, k: int) -> list[Path]:
        return []

    def tally(self, results: list[tuple[list[int], list[str]]]) -> Tally:
        [(codes, stdouts)] = results
        attempted = len(LINKS)
        if codes[0] != 0:
            return Tally(0, attempted, attempted)
        lines = stdouts[0].splitlines()
        header = lines[0].split()
        if header[1:5] != list(LINKS):
            raise GateError(f"bigfit: unexpected table header {header}")
        coefs = {link: [] for link in LINKS}
        for line in lines[1:3]:
            cells = line.split()
            for link, text in zip(LINKS, cells[1:5]):
                coefs[link].append(float(text))
        if not all(math.isfinite(c) for row in coefs.values() for c in row):
            raise GateError(f"bigfit: non-finite coefficients {coefs}")
        # about four standard errors of the cauchit slope (0.063 at n = 200,000)
        tol = 28.0 / math.sqrt(self.n)
        if any(abs(b - t) > tol for b, t in zip(coefs["cauchit"], TRUE_BETA)):
            raise GateError(f"bigfit: cauchit fit {coefs['cauchit']} not within "
                            f"{tol:.3f} of {TRUE_BETA}")
        return Tally(attempted, attempted, 0)


WORKLOADS = {cls.name: cls for cls in (Structural, Paired, Bigfit)}
