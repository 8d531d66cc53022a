"""The three benchmark workloads: job lists, field policy and output checks.

Every job goes through a stable entry point only: `dscodes.cli.main`
(looked up at call time, so a traced run sees its wrapper),
`scripts/verify_paper.py`, or names in `dscodes.__all__`.  No job passes
`--threads`.  A job is checked in one of two ways:

* a digest: sha256 of its standard output, recorded at the seed commit in
  `expected.json`, for jobs whose output does not depend on the seed;
* a rule: a seed-independent verdict check, for jobs that take `--seed`
  (every cor3 and thm1prop instance must come out `match`).

Both also require the documented exit code: the cor4even 4-to-1 standing
example exits 2 and the scans with instances whose hypotheses fail exit 1,
and those are expected, not failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
VERIFY_PAPER = ROOT / "scripts" / "verify_paper.py"
EXPECTED_FILE = Path(__file__).with_name("expected.json")
EXPECTED = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[int], tuple[int, str]]  # seed -> (exit code, stdout)
    exit_code: int = 0
    rule: Callable[[str, int], bool] | None = None  # None: digest check


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    cold: bool  # True: every job runs in a fresh forked process that builds its own field
    fields: tuple[tuple[int, int], ...] = ()  # (p, m) built in setup when warm
    policy: str = ""
    min_passes: int = 3


# ----------------------------------------------------------------------
# entry points


def _captured(call) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    return code, out.getvalue()


def _cli(argv: str, seeded: bool):
    def run(seed: int):
        args = argv.split() + (["--seed", str(seed)] if seeded else [])
        return _captured(lambda: importlib.import_module("dscodes.cli").main(args))
    return run


def _verify_paper(seed: int):
    script = runpy.run_path(str(VERIFY_PAPER), run_name="verify_paper")
    code, out = _captured(script["main"])
    # the tally line carries the script's own wall time
    return code, re.sub(r" in [0-9.]+ s:", " in * s:", out)


def _trcubic(f):
    return [x for x in f.units() if f.trace(f.add(f.pow(x, 3), x)) == 0]


def _simplex(f):
    return [f.antilog(t) for t in range((f.q - 1) // (f.p - 1))]


def _analyse(p: int, m: int, family):
    """Weights, full dual, summary and Pless moments of one code, from the
    public names only."""
    def run(seed: int):
        ds = importlib.import_module("dscodes")
        f = ds.get_field(p, m)
        dset = ds.DefiningSet(f, tuple(family(f)), label=family.__name__.strip("_"))
        wd = ds.build_code_weights(dset)
        dual = ds.macwilliams_dual(wd)
        summary = ds.summarize(dset, wd)
        pless = ds.pless_moments_check(wd)
        out = {
            "code": wd.to_json_dict(),
            "dual": dual.to_json_dict(),
            "dual_d": summary.dual_d,
            "pless_ok": pless.ok,
        }
        return 0, json.dumps(out, sort_keys=True) + "\n"
    return run


# ----------------------------------------------------------------------
# checks


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def _scan_json_all_match(total: int):
    def rule(out: str, seed: int) -> bool:
        data = json.loads(out)
        want = {"total": total, "match": total, "mismatch": 0, "hypothesis-not-met": 0}
        return data["summary"] == want and all(r["verdict"] == "match" for r in data["reports"])
    return rule


def _scan_text_all_match(total: int):
    def rule(out: str, seed: int) -> bool:
        lines = out.splitlines()
        return (
            len(lines) == total + 1
            and all(line.endswith(": match") for line in lines[:-1])
            and lines[-1] == f"total={total} match={total} mismatch=0 hypothesis-not-met=0"
        )
    return rule


def _thm1prop_json(out: str, seed: int) -> bool:
    rep = json.loads(out)["report"]
    return rep["verdict"] == "match" and rep["all_matched"] and rep["seed"] == seed


def _thm1prop_text(out: str, seed: int) -> bool:
    return out.splitlines()[0].endswith(": match")


def check(job: Job, code: int | None, out: str | None, seed: int, expected=EXPECTED) -> bool:
    """True when the job exited as documented and its output is right."""
    if code != job.exit_code or out is None:
        return False
    if job.rule is not None:
        try:
            return bool(job.rule(out, seed))
        except (ValueError, KeyError, IndexError, TypeError):
            return False
    return expected.get(job.name) == digest(out)


# ----------------------------------------------------------------------
# workloads


def _cli_job(name, argv, exit_code=0, rule=None):
    return Job(name, _cli(argv, seeded=rule is not None), exit_code, rule)


CATALOGUE = Workload(
    name="catalogue",
    jobs=(
        _cli_job("cor3-p2", "scan --claim cor3 --p 2 --m 4..8", rule=_scan_json_all_match(500)),
        _cli_job("cor3-p3", "scan --claim cor3 --p 3 --m 3,4 --format text",
                 rule=_scan_text_all_match(200)),
        _cli_job("cor2-json", "scan --claim cor2 --p 7 --m 2,3"),
        _cli_job("cor2-csv", "scan --claim cor2 --p 7 --m 2,3 --format csv"),
        _cli_job("cor2-text", "scan --claim cor2 --p 7 --m 2,3 --format text"),
        _cli_job("cor4odd", "scan --claim cor4odd --p 3 --m 3..5"),
        _cli_job("cor4even-p5", "scan --claim cor4even --p 5 --m 2,3", exit_code=1),
        _cli_job("cor4even-standing", "scan --claim cor4even --p 3 --m 2,4 --format text",
                 exit_code=2),
        _cli_job("thm4", "scan --claim thm4 --m 5..11 --format csv"),
        _cli_job("cor5", "scan --claim cor5 --m 4..10", exit_code=1),
        _cli_job("thm1prop-p3", "verify --claim thm1prop --m 2", rule=_thm1prop_json),
        _cli_job("thm1prop-p5", "verify --claim thm1prop --p 5 --m 2 --format text",
                 rule=_thm1prop_text),
    ),
    cold=False,
    fields=tuple([(2, m) for m in range(4, 12)] + [(3, m) for m in range(2, 6)]
                 + [(5, 2), (5, 3)] + [(7, 2), (7, 3)]),
    policy="warm: every field is built once in setup, as in a long catalogue session; "
           "passes then measure per-instance work in theorems, sets and rendering",
    min_passes=5,
)

BIG_CODE = Workload(
    name="big_code",
    jobs=(
        _cli_job("trcubic-2-14", "code --p 2 --m 14 --set trcubic"),
        _cli_job("hkm-complement-3-9", "code --p 3 --m 9 --set complement:hkm:3"),
        _cli_job("simplex-7-5", "code --p 7 --m 5 --set simplex"),
        _cli_job("field-2-17", "field --p 2 --m 17"),
        Job("verify_paper", _verify_paper, exit_code=2),
    ),
    cold=True,
    policy="cold: each job runs in a fresh process forked after `import dscodes`, "
           "so it pays its own field-table build inside run_s as every CLI user does",
)

ANALYSIS = Workload(
    name="analysis",
    jobs=(
        Job("dual-trcubic-2-12", _analyse(2, 12, _trcubic)),
        Job("dual-simplex-3-7", _analyse(3, 7, _simplex)),
        _cli_job("ssreport-trcubic-2-11", "ssreport --p 2 --m 11 --set trcubic"),
        _cli_job("ssreport-simplex-3-8", "ssreport --p 3 --m 8 --set simplex"),
    ),
    cold=False,
    fields=((2, 12), (3, 7), (2, 11), (3, 8)),
    policy="warm: fields are built once in setup, as in a library session; "
           "passes measure the dual transform and the minimal-codeword scan",
)

WORKLOADS = {w.name: w for w in (CATALOGUE, BIG_CODE, ANALYSIS)}
