"""The CLI parity matrix: one row per invocation in `cli_parity.json`, with
its argv, exit code and the sha256 of its stdout.

`test_cli.test_cli_parity` runs every row in process through `cli.main`.
To record the digests, run this file from the repository root at a commit
whose outputs are known to be right:

    PYTHONPATH=src python3 tests/parity.py

It re-runs the argv of every row already in the file and rewrites the exit
codes and digests, so `git diff tests/cli_parity.json` shows which rows
changed.  The argv token `{table}` stands for a file holding TABLE.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

PARITY_FILE = Path(__file__).with_name("cli_parity.json")
TABLE = "1111011110111100\n"  # a Boolean function on GF(16), 12 ones


def run_row(argv, tmp: Path) -> tuple[int, str]:
    """Exit code and stdout of one row, with {table} written under tmp; the
    path is put back to {table} in stdout, which echoes some selectors."""
    from dscodes import cli

    table = tmp / "table.txt"
    table.write_text(TABLE)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.format(table=table) for a in argv])
    return code, out.getvalue().replace(str(table), "{table}")


def row_id(row) -> str:
    return " ".join(row["argv"])


def main() -> int:
    rows = json.loads(PARITY_FILE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            row["exit"], out = run_row(row["argv"], Path(tmp))
            row["sha256"] = hashlib.sha256(out.encode()).hexdigest()
    PARITY_FILE.write_text(
        "[\n" + ",\n".join("  " + json.dumps(row) for row in rows) + "\n]\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
