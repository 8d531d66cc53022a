"""Write bench/expected.json: the stdout digest of every digest-checked job.

Run it only at a commit whose outputs are known to be right, from the
repository root:

    python3 bench/record_expected.py
"""

import json
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))


def main() -> int:
    digests = {}
    for wl in workloads.WORKLOADS.values():
        for job in wl.jobs:
            if job.rule is not None:
                continue
            code, out = job.run(0)
            if code != job.exit_code:
                print(f"{job.name}: exit {code}, documented {job.exit_code}", file=sys.stderr)
                return 1
            digests[job.name] = workloads.digest(out)
    workloads.EXPECTED_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
