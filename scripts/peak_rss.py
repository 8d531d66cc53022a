#!/usr/bin/env python3
"""Run a command with its stdout discarded and bound its peak RSS.

    python3 scripts/peak_rss.py LIMIT_MB CMD [ARG...]

Prints the peak resident set size of the command's process tree
(ru_maxrss of the waited-for children, in MB) and exits with the
command's status, or 1 when the command succeeds but peaks above
LIMIT_MB.
"""

import resource
import subprocess
import sys


def main(argv) -> int:
    limit, cmd = int(argv[0]), argv[1:]
    status = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB, limit {limit} MB")
    return status or int(peak > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
