"""Run a command and fail when its peak resident set size reaches a limit.

    python tests/peak_rss.py LIMIT_MIB CMD...

The peak is ``ru_maxrss`` of this process's children, so it is the
command's own peak.  The exit code is the command's when it fails, 1 when
the peak reaches LIMIT_MIB, and 0 otherwise; each failure prints one line.
"""

import resource
import shlex
import subprocess
import sys


def main(argv: "list[str]") -> int:
    limit, command = int(argv[0]), argv[1:]
    code = subprocess.run(command).returncode
    if code:
        print(f"{shlex.join(command)} exited {code}", file=sys.stderr)
        return code
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    if peak >= limit:
        print(f"{shlex.join(command)} peaked at {peak} MiB, limit {limit} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
