#!/usr/bin/env python3
"""Runs one command and fails when its peak resident memory exceeds a budget.

Usage:
  rss_budget.py MB COMMAND [ARGS...]

The command is this process's only child, so RUSAGE_CHILDREN's ru_maxrss is
the command's own peak RSS. The figure goes to stderr. Exits with the
command's exit code when it stayed within MB megabytes (MiB), otherwise 1
with a message. CI uses it to keep per-client memory from creeping back.

Stdlib only.
"""
import resource
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    budget_mb = float(sys.argv[1])
    rc = subprocess.run(sys.argv[2:]).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"rss_budget: peak {peak_mb:.1f} MB (budget {budget_mb:g} MB): "
          f"{' '.join(sys.argv[2:])}", file=sys.stderr)
    if peak_mb > budget_mb:
        print(f"rss_budget: over budget by {peak_mb - budget_mb:.1f} MB",
              file=sys.stderr)
        sys.exit(1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
