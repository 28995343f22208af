"""Regenerate the sha256 of each workload's CLI outputs from scratch.

    python3 perfbench/identity.py [--seed N] [--workload NAME ...]

For each workload this runs one round in a fresh directory: ``simulate``,
then ``analyze``, ``capacity`` and ``recover --scrub`` on the trace pair
it made, with the same flags and output checks as a benchmark run.  It
prints one line per output file: the sha256, the workload and
``command/file``.  Run it at two commits with the same seed and compare
the lines; a change meant to keep outputs byte-identical leaves every line
the same.  No digest is stored.  Exits 1 when a command fails or an output
fails its checks.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="+", choices=sorted(run.WORKLOADS),
                        default=list(run.WORKLOADS))
    args = parser.parse_args()
    if not (run.ROOT / "src" / "hybridchan" / "cli.py").is_file():
        print(f"no hybridchan source under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for name in args.workload:
        work = run.OUT_DIR / "identity" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = run.Runner(work, traced=False, deadline=time.monotonic() + 600.0)
        try:
            rnd = run.run_round(run.WORKLOADS[name], args.seed, runner, work)
        finally:
            runner.close()
            shutil.rmtree(work, ignore_errors=True)
        if rnd.failed or rnd.errors:
            status = 1
        for key, digest in sorted(rnd.digests.items()):
            print(f"{digest}  {name}  {key}")
    return status


if __name__ == "__main__":
    sys.exit(main())
