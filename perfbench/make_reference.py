"""Store per-suite verify summaries that the benchmark checks its jobs against.

Run from the repository root on a commit whose verify output is trusted:

    python3 perfbench/make_reference.py --workload verify-all --seeds 0-24 42 1234

Entries for other workloads and seeds already in reference.json are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from workloads import REFERENCE_FILE, SOURCE, VERIFY_JOBS, summarize_verify, verify_argv


def _seeds(tokens) -> list:
    out = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(VERIFY_JOBS))
    parser.add_argument("--seeds", nargs="+", required=True, metavar="N or N-M")
    args = parser.parse_args()
    sys.path.insert(0, str(SOURCE))
    from bohrlab import cli

    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for seed in _seeds(args.seeds):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(verify_argv(args.workload, seed))
        if code != 0:
            print(f"seed {seed}: exit code {code}; not stored", file=sys.stderr)
            return 1
        stored.setdefault(args.workload, {})[str(seed)] = summarize_verify(out.getvalue())
        print(f"{args.workload} seed {seed}: stored", file=sys.stderr)
        # Rewritten after every seed so an interrupted run keeps its progress.
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
