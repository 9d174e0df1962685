"""Record the reference tidy tables that the simulate workload checks against.

Run from the repository root; it rewrites perfbench/simulate_reference.json:

    python3 perfbench/record_reference.py

Recording freezes the simulation outputs of the current commit.  Re-record
only when a change is meant to alter simulation values, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC
from workloads import SIM_ARGS, SIM_CASES, SIM_REFERENCE, read_csv, sim_argv


def main() -> int:
    sys.path.insert(0, str(SRC))
    from kendalltrans import cli

    reference: dict[str, dict[str, list[list[str]]]] = {kind: {} for kind in SIM_ARGS}
    workdir = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for kind in SIM_ARGS:
            for case in range(SIM_CASES):
                out = workdir / f"{kind}.csv"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(sim_argv(kind, case, out))
                if code != 0:
                    raise SystemExit(f"{kind} case {case} exited with {code}")
                reference[kind][str(case)] = read_csv(out.read_bytes())
    finally:
        shutil.rmtree(workdir)
    SIM_REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
