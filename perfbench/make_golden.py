"""Write golden.json: the sha256 of the stdout of every invocation the CLI
workloads can run, produced by the code in the checkout.

Run it from the root of a checkout of the commit whose output is the
reference:  python3 perfbench/make_golden.py
It also checks that the order-200 battery prints the same bytes with
--jobs 1 and --jobs 2, and refuses to write the file otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import harness
import workloads

ROOT = harness.HERE.parent


def golden_invocations() -> list[workloads.Invocation]:
    invs = workloads.battery_plan() + [
        workloads.Invocation(workloads.SERIAL_200_ARGV, None, workloads.BATTERY_REPORTS)
    ]
    invs += workloads.tables_pool()
    return invs


def main() -> int:
    workdir = ROOT / ".bench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    invs = golden_invocations()

    def digest(item):
        i, inv = item
        out = workdir / f"{i}.out"
        run = harness.run_child(
            harness.cli_command(inv), harness.child_env(ROOT, inv.oracle_bound), workdir, out, 600
        )
        if run.returncode != 0:
            raise SystemExit(f"{inv.key}: exit status {run.returncode}")
        if inv.argv[0] == "verify":
            reason = harness.check_reports(out.read_text(encoding="utf-8"), inv.ops)
            if reason:
                raise SystemExit(f"{inv.key}: {reason}")
        return inv.key, harness.sha256_file(out)

    try:
        with ThreadPoolExecutor(2) as pool:
            digests = dict(pool.map(digest, enumerate(invs)))
        jobs2 = workloads.Invocation(workloads.JOBS2_ARGV, None, workloads.BATTERY_REPORTS)
        _, jobs2_digest = digest((len(invs), jobs2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    serial = workloads.Invocation(workloads.SERIAL_200_ARGV).key
    if jobs2_digest != digests[serial]:
        print("order-200 battery output differs between --jobs 1 and --jobs 2", file=sys.stderr)
        return 1
    digests[jobs2.key] = jobs2_digest
    payload = {
        "about": "sha256 of the stdout of each qpl invocation, made by make_golden.py",
        "digests": dict(sorted(digests.items())),
    }
    with open(harness.HERE / "golden.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
