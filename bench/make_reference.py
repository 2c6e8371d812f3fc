"""Write ``reference.json``: the compact reference the table checks compare with.

    python3 bench/make_reference.py

Runs ``spectral-jsweep``, ``evolve-long`` and ``events-wide`` once at every
grid offset and on the smoke grid.  For a table it stores the header, row
count, the digest of the closed-form columns and the kept Wootters and
numeric values; for the events, their count and the confirmed snapped
(m, J) transfers.  Regenerate only in a change that means to alter those
outputs.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    cli_io = run.import_program()
    out_dir = run.OUT / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name in (*checks.TABLES, "events-wide"):
        variants = [workloads.build(name, k) for k in range(workloads.OFFSETS)]
        variants.append(workloads.build(name, smoke=True))
        for work in variants:
            out_path = out_dir / f"out.{work.out_ext}"
            code, console = run.run_command(cli_io, work.command(out_path))
            if code != 0:
                raise SystemExit(f"{work.ref_key}: exit {code}: {console}")
            if name == "events-wide":
                fp = checks.events_fingerprint(out_path)
            else:
                fp = checks.table_fingerprint(work, out_path)
                if fp.pop("bad_rows"):
                    raise SystemExit(f"{work.ref_key}: rows break an invariant")
            reference[work.ref_key] = fp
            print(work.ref_key, {k: v for k, v in fp.items() if isinstance(v, int)},
                  file=sys.stderr)
    # one entry a line: the kept values make entries long
    checks.REFERENCE_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
