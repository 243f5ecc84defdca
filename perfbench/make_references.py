"""Record the stored reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

Run from the root of a source checkout.  Writes perfbench/references.json
with the measured impedance of every closed-loop op and the outputs of the
`simulate` verb on each fixture (impedance, row count, steady-state RMS per
column).  Rerun it only when a change is meant to alter these outputs
beyond the checks' tolerance, and say so in the change.
"""

import contextlib
import io
import json
import shutil
import sys

import run
from checks import read_csv, timeseries_summary


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    pk = run.load_packages()
    closed_loop, simulate = {}, {}
    for name, call in run.closed_loop_calls(pk):
        z = pk["dsp"].measure_impedance(*call)
        closed_loop[name] = [z.real, z.imag]

    for design in run.load_designs(pk["model"]):
        out = run.WORK / f"reference-simulate-{design.name}"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = pk["cli"].main(["simulate", "--config",
                                   str(run.FIXTURES / f"table1_{design.name}.json"),
                                   "--out", str(out)])
        if code != 0:
            raise SystemExit(f"simulate failed on {design.name} with exit code {code}")
        _, z = read_csv(out / "measured_impedance.csv")
        simulate[design.name] = {
            "z": [z[0, 1], z[0, 2]],
            "timeseries": timeseries_summary(out / "timeseries_205.5hz.csv"),
        }
        shutil.rmtree(out)

    env = run.environment(pk)
    record = {
        "command": "python3 perfbench/make_references.py",
        "git_commit": env["git_commit"],
        "environment": {k: env[k] for k in ("python", "numpy", "scipy", "cpu_model")},
        "closed_loop": closed_loop,
        "simulate": simulate,
    }
    run.REFERENCES.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {run.REFERENCES.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
