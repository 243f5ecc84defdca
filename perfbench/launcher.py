"""Fresh-process launcher for traced CLI ops.

    python -X importtime perfbench/launcher.py OUT_JSON OP_ID [eabsorb CLI args...]

Imports eabsorb.cli, installs the span-recording wrappers, runs
`eabsorb.cli.main(args)` inside one op span, writes the spans, the import
time and the module count to OUT_JSON, and exits with main's return code.
With no CLI args it only imports and reports.  The caller puts the
package's `src` directory on PYTHONPATH.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import eabsorb.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
MODULES = len(sys.modules)

from spans import Tracer  # noqa: E402


def main() -> int:
    out_json, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    code = 0
    try:
        if argv:
            tracer.install()
            with tracer.span("op", op=op_id):
                code = eabsorb.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_json, "w") as fh:
            json.dump({"import_s": IMPORT_S, "modules": MODULES, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
