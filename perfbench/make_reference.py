"""Write the reference outputs the benchmark checks every pass against.

Run from the repository root, only when the expected mathematics changes:

    python3 perfbench/make_reference.py [workload ...]

Each workload's pass runs once with seed 0 in this interpreter; every call must
exit 0.  Only the mathematical columns that workloads.py extracts are kept.
"""

import json
import sys

from run import SRC, run_pass
from workloads import REFERENCE_DIR, WORKLOADS, reference_path


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    import orbitatlas.cli as cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        _, results, error = run_pass(cli, WORKLOADS[name], seed=0)
        bad = [i for i, (rc, _) in enumerate(results) if rc != 0]
        if error or bad:
            print(f"{name}: {error or f'nonzero exit on calls {bad}'}", file=sys.stderr)
            return 1
        with reference_path(name).open("w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(results)} calls -> {reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
