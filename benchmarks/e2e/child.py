"""Fresh-interpreter entry point for one measured run or one set-up probe.

``run.py`` starts ``python benchmarks/e2e/child.py setup|run JOB.json RESULT.json``.
Set-up time is counted from the clock reading below, so it includes imports.
"""

import time

START = time.perf_counter()

if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(1, str(Path(__file__).resolve().parents[2] / "src"))
    import workloads

    sys.exit(workloads.child_main(sys.argv[1:], START))
