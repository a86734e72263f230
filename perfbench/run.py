"""Pipeline benchmark for corpusstats; see pipeline.py and README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts launcher.py before anything else is imported, so the children it
starts report their own peak RSS (see launcher.py), then runs the
benchmark in pipeline.py.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        import pipeline

        return pipeline.main(launcher)
    finally:
        launcher.stdin.close()
        launcher.wait()


if __name__ == "__main__":
    raise SystemExit(main())
