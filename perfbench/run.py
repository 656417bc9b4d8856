"""storerank's benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload sid_public --seed 5 --seconds 20 --trace 0

Run it from anywhere inside a storerank checkout; it imports the
package from the checkout's ``src/``.  This launcher starts
``worker.py`` (which takes the same arguments) in a child process whose
environment pins BLAS to one thread before numpy is imported, waits for
it, and passes its standard output through.  The last line is the
result, ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer ones with ``--trace 1``.  A
failed worker prints no result and the launcher exits non-zero.  See
README.md in this directory.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
BLAS_THREADS = "1"


def main(argv):
    src = ROOT / "src"
    if not (src / "storerank" / "__init__.py").is_file():
        print(f"error: no storerank package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker ran longer than {TIMEOUT_S}s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
