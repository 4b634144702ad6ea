"""Set-up as a prune-job process pays it: import the program and its numeric
stack, then create the job workspace.

Imported by run.py, which times its own set-up this way, and run as a script
in fresh interpreters for further samples: ``python3 perfbench/setup_probe.py
SRC PARENT`` prints the set-up seconds and removes the workspace it made.
"""

import shutil
import sys
import tempfile
import time


def setup(src: str, parent: str):
    """Return (seconds, workspace path)."""
    start = time.perf_counter()
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import socprune.cli  # noqa: F401
    workspace = tempfile.mkdtemp(prefix="work-", dir=parent)
    return time.perf_counter() - start, workspace


if __name__ == "__main__":
    seconds, workspace = setup(sys.argv[1], sys.argv[2])
    shutil.rmtree(workspace)
    print(repr(seconds))
