"""Start the CLI the way `python -m wrapsurg.cli ARGS...` does, and record its peak RSS.

    python3 bench/launch.py ARGS...            run the CLI
    python3 bench/launch.py --import-only      print the seconds `import wrapsurg.cli` takes

The peak RSS that wait4 reports for a child is no good here: the kernel keeps
the peak of the address space a process had before exec, and a child spawned
by a large parent starts in the parent's.  So when BENCH_PEAK_RSS_FILE is set,
the child writes its own post-exec peak (VmHWM of /proc/self/status, in KB)
to that file as the interpreter exits.
"""
from __future__ import annotations

import atexit
import os
import sys
import time


def _write_peak_rss(path: str) -> None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    with open(path, "w", encoding="ascii") as out:
                        out.write(line.split()[1])
                    return
    except OSError:
        pass        # no file: the caller falls back to wait4's figure


def watch_peak_rss() -> None:
    path = os.environ.get("BENCH_PEAK_RSS_FILE")
    if path:
        atexit.register(_write_peak_rss, path)


if __name__ == "__main__":
    watch_peak_rss()
    if sys.argv[1:] == ["--import-only"]:
        start = time.perf_counter()
        import wrapsurg.cli  # noqa: F401
        print(repr(time.perf_counter() - start))
    else:
        import runpy
        runpy.run_module("wrapsurg.cli", run_name="__main__", alter_sys=True)
