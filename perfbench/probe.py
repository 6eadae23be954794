"""Set-up probe: import the simulator and build one workload's stack.

``run.py`` starts this in a fresh interpreter and times it from process
start until the ``built`` line arrives.  Usage::

    python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    from workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].build(seed)
    sys.stdout.write("built\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
