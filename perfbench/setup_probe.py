"""One cold start: time ``import swl``, then the generation of a workload's inputs.

run.py starts this in fresh interpreters (with ``src`` and this directory
on PYTHONPATH) and takes the median over several starts:

    python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object: {"import_s": ..., "inputs_s": ...}.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import swl  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
