"""One fresh-interpreter set-up, timed from inside the interpreter:
``import evoscm``, then ``bench datagen`` and a load of the dataset.

    python3 perfbench/setup_child.py '<workload fields as JSON>' <dataset.csv>

Prints ``{"setup_s": <seconds>}``. Interpreter start-up is not counted.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import evoscm  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    wl = workloads.Workload(**json.loads(sys.argv[1]))
    dataset = sys.argv[2]
    code = workloads.cli_main(workloads.datagen_argv(wl, dataset))
    if code != 0:
        return code
    workloads.load_dataset(wl, dataset)
    print(f'{{"setup_s": {time.perf_counter() - T0!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
