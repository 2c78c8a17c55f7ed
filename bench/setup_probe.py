"""One set-up measurement in a fresh process: import fairfedsim, then build
every cell's data, with the host's speed probed throughout (numpy is
loaded first, because the probe needs it). Prints {"import_s": ...,
"build_s": ..., "probe_s": ...} as JSON; the two times exclude the probes.

Usage: python3 bench/setup_probe.py <src dir> <workload> <seed>
"""

import json
import sys
import time

from reference import HostSpeed, work


def main(argv: list[str]) -> None:
    src, workload, seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    work()  # first numpy calls pay one-time costs; keep them out of the probes
    with HostSpeed() as speed:
        start = time.perf_counter()
        from fairfedsim import harness
        imported = time.perf_counter()
        import_probes = speed.spent()[0]

        from workloads import WORKLOADS

        config = WORKLOADS[workload](seed)
        cells = [(regime, s) for regime in config.regimes for s in config.seeds]
        build_start = time.perf_counter()
        build_start_probes = speed.spent()[0]
        for _, s in cells:
            harness.build_data(config, s)
        built = time.perf_counter()
        build_probes = speed.spent()[0] - build_start_probes
    print(json.dumps({
        "import_s": imported - start - import_probes,
        "build_s": built - build_start - build_probes,
        "probe_s": speed.probe_s(),
    }))


if __name__ == "__main__":
    main(sys.argv)
