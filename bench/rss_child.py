"""Run the pipeline once over a list of scenarios in a fresh process.

Usage: python3 bench/rss_child.py <src dir> <out dir> <scenario.json>...

Prints one JSON line: {"baseline_kb": ..., "maxrss_kb": ..., "files":
{file name: {"maxrss_kb": ..., "digests": {artifact: sha256}}}}. The
baseline is the peak RSS once the simulator is imported; each file's
maxrss_kb is the process's peak after that file, so the first file whose
figure reaches the final peak is the one that set it. Each scenario's
artifacts go to <out dir>/<file stem>/.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path


def maxrss_kb() -> int:
    """Peak resident set size of this process, in kB.

    Linux carries ru_maxrss over execve, so for a spawned child it is at
    least the parent's peak at spawn time. VmHWM belongs to this program's
    own address space; ru_maxrss is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    src, out_dir, *scenario_paths = sys.argv[1:]
    sys.path.insert(0, src)
    from qoechain import kernel, report, scenario

    baseline_kb = maxrss_kb()
    files = {}
    for scenario_path in map(Path, scenario_paths):
        doc, diagnostics = scenario.load_scenario(scenario_path)
        if doc is None:
            raise SystemExit(f"{scenario_path.name} rejected: {diagnostics[:3]}")
        paths = report.write_report(kernel.run(doc), Path(out_dir) / scenario_path.stem)
        files[scenario_path.name] = {
            "maxrss_kb": maxrss_kb(),
            "digests": {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths
            },
        }
    print(json.dumps({"baseline_kb": baseline_kb, "maxrss_kb": maxrss_kb(), "files": files}))


if __name__ == "__main__":
    main()
