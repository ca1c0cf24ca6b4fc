"""Times the two statistical acceptance gates; informational, never gating.

    python3 perfbench/gate_baseline.py

Runs pytest on the null-calibration and the injected-effect power tests
alone, from the root of a git checkout, and writes their durations with the
run's metadata to ``perfbench/gate_baseline.json``. The tests are run as
they are; nothing is re-seeded or resized.
"""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import run

GATES = (
    "tests/test_acceptance.py::test_null_calibration_within_binomial_window",
    "tests/test_acceptance.py::test_power_and_specificity_of_injected_s4_effect",
)


def main() -> int:
    meta = run.run_meta(seed=None)
    run.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    xml = run.RESULTS_DIR / "gate_baseline.xml"
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={xml}", *GATES],
        cwd=run.ROOT,
        env=env,
        timeout=1800,
    )
    cases = {
        f"{case.get('classname')}::{case.get('name')}": {
            "seconds": float(case.get("time")),
            "passed": not any(child.tag in ("failure", "error", "skipped") for child in case),
        }
        for case in ET.parse(xml).getroot().iter("testcase")
    }
    out = {"meta": meta, "pytest_exit_code": done.returncode, "gates": cases}
    (run.BENCH_DIR / "gate_baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out["gates"], indent=1))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
