"""A traced smoke pass of the benchmark: the traced hedge entry point must
still be found, called and counted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_final_block_smoke_run_counts_rebalances():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "final_block", "--seed", "5",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["hedging.rebalances"]["value"] > 0
