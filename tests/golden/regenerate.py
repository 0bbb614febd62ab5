"""Regenerate suite_s5.json, the golden margins of the default suite at 5 samples.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves a margin by more than 1e-12 on purpose regenerates the
file and records the largest shift in CHANGES.md; the script prints that
shift against the committed file before it rewrites it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from amm import verify

SAMPLES = 5
GOLDEN = Path(__file__).with_name("suite_s5.json")


def params_digest(report: verify.CheckReport) -> str:
    """Short digest of what a configuration runs: its params and ensemble."""
    text = json.dumps({"params": report.params, "ensemble": report.ensemble}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def suite_entries(samples: int = SAMPLES) -> list[dict]:
    """One entry per default configuration: id, params digest, min_margin, pass."""
    reports = verify.run_suite(verify.default_suite(samples=samples))
    return [
        {"id": r.check, "params": params_digest(r), "min_margin": r.min_margin, "pass": r.passed}
        for r in reports
    ]


def largest_shift(old: list[dict], new: list[dict]) -> tuple[float, str]:
    """Largest |min_margin change| between entries at the same position, and its check id."""
    return max(((abs(n["min_margin"] - o["min_margin"]), n["id"]) for o, n in zip(old, new)),
               key=lambda shift: shift[0], default=(0.0, "-"))


def main() -> None:
    entries = suite_entries()
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text(encoding="utf-8"))["checks"]
        shift, check = largest_shift(old, entries)
        verdicts = sum(o["pass"] != n["pass"] for o, n in zip(old, entries))
        print(f"largest |delta min_margin| against {GOLDEN.name}: {shift:.3e} ({check}); "
              f"{verdicts} verdicts changed, {len(old)} -> {len(entries)} entries")
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN.write_text(f'{{"samples": {SAMPLES}, "checks": [\n{lines}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
