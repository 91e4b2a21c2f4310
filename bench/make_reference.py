"""Regenerate reference.json, the criterion lines of every criteria-tower case.

    python3 bench/make_reference.py

Run it only when a change to the package is meant to change verdicts or
witnesses, and say so where the change is described.
"""

import json
import sys

from run import ROOT, SRC
from workloads import REFERENCE_FILE, load_reference, result_lines, tower_specs


def main() -> int:
    sys.path.insert(0, str(SRC))
    from tcbundles import cli

    cases = {case: result_lines(cli.run_criteria(spec)).split("\n")
             for case, spec in tower_specs(ROOT).items()}
    REFERENCE_FILE.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    load_reference()  # validates the closed forms of the trivial ladder
    return 0


if __name__ == "__main__":
    sys.exit(main())
