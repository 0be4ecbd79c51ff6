"""Record the quick-start values the design-fit checker compares against.

Run once from the repository root, at the commit whose values are to be kept:

    PYTHONPATH=src:bench python3 bench/record_expected.py > bench/expected.json

The cases are fixed (their own seed), so the file only changes when the
program's crossover values change.
"""

import json
import random

import quickstart
from workloads import FIT_THETA_MIN, random_target

CASES = 12

rng = random.Random("quickstart-cases")
cases = []
for _ in range(CASES):
    theta, alpha = random_target(rng, FIT_THETA_MIN)
    got = quickstart.run(theta, alpha)
    cases.append({"theta": theta, "alpha": alpha, "crossover_bb1": got["crossover_bb1"],
                  "crossover_w121": got["crossover_w121"]})
print(json.dumps({"quickstart": cases}, indent=1))
