"""Set-up probe: import mlenn and parse the workload's input files.

Usage: python3 perfbench/probe.py DATASET [SCORES]

The benchmark times this whole process from the outside, so the figure
includes interpreter start, ``import mlenn`` and the parse. It prints the
path mlenn was imported from, which the benchmark checks against the
checkout it is measuring.
"""

import sys

import mlenn

ds = mlenn.load_dataset(sys.argv[1])
if len(sys.argv) > 2:
    mlenn.load_external_scores(sys.argv[2], ds.n_samples, ds.n_labels)
print(mlenn.__file__)
