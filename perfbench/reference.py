"""Fixed work that the benchmark times between the pbisim jobs.

It starts Python, imports numpy and does a fixed mix of small matrix
products and dictionary updates, like a pbisim job but without pbisim, so
its wall time follows the shared host's speed and nothing the program
under test can change.
"""

import numpy as np

a = np.random.default_rng(0).random((150, 150))
for _ in range(40):
    a = a @ a
    a /= a.sum(axis=1, keepdims=True)
counts: dict[int, int] = {}
for i in range(150_000):
    counts[i % 997] = counts.get(i % 997, 0) + i
