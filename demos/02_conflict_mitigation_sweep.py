"""The server-side conflict mitigation sweep.

Three synthetic client gradients with a built-in conflict run through the
curation pass: clients are visited in projection order, each selected
working gradient is tested against every raw gradient, adjusted when its
cosine falls below the pairwise EMA goal, and the goals themselves are
EMA-updated from the observed cosines. With beta = 0 the sweep degenerates
to plain averaging.
"""

import numpy as np

from fairfedsim.aggregation import diminish_conflicts
from fairfedsim.numeric import cosine

grads = {
    0: np.array([1.0, 0.1, 0.0]),
    1: np.array([-0.8, 1.0, 0.2]),
    2: np.array([0.3, -0.9, 0.6]),
}
order = [0, 1, 2]

print("pairwise cosines before:")
for i in range(3):
    for j in range(i + 1, 3):
        print(f"  cos(g{i}, g{j}) = {cosine(grads[i], grads[j]):+.3f}")

goals = np.zeros((3, 3))  # pairwise similarity goals, EMA decay 0.25
result = diminish_conflicts(grads, order, beta=1.0, goals=goals, delta=0.25)

print(f"\nadjustments performed: {result.n_adjustments}")
tests = result.tests  # one array entry per pair test, in sweep order
for k, i, phi, goal, adjusted in zip(tests.client, tests.target, tests.phi, tests.goal, tests.adjusted):
    mark = "adjusted" if adjusted else "kept"
    print(f"  client {k} vs target {i}: cos {phi:+.3f} goal {goal:+.3f} -> {mark}")

print("\ncurated mean:", np.round(result.gradient, 4))
print("plain mean:  ", np.round(np.mean(np.stack(list(grads.values())), axis=0), 4))
print("updated goals:\n", np.round(result.goals, 3))

flat = diminish_conflicts(grads, order, beta=0.0, goals=goals, delta=0.25)
print("\nbeta = 0 output equals the plain mean:",
      np.array_equal(flat.gradient, np.mean(np.stack(list(grads.values())), axis=0)))
