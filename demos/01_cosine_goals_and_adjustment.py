"""Gradient adjustment geometry.

Two gradients conflict when their cosine falls below the pairwise
similarity goal. The law-of-sines correction removes exactly the right
multiple of the target from the working gradient so the adjusted cosine
equals the goal. This script shows the closed form, verifies it against
an independent bisection solve, and sweeps a range of goals.
"""

import numpy as np

from fairfedsim.aggregation import adjust_gradient
from fairfedsim.numeric import cosine
from fairfedsim.oracles import c2_bisection

g_k = np.array([1.0, 0.0])
g_j = np.array([0.0, 1.0])
phi = cosine(g_k, g_j)
print(f"g_k = {g_k}, g_j = {g_j}, cosine = {phi:.3f}")

goal = 0.5
adjusted = adjust_gradient(g_k, g_j, phi, goal)
print(f"goal {goal}: adjusted g_k = {adjusted}, new cosine = {cosine(adjusted, g_j):.10f}")

# the coefficient solved independently by bisection matches the closed form
c_closed = (adjusted - g_k)[1] / g_j[1]
c_bisect = c2_bisection(g_k, g_j, goal)
print(f"closed-form coefficient {c_closed:.12f} vs bisection {c_bisect:.12f}")

print("\ngoal sweep (random 10-d pair):")
rng = np.random.default_rng(0)
a = rng.normal(size=10)
b = rng.normal(size=10)
phi = cosine(a, b)
print(f"starting cosine {phi:.3f}")
for goal in (phi + 0.1, 0.0, 0.3, 0.6, 0.9):
    if goal <= phi:
        continue
    out = adjust_gradient(a, b, phi, goal)
    print(f"  goal {goal:+.2f} -> cosine {cosine(out, b):+.12f}, "
          f"norm {np.linalg.norm(a):.3f} -> {np.linalg.norm(out):.3f}")
