"""Fairness violation scores on a toy prediction table.

Demographic parity compares each group's positive-prediction rate to the
population rate; equalized odds conditions that comparison on the true
label; accuracy parity compares per-group mean losses; client fairness is
the worst deviation of any client's accuracy from the mean.
"""

import numpy as np

from fairfedsim.fairness import ap_violation, client_fairness_violation, dp_violation, eo_violation, evaluate_predictions

preds = np.array([1, 1, 0, 0, 1, 1, 1, 0])
labels = np.array([1, 0, 1, 0, 1, 1, 0, 0])
groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])

print("group A predicts 1 at rate", preds[groups == 0].mean())
print("group B predicts 1 at rate", preds[groups == 1].mean())
print("DP violation:", dp_violation(preds, groups))
print("EO violation:", eo_violation(preds, labels, groups))

losses = np.array([0.2, 0.4, 0.9, 0.1, 0.3, 0.2, 0.8, 0.1])
print("AP violation:", ap_violation(losses, groups))

print("CF violation for client accuracies (0.8, 0.6):",
      client_fairness_violation([0.8, 0.6]))

# the full report bundles everything, per sensitive attribute
probs = np.array([0.9, 0.7, 0.3, 0.2, 0.8, 0.9, 0.6, 0.1])
report = evaluate_predictions(
    probs, labels, groups[:, None], ("gender",), (("A", "B"),),
    per_client_accuracy=[0.75, 0.7, 0.8],
)
print("\nreport:", report.scores())
for row in report.per_group:
    print("  ", row)
