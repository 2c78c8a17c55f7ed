"""End-to-end experiment on the synthetic benchmark (reduced size).

Trains plain averaging, locally-fair averaging, and the conflict-mitigating
constrained federation on a high-heterogeneity split, then compares
accuracy, demographic parity, and client fairness. The full protocol (five
seeds, significance tests, CSV outputs) runs through the harness; this is
the single-seed narrative version.
"""

from dataclasses import replace

from fairfedsim.baselines import train
from fairfedsim.harness import ExperimentConfig, build_data, evaluate_run

config = replace(ExperimentConfig(), rounds=10, local_epochs=20)
config.dataset["synthetic"]["n"] = 1500
seed = 1

prepared = build_data(config, seed)
print("shard sizes:", [len(s) for s in prepared.shards])
print("shard positive rates:", [round(float(s.y.mean()), 2) for s in prepared.shards])

print(f"\n{'regime':>12} {'acc':>7} {'DP':>7} {'EO':>7} {'AP':>7} {'CF':>7}")
results = {}
for regime in ("fedavg", "fedavg_f", "mfairfl"):
    result = results[regime] = train(regime, prepared.shards, config.train_config(seed))
    report = evaluate_run(result, regime, prepared)
    cf = "-" if report.cf is None else f"{report.cf:7.3f}"
    print(f"{regime:>12} {report.accuracy:7.3f} {report.dp['group']:7.3f} "
          f"{report.eo['group']:7.3f} {report.ap['group']:7.3f} {cf}")

print("\nper-round trace of the constrained run (round, adjustments, lambda):")
for rec in results["mfairfl"].rounds:
    lam = max(rec.to_json()["lambda"].values())
    print(f"  round {rec.round_index:2d}: adjustments {rec.n_adjustments}, "
          f"max lambda {lam:.3f}, |g| {rec.g_global_norm:.4f}")
