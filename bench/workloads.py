"""The benchmark's workloads: each builds one ExperimentConfig from a seed.

The seed picks the experiment seed (data, split, initialisation) and, where
a workload draws its client split, the Dirichlet client fractions. The
program only ever sees the generated config.
"""

from __future__ import annotations

import numpy as np

from fairfedsim.harness import ExperimentConfig

# Share of every group spread evenly over all clients on top of the
# Dirichlet draw, so that every client holds training data (an empty shard
# fails the whole cell today; that case belongs to the program's own tests).
UNIFORM_SHARE = 0.1


def dirichlet_fractions(seed: int, groups: tuple[str, ...], n_clients: int, concentration: float) -> dict:
    """Per-group client fractions: Dirichlet draw mixed with a uniform share."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBE7C])))
    out = {}
    for name in groups:
        draw = rng.dirichlet(np.full(n_clients, concentration))
        mixed = (1.0 - UNIFORM_SHARE) * draw + UNIFORM_SHARE / n_clients
        out[name] = tuple(float(f) for f in mixed / mixed.sum())
    return out


def cross_silo(seed: int) -> ExperimentConfig:
    """The default config: the paper's experiment shape, K=5, DP."""
    return ExperimentConfig(seeds=(seed,), threads=1)


def cross_device(seed: int) -> ExperimentConfig:
    """K=100 single-step clients on data whose groups need opposite rules."""
    cfg = ExperimentConfig(
        regimes=("mfairfl",),
        client_mode="single_step",
        seeds=(seed,),
        threads=1,
    )
    cfg.dataset["synthetic"].update(n=6000, label_orientation_by_group=(1.0, -1.0))
    cfg.partition = {"attribute": "group", "fractions": dirichlet_fractions(seed, ("g0", "g1"), 100, 0.5)}
    return cfg


def eo_multigroup(seed: int) -> ExperimentConfig:
    """Four groups under EO (eight label-conditioned keys), K=10."""
    cfg = ExperimentConfig(
        regimes=("mfairfl", "fedavg_f"),
        constraint="eo",
        local_epochs=10,
        seeds=(seed,),
        threads=1,
    )
    cfg.dataset["synthetic"].update(
        group_fractions=(0.4, 0.3, 0.2, 0.1),
        pos_rate_by_group=(0.65, 0.5, 0.4, 0.35),
    )
    groups = ("g0", "g1", "g2", "g3")
    cfg.partition = {"attribute": "group", "fractions": dirichlet_fractions(seed, groups, 10, 1.0)}
    return cfg


WORKLOADS = {
    "cross-silo": cross_silo,
    "cross-device": cross_device,
    "eo-multigroup": eo_multigroup,
}
