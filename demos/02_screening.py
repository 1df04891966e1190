"""
Sensitivity screening and bound reduction
=========================================

Before spending a search budget, a short trajectory-based screening pass
ranks the parameters by how strongly they move the latency SLI. The
influence ranking then shrinks the box: influential parameters keep wide
bounds, irrelevant ones collapse toward the cheapest satisfying corner.
"""

from confopt import (
    build_backend,
    bundled_path,
    get_utility,
    parse_config,
    reduce_bounds,
    run_screening,
)
from confopt.harness import Evaluator, sli_objective

config = parse_config(bundled_path("toystore.yaml"))
# The evaluator measures and scores configurations; the screening objective
# reads the p99 latency off each scored observation.
evaluator = Evaluator(
    config.space,
    build_backend(config),
    get_utility(config.util_func),
    config.slo,
    config.workload,
    config.cost_weights,
)
objective = sli_objective(evaluator)

# r trajectories of k+1 points each: 10 * 9 = 90 measured configurations.
outcome = run_screening(
    config.space, objective, r=config.screening.r, seed=config.seed
)
print(f"screened {len(outcome.evaluations)} configurations "
      f"({outcome.stats.r} trajectories)")

print("\nper-parameter effect statistics:")
print(f"{'parameter':<12} {'mu':>10} {'mu*':>10} {'sigma':>10}")
for i in outcome.stats.ranking():
    print(f"{outcome.stats.names[i]:<12} {outcome.stats.mu[i]:>10.2f} "
          f"{outcome.stats.mu_star[i]:>10.2f} {outcome.stats.sigma[i]:>10.2f}")

# Reduction keeps every configuration that met a relaxed version of the
# SLO and scales each parameter's surviving width by its influence.
reduction = reduce_bounds(
    config.space,
    outcome.stats,
    outcome.evaluations,
    config.slo.threshold,
    relaxed_factor=config.screening.relaxed_factor,
    strict_factor=config.screening.strict_factor,
)
reduced = reduction.reduced_space
print(f"\nreduced space: {reduced.size} of {config.space.size} configurations")
print(f"{'parameter':<12} {'influence':>9}   bounds")
for spec, rho in zip(reduced.parameters, reduction.rho):
    print(f"{spec.name:<12} {rho:>9.3f}   [{spec.minimum}, {spec.maximum}]"
          f" ({spec.level_count} levels)")
for note in reduction.notes:
    print("note:", note)
