#include "fuzz/generator.hpp"

#include <algorithm>
#include <cmath>

#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "model/generators.hpp"
#include "util/rng.hpp"

namespace hp::fuzz {

namespace {

/// Salt for the per-case cell seed, distinct from every other subsystem.
constexpr std::uint64_t kFuzzSalt = 0x66757a7aULL;  // "fuzz"

/// Copy an Instance into an edge-free TaskGraph (the one workload container
/// of FuzzCase) and give most cases distinct random priorities so the
/// tie-break paths are exercised with total keys.
TaskGraph instance_to_graph(const Instance& instance, util::Rng& rng,
                            bool random_priorities) {
  TaskGraph graph(instance.name());
  for (const Task& t : instance.tasks()) {
    Task task = t;
    if (random_priorities) task.priority = rng.uniform(0.0, 16.0);
    graph.add_task(task);
  }
  graph.finalize();
  return graph;
}

/// Largest tile count whose Cholesky/LU DAG stays within `max_tasks`
/// (N(N+1)(N+2)/6 tasks for Cholesky; LU is the same order).
int tiles_for_budget(int max_tasks) {
  int tiles = 2;
  while ((tiles + 1) * (tiles + 2) * (tiles + 3) / 6 <= max_tasks &&
         tiles < 8) {
    ++tiles;
  }
  return tiles;
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                       const GenKnobs& knobs) {
  FuzzCase c;
  c.seed = util::seed_from_cell({seed, index}, kFuzzSalt);
  c.name = "case-" + std::to_string(seed) + "-" + std::to_string(index);
  util::Rng rng(c.seed);

  // Platform: mostly heterogeneous, a controlled slice one-sided so the
  // Graham shape of the watchdog is exercised too.
  int cpus = 1 + static_cast<int>(rng.bounded(
                     static_cast<std::uint64_t>(std::max(1, knobs.max_cpus))));
  int gpus = 1 + static_cast<int>(rng.bounded(
                     static_cast<std::uint64_t>(std::max(1, knobs.max_gpus))));
  if (rng.uniform01() < knobs.degenerate_fraction) {
    if (rng.bernoulli(0.5)) {
      gpus = 0;
    } else {
      cpus = 0;
    }
  }
  if (cpus + gpus == 0) cpus = 1;
  c.platform = Platform(cpus, gpus);

  const std::size_t num_tasks =
      1 + rng.bounded(static_cast<std::uint64_t>(std::max(1, knobs.max_tasks)));
  const bool want_dag = rng.uniform01() < knobs.dag_fraction;
  c.rank = rng.bernoulli(0.5) ? RankScheme::kMin : RankScheme::kAvg;

  if (want_dag) {
    switch (rng.bounded(4)) {
      case 0: {
        LayeredDagParams params;
        params.layers = 2 + static_cast<int>(rng.bounded(5));
        params.width = std::max<int>(
            1, static_cast<int>(num_tasks) / std::max(1, params.layers));
        params.edge_probability = rng.uniform(0.15, 0.6);
        c.graph = random_layered_dag(params, rng);
        break;
      }
      case 1: {
        SparseDagParams params;
        params.num_tasks = num_tasks;
        params.avg_out_degree = rng.uniform(1.0, 3.0);
        params.window = 4 + static_cast<int>(rng.bounded(10));
        c.graph = random_sparse_dag(params, rng);
        break;
      }
      case 2:
        c.graph = cholesky_dag(tiles_for_budget(knobs.max_tasks));
        break;
      default:
        c.graph = lu_dag(std::max(2, tiles_for_budget(knobs.max_tasks) - 1));
        break;
    }
    c.graph.finalize();
    if (c.graph.num_edges() > 0) {
      assign_priorities(c.graph, c.rank);
    } else {
      // A 1-layer draw can come out edge-free; treat it as independent.
      c.graph = instance_to_graph(c.graph.to_instance(), rng, true);
    }
  } else {
    const bool random_priorities = rng.uniform01() < 0.7;
    switch (rng.bounded(3)) {
      case 0: {
        UniformGenParams params;
        params.num_tasks = num_tasks;
        c.graph = instance_to_graph(uniform_instance(params, rng), rng,
                                    random_priorities);
        break;
      }
      case 1:
        c.graph = instance_to_graph(
            bimodal_instance(num_tasks, rng.uniform(0.2, 0.8), rng), rng,
            random_priorities);
        break;
      default:
        c.graph = instance_to_graph(
            uniform_accel_instance(num_tasks, rng.uniform(0.5, 8.0), 0.5, 10.0,
                                   rng),
            rng, random_priorities);
        break;
    }
  }
  c.graph.set_name(c.name);

  if (rng.uniform01() < knobs.fault_fraction) {
    fault::FaultSpec spec;
    const int workers = c.platform.workers();
    spec.crashes = static_cast<int>(rng.bounded(
        static_cast<std::uint64_t>(std::max(1, workers))));
    spec.stragglers = static_cast<int>(rng.bounded(3));
    spec.task_fail_prob = rng.bernoulli(0.5) ? rng.uniform(0.01, 0.25) : 0.0;
    spec.max_attempts = 2 + static_cast<int>(rng.bounded(4));
    spec.retry_backoff = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.5) : 0.0;
    spec.seed = rng();
    // Horizon: the fault-free HeteroPrio makespan, so injected instants land
    // inside the run (same convention as `hp_sched faults`).
    HeteroPrioStats stats;
    const double horizon =
        c.is_dag()
            ? heteroprio_dag(c.graph, c.platform, {}, &stats).makespan()
            : heteroprio(c.graph.tasks(), c.platform, {}, &stats).makespan();
    spec.horizon = horizon > 0.0 ? horizon : 1.0;
    c.faults = fault::FaultPlan::generate(spec, c.platform);
  }

  // Arrival stream next-to-last: every draw above is unchanged from before
  // this knob existed, so historical (seed, index) cases stay byte-identical.
  if (rng.uniform01() < knobs.online_fraction) {
    online::ArrivalSpec arrival_spec;
    arrival_spec.rate = rng.uniform(0.1, 2.0);
    arrival_spec.deadline_factor =
        rng.bernoulli(0.5) ? rng.uniform(2.0, 16.0) : 0.0;
    arrival_spec.seed = rng();
    c.arrivals = online::ArrivalPlan::generate(arrival_spec, c.graph.tasks());
  }

  // Discarded draw that holds the serve draw at its historical rng position.
  static_cast<void>(rng.bounded(3));

  // Service worker count strictly last (the `serve` property arrived after
  // every other knob; drawing here keeps every earlier field of historical
  // cases byte-identical — pinned in test_fuzz_generator).
  if (knobs.serve_workers >= 2) {
    c.serve_workers =
        2 + static_cast<int>(rng.bounded(
                static_cast<std::uint64_t>(knobs.serve_workers - 1)));
  }
  return c;
}

}  // namespace hp::fuzz
