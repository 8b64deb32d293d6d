#include "comm/comm_sched.hpp"

#include <algorithm>
#include <cassert>

#include "baselines/heft.hpp"
#include "core/hp_engine.hpp"
#include "util/arena.hpp"

namespace hp {

namespace {

/// Mean transfer cost of one payload over all ordered worker pairs —
/// the averaging HEFT's rank computation uses for edge weights.
double mean_transfer(const Platform& platform, const CommModel& comm,
                     double size_mb) {
  const double m = platform.cpus();
  const double n = platform.gpus();
  const double total = m + n;
  if (total <= 1.0) return 0.0;
  // Ordered pairs (from, to), from != to.
  const double cross = 2.0 * m * n * comm.boundary_cost(size_mb);
  const double gpu_gpu = n * (n - 1.0) * 2.0 * comm.boundary_cost(size_mb);
  return (cross + gpu_gpu) / (total * (total - 1.0));
}

/// Upward rank with mean communication on edges.
std::vector<double> comm_ranks(const TaskGraph& graph, const Platform& platform,
                               const CommModel& comm,
                               std::span<const double> payloads,
                               RankScheme scheme) {
  const std::span<const TaskId> order = graph.topo_order();
  std::vector<double> rank(graph.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId id = *it;
    const double edge_cost = mean_transfer(
        platform, comm, payloads[static_cast<std::size_t>(id)]);
    double succ_max = 0.0;
    for (TaskId succ : graph.successors(id)) {
      succ_max =
          std::max(succ_max, edge_cost + rank[static_cast<std::size_t>(succ)]);
    }
    rank[static_cast<std::size_t>(id)] =
        rank_weight(graph.task(id), scheme) + succ_max;
  }
  return rank;
}

}  // namespace

Schedule heft_comm(const TaskGraph& graph, const Platform& platform,
                   const CommModel& comm, std::span<const double> payloads,
                   const HeftCommOptions& options) {
  assert(graph.finalized());
  assert(payloads.size() == graph.size());
  assert(options.rank != RankScheme::kFifo);
  const std::vector<double> rank =
      comm_ranks(graph, platform, comm, payloads, options.rank);
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  return detail::heft_run(graph.tasks(), &graph, platform,
                          {.insertion = options.insertion},
                          detail::rank_order(graph, rank, arena), &comm,
                          payloads);
}

Schedule heteroprio_comm(const TaskGraph& graph, const Platform& platform,
                         const CommModel& comm,
                         std::span<const double> payloads,
                         HeteroPrioCommStats* stats,
                         const HeteroPrioCommOptions& options) {
  assert(graph.finalized());
  assert(payloads.size() == graph.size());
  HeteroPrioCommStats local;
  const detail::CommHooks hooks{comm, payloads, options.locality_window,
                                &local.transfer_time_total};
  HeteroPrioStats hp_stats;
  Schedule schedule = detail::run_heteroprio(graph.tasks(), &graph, platform,
                                             {}, &hp_stats, nullptr, nullptr,
                                             &hooks);
  local.spoliations = hp_stats.spoliations;
  if (stats != nullptr) *stats = local;
  return schedule;
}

}  // namespace hp
