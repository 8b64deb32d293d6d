// Bitwise regression gate for DualHP. Unlike HeteroPrio and HEFT, DualHP has
// no in-tree reference engine to diff against, so these checksums pin its
// schedules instead: every placement and the makespan of `dualhp_dag` on the
// paper's tiled Cholesky/QR/LU DAGs (with lognormal noise, under every rank
// scheme) and of `dualhp` on uniform independent instances, over a
// GPU-accelerated node, a small node and a single-type node. The values were
// recorded from the engine before its lambda-bisection fast paths landed;
// any change to the lambda sequence or to a side decision moves them. All
// inputs are pure functions of the seeds below, so the checksums are
// machine-independent.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/dualhp.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "model/generators.hpp"
#include "schedule_checksum.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

const Platform kPlatforms[] = {Platform(20, 4), Platform(4, 2),
                               Platform(0, 3)};

/// Fold the checksums of one input over every platform of kPlatforms.
template <typename Run>
std::uint64_t over_platforms(Run&& run) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Platform& platform : kPlatforms) {
    const std::uint64_t c = schedule_checksum(run(platform));
    h = fnv1a(h, &c, sizeof c);
  }
  return h;
}

TaskGraph noisy_tiled_dag(int kind, int tiles, RankScheme rank) {
  TaskGraph g = kind == 0   ? cholesky_dag(tiles)
                : kind == 1 ? qr_dag(tiles)
                            : lu_dag(tiles);
  util::Rng rng(0xd0a1u + static_cast<std::uint64_t>(100 * kind + tiles));
  for (std::size_t i = 0; i < g.size(); ++i) {
    Task& t = g.task(static_cast<TaskId>(i));
    t.cpu_time *= rng.lognormal(0.0, 0.3);
    t.gpu_time *= rng.lognormal(0.0, 0.3);
  }
  assign_priorities(g, rank);
  return g;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(DualHpRegression, TiledDagsMatchRecordedChecksums) {
  constexpr int kTiles[] = {6, 10, 16};
  constexpr RankScheme kRanks[] = {RankScheme::kAvg, RankScheme::kMin,
                                   RankScheme::kFifo};
  // [kind: cholesky, qr, lu][tiles: 6, 10, 16][rank: avg, min, fifo]
  const std::uint64_t golden[3][3][3] = {
      // cholesky
      {{0xaacbf7b9500eacc5ull, 0xec3c58702bcace0cull,
        0x1d96d119f53237b5ull},
       {0xb300ff79b2d8909full, 0x2cc2651e38aaacf9ull,
        0xf19dc4fe0f81ba9cull},
       {0x88de5c222e702860ull, 0xe0626e11b676e355ull,
        0x74859a227ec50f38ull}},
      // qr
      {{0xf91e5c67d5ca6352ull, 0x5b23d8ba32e5da0dull,
        0x0e819035a212c8cfull},
       {0x41bf4579b6a9e941ull, 0x1977c0cec1900a45ull,
        0xf3302988e907f10eull},
       {0x035818040b2da8fcull, 0x5d2b623f81549d43ull,
        0x6f719024c302fdeeull}},
      // lu
      {{0xdc8779f7b4d02d7full, 0xe6777005c90aca67ull,
        0xd681565a7b67a523ull},
       {0x8775ded825de584dull, 0x5b280649c908ba47ull,
        0xb7406b009c740786ull},
       {0x0b4c347a282ad774ull, 0xe016b17bebdce9c3ull,
        0x920c12c5ca8af401ull}},
  };
  for (int kind = 0; kind < 3; ++kind) {
    for (int ti = 0; ti < 3; ++ti) {
      for (int ri = 0; ri < 3; ++ri) {
        SCOPED_TRACE("kind " + std::to_string(kind) + " tiles " +
                     std::to_string(kTiles[ti]) + " rank " +
                     rank_scheme_name(kRanks[ri]));
        const TaskGraph g = noisy_tiled_dag(kind, kTiles[ti], kRanks[ri]);
        DualHpOptions options;
        options.fifo_order = kRanks[ri] == RankScheme::kFifo;
        const std::uint64_t sum = over_platforms([&](const Platform& p) {
          return dualhp_dag(g, p, options);
        });
        EXPECT_EQ(sum, golden[kind][ti][ri]) << "actual " << hex(sum);
      }
    }
  }
}

TEST(DualHpRegression, NoiseFreeTiledDagsMatchRecordedChecksums) {
  // The tiled DAGs with their kernel timings as they are: every task of a
  // kernel has the same CPU time, GPU time and acceleration factor, and
  // many share a priority. So guesses land exactly on a candidate time, and
  // the ready orders by GPU time, CPU time and priority see equal keys,
  // which the noisy graphs above never produce. Recorded from the engine
  // before the per-interval plans and the kept-sorted ready orders landed.
  constexpr int kTiles[] = {6, 10, 16};
  constexpr RankScheme kRanks[] = {RankScheme::kAvg, RankScheme::kMin,
                                   RankScheme::kFifo};
  // [kind: cholesky, qr, lu][tiles: 6, 10, 16][rank: avg, min, fifo]
  const std::uint64_t golden[3][3][3] = {
      // cholesky
      {{0xd489de45c41d756aull, 0xddfcb401038aa2b6ull,
        0x82b151b9a6d545f7ull},
       {0x1abfeda411acac4eull, 0x02433f325b2355a2ull,
        0xeb91699e6f4abfb8ull},
       {0x885b165804575096ull, 0xbfba6f9ee84105ebull,
        0x07b33e236dc3a2feull}},
      // qr
      {{0xb1c3abbecd2fddc5ull, 0x52462dbb95f5889dull,
        0xf45e563dd18e042eull},
       {0x60c3841c45c70de5ull, 0x935b54a98754d472ull,
        0x63663bf074aac075ull},
       {0x79979fa4abd75ec7ull, 0x4b6d5a53d7c4af34ull,
        0xe14a29dc02b15145ull}},
      // lu
      {{0x62e4b92c368d7cffull, 0x2618fd139074e3b3ull,
        0x0688b094e1ac408eull},
       {0x44261298df42147cull, 0x51678e10b0fa5bc9ull,
        0x24f17ac8be71dbb3ull},
       {0x62141c191903fe21ull, 0xe3a201866b40d8eeull,
        0xff75300e6e9c5d7full}},
  };
  for (int kind = 0; kind < 3; ++kind) {
    for (int ti = 0; ti < 3; ++ti) {
      for (int ri = 0; ri < 3; ++ri) {
        SCOPED_TRACE("kind " + std::to_string(kind) + " tiles " +
                     std::to_string(kTiles[ti]) + " rank " +
                     rank_scheme_name(kRanks[ri]));
        TaskGraph g = kind == 0   ? cholesky_dag(kTiles[ti])
                      : kind == 1 ? qr_dag(kTiles[ti])
                                  : lu_dag(kTiles[ti]);
        assign_priorities(g, kRanks[ri]);
        DualHpOptions options;
        options.fifo_order = kRanks[ri] == RankScheme::kFifo;
        const std::uint64_t sum = over_platforms([&](const Platform& p) {
          return dualhp_dag(g, p, options);
        });
        EXPECT_EQ(sum, golden[kind][ti][ri]) << "actual " << hex(sum);
      }
    }
  }
}

TEST(DualHpRegression, IndependentTasksMatchRecordedChecksums) {
  constexpr std::size_t kSizes[] = {30, 2000};
  // [size: 30, 2000][order: priority, fifo]
  const std::uint64_t golden[2][2] = {
      {0x722a5d7a9798b290ull, 0x8f4f9b94ae7f9abbull},
      {0xf92752d348cbe34full, 0x7acd870f587c3f65ull},
  };
  for (int si = 0; si < 2; ++si) {
    util::Rng rng(0xd0a2u + kSizes[si]);
    Instance inst = uniform_instance({.num_tasks = kSizes[si]}, rng);
    for (Task& t : inst.tasks()) t.priority = rng.uniform01();
    for (int fifo = 0; fifo < 2; ++fifo) {
      SCOPED_TRACE("n " + std::to_string(kSizes[si]) + " fifo " +
                   std::to_string(fifo));
      const DualHpOptions options{.fifo_order = fifo == 1};
      const std::uint64_t sum = over_platforms([&](const Platform& p) {
        return dualhp(inst.tasks(), p, options);
      });
      EXPECT_EQ(sum, golden[si][fifo]) << "actual " << hex(sum);
    }
  }
}

TEST(DualHpRegression, LargeIndependentInstancesMatchRecordedChecksums) {
  // The sizes and the all-zero default priorities of hpbench's batch-indep
  // instance, where the bisection's GPU trajectory and load-sum tests
  // decide most guesses and the per-side sorts see equal keys. Recorded
  // from the engine before those paths landed. With every priority equal,
  // the priority order is the id order, so both columns agree.
  const Platform platforms[] = {Platform(20, 4), Platform(70, 6),
                                Platform(1, 1)};
  // [instance: uniform 2e4, uniform 1e5, bimodal 2e4][order: priority, fifo]
  const std::uint64_t golden[3][2] = {
      {0x7f61e41ddad2652bull, 0x7f61e41ddad2652bull},
      {0x0aeb428ec6d7c556ull, 0x0aeb428ec6d7c556ull},
      {0xd84093d4aa34c7d4ull, 0xd84093d4aa34c7d4ull},
  };
  for (int ii = 0; ii < 3; ++ii) {
    util::Rng rng(0xd0a3u + static_cast<std::uint64_t>(ii));
    const Instance inst =
        ii == 2 ? bimodal_instance(20000, 0.3, rng)
                : uniform_instance({.num_tasks = ii == 0 ? 20000u : 100000u},
                                   rng);
    for (int fifo = 0; fifo < 2; ++fifo) {
      SCOPED_TRACE("instance " + std::to_string(ii) + " fifo " +
                   std::to_string(fifo));
      const DualHpOptions options{.fifo_order = fifo == 1};
      std::uint64_t h = 1469598103934665603ull;
      for (const Platform& platform : platforms) {
        const std::uint64_t c =
            schedule_checksum(dualhp(inst.tasks(), platform, options));
        h = fnv1a(h, &c, sizeof c);
      }
      EXPECT_EQ(h, golden[ii][fifo]) << "actual " << hex(h);
    }
  }
}

}  // namespace
}  // namespace hp
