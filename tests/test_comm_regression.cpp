// Recorded-checksum regression for the communication-aware schedulers.
// heteroprio_comm (locality window 1 and 8) and heft_comm are pinned per
// cell by schedule_checksum, and HeteroPrio's summed staging delay by its
// exact bits, so any change to where a task runs, when it starts, which
// task a window pop picks or which victim a staging-aware spoliation
// takes shows up here. The cells are bench_comm_sensitivity's grid
// (Cholesky and QR at 24 tiles on 20 CPUs + 4 GPUs, min ranks, five
// bandwidths) and the graphs of test_comm.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "comm/comm_sched.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "schedule_checksum.hpp"

namespace hp {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

struct Recorded {
  std::uint64_t hp;          ///< heteroprio_comm, window 1
  std::uint64_t transfer;    ///< bits of its transfer_time_total
  std::uint64_t hp_window8;  ///< heteroprio_comm, window 8
  std::uint64_t heft;        ///< heft_comm
  int spoliations;           ///< window 1
};

/// Runs the three schedulers on one cell and compares with `want`.
void expect_cell(const TaskGraph& graph, const Platform& platform,
                 const CommModel& comm, std::span<const double> payloads,
                 RankScheme heft_rank, const Recorded& want) {
  HeteroPrioCommStats stats;
  EXPECT_EQ(schedule_checksum(
                heteroprio_comm(graph, platform, comm, payloads, &stats)),
            want.hp);
  EXPECT_EQ(bits_of(stats.transfer_time_total), want.transfer);
  EXPECT_EQ(stats.spoliations, want.spoliations);
  EXPECT_EQ(schedule_checksum(heteroprio_comm(graph, platform, comm, payloads,
                                              nullptr,
                                              {.locality_window = 8})),
            want.hp_window8);
  EXPECT_EQ(schedule_checksum(heft_comm(graph, platform, comm, payloads,
                                        {.rank = heft_rank})),
            want.heft);
}

TEST(CommRegression, SensitivityGridIsPinned) {
  const double bandwidths[] = {1e9, 48.0, 12.0, 3.0, 1.0};
  const Recorded want[2][5] = {
      {// cholesky
       {0x1e05038bcbf2297dull, 0x3efcdc005ccc5386ull, 0x029027e7b244dad0ull,
        0xb12414db25efdac4ull, 82},
       {0x7c6c25914e86d7beull, 0x4083d9a3d70a3d21ull, 0x88156b5f9dc14f67ull,
        0x2d3e9568e164ee60ull, 59},
       {0xc28d0ed13ba6e4a0ull, 0x40a0c14ccccccc38ull, 0xcee686fae25136ccull,
        0xbd0e0a05c9f955adull, 62},
       {0x37c670796da70a8bull, 0x40bab0658bf25867ull, 0x4d7022961563989bull,
        0x3858b288c3aa836aull, 26},
       {0xeb47e40f57cc90a3ull, 0x40cc1a8666666674ull, 0xf4e4bddabb5dcb6dull,
        0x2c972388284e9e9eull, 23}},
      {// qr
       {0xf3b3f680e81844b4ull, 0x3f0967e4fc7d99e4ull, 0xfbe0b8988fd3909bull,
        0x9d8115d9e0389d3full, 67},
       {0x70b165a9364c6fabull, 0x409206e40da74080ull, 0xf43a9600de4e94e6ull,
        0xef1f3d947a5dc70bull, 70},
       {0xc4a8193b4e7c677bull, 0x40b000a51eb8518aull, 0xad94779668ed5194ull,
        0xb7aa1d5e16b08e3full, 63},
       {0x58e9c9b4e631a642ull, 0x40cc4dfae147aee8ull, 0x796073f469501309ull,
        0x1fe0d237e827ff9bull, 53},
       {0x05175a1b3a54d692ull, 0x40e1078b3333326cull, 0x23673bb085e3e1e7ull,
        0xdb2172d90ef44076ull, 42}}};
  const Platform platform(20, 4);
  for (int k = 0; k < 2; ++k) {
    TaskGraph graph = k == 0 ? cholesky_dag(24) : qr_dag(24);
    assign_priorities(graph, RankScheme::kMin);
    const std::vector<double> payloads = uniform_payloads(graph);
    for (int b = 0; b < 5; ++b) {
      SCOPED_TRACE(std::string(k == 0 ? "cholesky" : "qr") + " bandwidth " +
                   std::to_string(bandwidths[b]));
      CommModel comm;
      comm.bandwidth_mb_per_ms = bandwidths[b];
      comm.latency_ms = bandwidths[b] >= 1e9 ? 0.0 : 0.02;
      expect_cell(graph, platform, comm, payloads, RankScheme::kMin,
                  want[k][b]);
    }
  }
}

TEST(CommRegression, UnitTestGraphsArePinned) {
  struct Cell {
    int tiles;
    double bandwidth;
    Recorded want;
  };
  const Cell cells[] = {
      {6, 12.0, {0x088f9b7efd8f82c0ull, 0x40483bbbbbbbbbbbull,
                 0xfc001adb861a27e9ull, 0xe0c261bb38febeb5ull, 9}},
      {6, 3.0, {0xc83de3553b98f509ull, 0x40670ae147ae1477ull,
                0x400e23533a9f81b7ull, 0xaf160849cc17a2dfull, 7}},
      {6, 1.0, {0x5124f925fd379f23ull, 0x407ca40000000005ull,
                0xa32ecfd21b0b257aull, 0x7e7caf3fb7bec7c7ull, 8}},
      {8, 12.0, {0xc4e0aaaafb59647full, 0x405a0d0369d036aeull,
                 0xcdb44835387d94ebull, 0xd09104b6d79d82e1ull, 12}},
      {8, 3.0, {0xb30da6266f0d1dc3ull, 0x40783962fc962fd6ull,
                0xb55a9d713ffdf6bfull, 0x17cf80531506aef1ull, 13}},
      {8, 1.0, {0xe946e5433e37e4ffull, 0x408ae0cccccccccbull,
                0x93770957c691e938ull, 0x6baab5bc14128b50ull, 4}},
      {10, 12.0, {0x6ec7cda8d70b7348ull, 0x40667dd70a3d70b4ull,
                  0x53d17e9b9c6ff83dull, 0x15c36c79a9307abfull, 8}},
      {10, 3.0, {0x95bd8feb1b060437ull, 0x408532369d0369e1ull,
                 0xeb5438e50e3435e1ull, 0xcd02aea54c764274ull, 16}},
      {10, 1.0, {0x9880caa699e20f78ull, 0x409939ccccccccb9ull,
                 0x59908e620e4df665ull, 0x83db6b885fd0f5f8ull, 8}},
      {12, 12.0, {0x3a533d56bcf37f07ull, 0x4073594b17e4b17dull,
                  0x7c727410f5dc4587ull, 0xd34a7bbc55ba9e5full, 10}},
      {12, 3.0, {0x7e312c1f329bbe1cull, 0x4090e02c5f92c607ull,
                 0xcbfd3653d275b05full, 0x590eccbdc87239feull, 15}},
      {12, 1.0, {0xf4b08a1c80590c76ull, 0x40a436b33333332aull,
                 0x30635cf641b80724ull, 0x9422a30dcffd20e9ull, 4}},
  };
  const Platform platform(4, 2);
  for (const Cell& cell : cells) {
    SCOPED_TRACE("cholesky " + std::to_string(cell.tiles) + " bandwidth " +
                 std::to_string(cell.bandwidth));
    TaskGraph graph = cholesky_dag(cell.tiles);
    assign_priorities(graph, RankScheme::kMin);
    CommModel comm;
    comm.bandwidth_mb_per_ms = cell.bandwidth;
    expect_cell(graph, platform, comm, uniform_payloads(graph),
                RankScheme::kAvg, cell.want);
  }
}

TEST(CommRegression, TwoTaskChainsArePinned) {
  // The chains of HeftComm.TransfersDelaySuccessors and
  // HeftComm.ExpensiveTransfersKeepChainOnOneResource on 1 CPU + 1 GPU.
  struct Chain {
    Task a, b;
    double bandwidth, latency, payload;
    std::uint64_t hp, transfer, heft;
  };
  const Chain chains[] = {
      {Task{1.0, 100.0}, Task{100.0, 1.0}, 1.0, 0.5, 2.0,
       0x74277b21f12d78f3ull, 0x4004000000000000ull, 0xcd7586f6a717aec7ull},
      {Task{1.0, 3.0}, Task{2.0, 1.0}, 0.01, 0.0, 1.0, 0xdc43be5b287ad4a2ull,
       0x4059000000000000ull, 0x85b2dc020710eb93ull},
  };
  const Platform platform(1, 1);
  for (const Chain& c : chains) {
    TaskGraph graph("chain");
    const TaskId a = graph.add_task(c.a);
    const TaskId b = graph.add_task(c.b);
    graph.add_edge(a, b);
    graph.finalize();
    assign_priorities(graph, RankScheme::kMin);
    CommModel comm;
    comm.bandwidth_mb_per_ms = c.bandwidth;
    comm.latency_ms = c.latency;
    const std::vector<double> payloads{c.payload, c.payload};
    HeteroPrioCommStats stats;
    EXPECT_EQ(schedule_checksum(
                  heteroprio_comm(graph, platform, comm, payloads, &stats)),
              c.hp);
    EXPECT_EQ(bits_of(stats.transfer_time_total), c.transfer);
    EXPECT_EQ(schedule_checksum(heft_comm(graph, platform, comm, payloads)),
              c.heft);
  }
}

}  // namespace
}  // namespace hp
