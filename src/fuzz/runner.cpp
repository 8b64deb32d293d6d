#include "fuzz/runner.hpp"

#include <chrono>
#include <cstring>
#include <sstream>

#include "fuzz/corpus.hpp"

namespace hp::fuzz {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t* h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (value >> (8 * byte)) & 0xffu;
    *h *= kFnvPrime;
  }
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<SchedulerId> resolve_schedulers(const RunnerOptions& options) {
  if (!options.schedulers.empty()) return options.schedulers;
  std::vector<SchedulerId> all;
  for (int i = 0; i < kNumSchedulers; ++i) {
    all.push_back(static_cast<SchedulerId>(i));
  }
  return all;
}

/// Corpus entry for a shrunk repro: replay only the scheduler and the
/// property that failed.
CorpusCase repro_entry(const FuzzFailure& failure, unsigned failing_props) {
  CorpusCase entry;
  entry.c = failure.shrunk;
  entry.schedulers = {failure.scheduler};
  entry.props = failing_props;
  return entry;
}

}  // namespace

FuzzReport run_fuzz(const RunnerOptions& options) {
  FuzzReport report;
  report.seed = options.seed;
  report.runs_requested = options.runs;
  report.checksum = kFnvOffset;

  const std::vector<SchedulerId> schedulers = resolve_schedulers(options);
  const auto start = std::chrono::steady_clock::now();

  for (int i = 0; i < options.runs; ++i) {
    if (options.max_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= options.max_seconds) break;
    }
    const FuzzCase c =
        generate_case(options.seed, static_cast<std::uint64_t>(i),
                      options.knobs);
    ++report.cases_run;
    for (const SchedulerId sched : schedulers) {
      const OracleVerdict verdict = check_case(c, sched, options.oracle);
      report.properties_checked += verdict.properties_checked;
      fnv_mix(&report.checksum, static_cast<std::uint64_t>(i));
      fnv_mix(&report.checksum, static_cast<std::uint64_t>(sched));
      fnv_mix(&report.checksum, double_bits(verdict.makespan));
      if (verdict.ok()) continue;

      FuzzFailure failure;
      failure.index = static_cast<std::uint64_t>(i);
      failure.scheduler = sched;
      unsigned failing_props = 0;
      for (const PropertyFailure& f : verdict.failures) {
        for (unsigned bit = 1; bit < kPropAll; bit <<= 1) {
          if (f.property == property_name(bit)) failing_props |= bit;
        }
      }
      if (options.shrink_failures) {
        ShrinkResult shrunk =
            shrink_case(c, sched, options.oracle, options.shrink);
        failure.shrunk = std::move(shrunk.minimized);
        failure.failure = std::move(shrunk.failure);
      } else {
        failure.shrunk = c;
        failure.failure = verdict.failures.front();
      }
      if (!options.out_dir.empty()) {
        const std::string path = options.out_dir + "/" + failure.shrunk.name +
                                 (failure.shrunk.is_dag() ? ".hpg" : ".hpi");
        if (save_corpus_file(path, repro_entry(failure, failing_props))) {
          failure.repro_path = path;
        }
      }
      report.failures.push_back(std::move(failure));
    }
  }
  return report;
}

std::string format_report(const FuzzReport& report,
                          const RunnerOptions& options) {
  std::ostringstream oss;
  oss << "# hp-fuzz report v1\n";
  oss << "seed " << report.seed << '\n';
  oss << "runs " << report.runs_requested << '\n';
  oss << "cases " << report.cases_run << '\n';
  oss << "schedulers ";
  const std::vector<SchedulerId> schedulers = resolve_schedulers(options);
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    if (i > 0) oss << ',';
    oss << scheduler_name(schedulers[i]);
  }
  oss << '\n';
  oss << "props " << props_to_string(options.oracle.props) << '\n';
  oss << "properties-checked " << report.properties_checked << '\n';
  oss << "failures " << report.failures.size() << '\n';
  for (const FuzzFailure& f : report.failures) {
    oss << "fail index=" << f.index << " scheduler="
        << scheduler_name(f.scheduler) << " property=" << f.failure.property
        << " tasks=" << f.shrunk.graph.size();
    if (!f.repro_path.empty()) oss << " repro=" << f.repro_path;
    oss << '\n';
    oss << "  detail: " << f.failure.detail << '\n';
  }
  oss << "checksum 0x" << std::hex << report.checksum << std::dec << '\n';
  return oss.str();
}

}  // namespace hp::fuzz
