#include "fuzz/corpus.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "io/serialize.hpp"

namespace hp::fuzz {

namespace {

constexpr const char* kFuzzPrefix = "# fuzz:";
constexpr const char* kHpfPrefix = "# hpf:";
constexpr const char* kHpoPrefix = "# hpo:";
constexpr const char* kServePrefix = "# serve:";

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

bool parse_rank(const std::string& value, RankScheme* out) {
  if (value == "min") {
    *out = RankScheme::kMin;
  } else if (value == "avg") {
    *out = RankScheme::kAvg;
  } else if (value == "fifo") {
    *out = RankScheme::kFifo;
  } else {
    return false;
  }
  return true;
}

const char* rank_name(RankScheme rank) {
  switch (rank) {
    case RankScheme::kAvg: return "avg";
    case RankScheme::kMin: return "min";
    case RankScheme::kFifo: return "fifo";
  }
  return "?";
}

/// Apply one "key=value" directive token.
bool apply_directive(const std::string& token, CorpusCase* out, int* cpus,
                     int* gpus, std::string* why) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    *why = "directive '" + token + "' is not key=value";
    return false;
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  const auto parse_int = [&](int* target) {
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || v < 0) {
      *why = key + " '" + value + "' is not a non-negative integer";
      return false;
    }
    *target = static_cast<int>(v);
    return true;
  };
  if (key == "cpus") return parse_int(cpus);
  if (key == "gpus") return parse_int(gpus);
  if (key == "seed") {
    char* end = nullptr;
    out->c.seed = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size()) {
      *why = "seed '" + value + "' is not an integer";
      return false;
    }
    return true;
  }
  if (key == "rank") {
    if (!parse_rank(value, &out->c.rank)) {
      *why = "unknown rank scheme '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "schedulers") {
    if (value == "all") {
      out->schedulers.clear();
      return true;
    }
    std::istringstream iss(value);
    std::string name;
    while (std::getline(iss, name, ',')) {
      SchedulerId id{};
      if (!scheduler_from_name(name, &id)) {
        *why = "unknown scheduler '" + name + "'";
        return false;
      }
      out->schedulers.push_back(id);
    }
    return true;
  }
  if (key == "props") {
    std::string err;
    if (!parse_props(value, &out->props, &err)) {
      *why = err;
      return false;
    }
    return true;
  }
  if (key == "min-ratio") {
    char* end = nullptr;
    out->min_ratio = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || out->min_ratio < 0.0) {
      *why = "min-ratio '" + value + "' is not a non-negative number";
      return false;
    }
    return true;
  }
  *why = "unknown directive key '" + key + "'";
  return false;
}

/// Apply one "key=value" token of a `# serve:` directive.
bool apply_serve_directive(const std::string& token, CorpusCase* out,
                           std::string* why) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    *why = "serve directive '" + token + "' is not key=value";
    return false;
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "workers") {
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || v < 2) {
      *why = "serve workers '" + value + "' is not an integer >= 2";
      return false;
    }
    out->c.serve_workers = static_cast<int>(v);
    return true;
  }
  *why = "unknown serve directive key '" + key + "'";
  return false;
}

}  // namespace

std::string corpus_to_text(const CorpusCase& entry) {
  std::ostringstream oss;
  oss << kFuzzPrefix << " cpus=" << entry.c.platform.cpus()
      << " gpus=" << entry.c.platform.gpus() << " rank="
      << rank_name(entry.c.rank) << " seed=" << entry.c.seed;
  oss << " schedulers=";
  if (entry.schedulers.empty()) {
    oss << "all";
  } else {
    for (std::size_t i = 0; i < entry.schedulers.size(); ++i) {
      if (i > 0) oss << ',';
      oss << scheduler_name(entry.schedulers[i]);
    }
  }
  oss << " props=" << props_to_string(entry.props);
  if (entry.c.serve_workers >= 2) {
    oss << '\n' << kServePrefix << " workers=" << entry.c.serve_workers;
  }
  if (entry.min_ratio > 0.0) {
    oss.precision(12);
    oss << '\n' << kFuzzPrefix << " min-ratio=" << entry.min_ratio;
  }
  oss << '\n';
  if (entry.c.has_faults()) {
    std::istringstream plan(entry.c.faults.to_text());
    std::string line;
    while (std::getline(plan, line)) {
      oss << kHpfPrefix << ' ' << line << '\n';
    }
  }
  if (entry.c.has_arrivals()) {
    std::istringstream plan(entry.c.arrivals.to_text());
    std::string line;
    while (std::getline(plan, line)) {
      oss << kHpoPrefix << ' ' << line << '\n';
    }
  }
  oss << (entry.c.is_dag() ? io::graph_to_text(entry.c.graph)
                           : io::instance_to_text(entry.c.graph.to_instance()));
  return oss.str();
}

bool corpus_from_text(const std::string& text, CorpusCase* out,
                      std::string* error) {
  *out = CorpusCase{};
  int cpus = 1;
  int gpus = 1;
  std::string plan_text;
  std::string arrivals_text;
  std::string why;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (starts_with(line, kFuzzPrefix)) {
      std::istringstream fields(line.substr(std::string(kFuzzPrefix).size()));
      std::string token;
      while (fields >> token) {
        if (!apply_directive(token, out, &cpus, &gpus, &why)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(line_no) + ": " + why;
          }
          return false;
        }
      }
    } else if (starts_with(line, kServePrefix)) {
      std::istringstream fields(line.substr(std::string(kServePrefix).size()));
      std::string token;
      while (fields >> token) {
        if (!apply_serve_directive(token, out, &why)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(line_no) + ": " + why;
          }
          return false;
        }
      }
    } else if (starts_with(line, kHpfPrefix)) {
      std::string payload = line.substr(std::string(kHpfPrefix).size());
      if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
      plan_text += payload;
      plan_text += '\n';
    } else if (starts_with(line, kHpoPrefix)) {
      std::string payload = line.substr(std::string(kHpoPrefix).size());
      if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
      arrivals_text += payload;
      arrivals_text += '\n';
    }
  }
  // The workload lines: the plain parser skips every '#' line, directives
  // included, so the whole file is a valid graph file.
  auto graph = io::graph_from_text(text, error);
  if (!graph.has_value()) return false;
  if (graph->size() == 0) {
    if (error != nullptr) *error = "corpus file declares no tasks";
    return false;
  }
  out->c.graph = std::move(*graph);
  out->c.name = out->c.graph.name();
  if (cpus + gpus <= 0) {
    if (error != nullptr) *error = "platform has no workers (cpus+gpus=0)";
    return false;
  }
  out->c.platform = Platform(cpus, gpus);
  if (!plan_text.empty() &&
      !fault::FaultPlan::from_text(plan_text, &out->c.faults, error)) {
    return false;
  }
  if (!arrivals_text.empty() &&
      !online::ArrivalPlan::from_text(arrivals_text, &out->c.arrivals, error)) {
    return false;
  }
  return true;
}

bool save_corpus_file(const std::string& path, const CorpusCase& entry) {
  return io::save_text_file(path, corpus_to_text(entry));
}

bool load_corpus_file(const std::string& path, CorpusCase* out,
                      std::string* error) {
  const auto text = io::load_text_file(path);
  if (!text.has_value()) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return false;
  }
  if (!corpus_from_text(*text, out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::vector<std::string> list_corpus_files(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpi" || ext == ".hpg") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

CorpusVerdict replay_corpus_case(const CorpusCase& entry,
                                 OracleOptions oracle) {
  CorpusVerdict verdict;
  oracle.props = entry.props;
  std::vector<SchedulerId> scheds = entry.schedulers;
  if (scheds.empty()) {
    for (int i = 0; i < kNumSchedulers; ++i) {
      scheds.push_back(static_cast<SchedulerId>(i));
    }
  }
  for (const SchedulerId sched : scheds) {
    ++verdict.schedulers_replayed;
    OracleVerdict one = check_case(entry.c, sched, oracle);
    verdict.properties_checked += one.properties_checked;
    for (PropertyFailure& f : one.failures) {
      verdict.failures.push_back(std::move(f));
    }
  }
  if (entry.min_ratio > 0.0) {
    const Schedule s =
        entry.c.is_dag()
            ? heteroprio_dag(entry.c.graph, entry.c.platform, {})
            : heteroprio(entry.c.graph.tasks(), entry.c.platform, {});
    const double lb =
        entry.c.is_dag()
            ? dag_lower_bound(entry.c.graph, entry.c.platform).value()
            : opt_lower_bound(entry.c.graph.tasks(), entry.c.platform);
    const double ratio = lb > 0.0 ? s.makespan() / lb : 0.0;
    if (ratio < entry.min_ratio * (1.0 - 1e-6)) {
      std::ostringstream oss;
      oss.precision(12);
      oss << "worst-case witness lost its tightness: makespan/lb = " << ratio
          << " < min-ratio " << entry.min_ratio;
      verdict.failures.push_back(
          PropertyFailure{"min-ratio", scheduler_name(SchedulerId::kHp),
                          oss.str()});
    }
  }
  return verdict;
}

}  // namespace hp::fuzz
