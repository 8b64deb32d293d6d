// hpbench: one workload of the end-to-end benchmark in one process.
//
//   hpbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE]
//           [--git-sha SHA] [--source-digest HEX]
//
// Prints a fingerprint line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits 1 when a check
// failed, 2 on bad arguments or an error. See README.md.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fingerprint(const std::string& git_sha,
                        const std::string& source_digest) {
  std::ostringstream out;
  out << "{\"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(HPB_COMPILER)
      << ", \"build_type\": " << json_string(HPB_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(git_sha)
      << ", \"source_sha256\": " << json_string(source_digest) << "}";
  return out.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hpbench: " << why
            << "\nusage: hpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] "
               "[--git-sha SHA] [--source-digest HEX]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  hpb::RunOptions options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0 && std::isfinite(options.seconds);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        options.trace_path = value;
      } else if (arg == "--git-sha") {
        git_sha = value;
      } else if (arg == "--source-digest") {
        source_digest = value;
      } else {
        usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    usage(std::string("bad argument: ") + e.what());
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  options.fingerprint_json = fingerprint(git_sha, source_digest);
  std::cout << "{\"fingerprint\": " << options.fingerprint_json << "}\n";

  hpb::RunResult result;
  try {
    result = hpb::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "hpbench: " << e.what() << '\n';
    return 2;
  }
  const bool correct = result.gate.failed() == 0;
  if (!correct) {
    std::cerr << "hpbench: " << result.gate.failed() << " of "
              << result.gate.attempted()
              << " checks failed; first: " << result.gate.first_error()
              << '\n';
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << result.gate.attempted()
      << ", \"failed\": " << result.gate.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const hpb::Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name)
        << ": {\"value\": " << m.value << ", \"unit\": " << json_string(m.unit)
        << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
