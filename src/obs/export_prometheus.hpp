#pragma once
// Prometheus text-format exposition of a MetricsRegistry.
//
// prometheus_text() renders every counter, gauge and histogram in the
// text format scrape endpoints serve (one `# TYPE` comment per family,
// one `name{labels} value` sample per line). Histograms emit the classic
// cumulative `_bucket{le="..."}` series over the *occupied* buckets plus
// `+Inf`, `_sum` and `_count`, and additionally a `<name>_quantile` gauge
// family with the p50/p90/p99 upper-bound estimates and the exact max —
// the pre-aggregated form the serve endpoint will report per tenant.
//
// validate_prometheus_text() is a line-format checker for tests and the
// CLI: metric names must be legal, every sample must carry a parsable
// value, and every sample's family must have been declared by a preceding
// `# TYPE` line. It is not a full PromQL-compatible parser — it validates
// what this repo emits.

#include <string>

#include "obs/metrics.hpp"

namespace hp::obs {

/// Render `registry` as Prometheus text exposition format. Every family
/// name gets the "hp_" prefix and is sanitized ([a-zA-Z0-9_:], anything
/// else becomes '_').
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry);

/// Validate the line format of an exposition document. On failure returns
/// false and describes the first offending line in `*error`.
bool validate_prometheus_text(const std::string& text, std::string* error);

}  // namespace hp::obs
