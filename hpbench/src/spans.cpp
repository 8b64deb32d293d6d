#include "spans.hpp"

#include <fstream>

namespace hpb {

int SpanRecorder::open(const char* layer, const char* name,
                       std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order; tolerate a scope stopped early.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::append(const SpanRecorder& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  // Children of one thread's span never overlap each other, so the part of
  // a span they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& meta_json) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "{\"meta\": " << meta_json << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << (i == 0 ? "\n" : ",\n") << "[\"" << s.layer << "\",\"" << s.name
         << "\"," << s.start_ns << ',' << s.end_ns << ',' << s.parent << ','
         << s.request << ']';
  }
  file << "\n],\n\"columns\": [\"layer\",\"name\",\"start_ns\",\"end_ns\","
          "\"parent\",\"request\"]}\n";
  return static_cast<bool>(file);
}

}  // namespace hpb
