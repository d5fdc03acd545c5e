#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

/// Spans open on this thread, innermost last: the parent of the next
/// span this thread opens on the same Trace.
thread_local std::vector<std::pair<const Trace*, int>> open_stack;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

Trace::Scope::Scope(Trace& trace, const char* name, int op)
    : trace_(&trace) {
  if (trace.enabled_) index_ = trace.open(name, op);
}

Trace::Scope::~Scope() {
  if (index_ >= 0) trace_->close(index_);
}

int Trace::open(const char* name, int op) {
  Span span;
  span.name = name;
  span.op = op;
  if (!open_stack.empty() && open_stack.back().first == this)
    span.parent = open_stack.back().second;
  int index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    span.start_ns = now_ns();
    index = static_cast<int>(spans_.size());
    spans_.push_back(span);
  }
  open_stack.emplace_back(this, index);
  return index;
}

void Trace::close(int index) {
  const std::int64_t end = now_ns();
  open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary summary;
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < span.start_ns) {
      ++summary.nesting_violations;
      continue;
    }
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    if (static_cast<std::size_t>(span.parent) >= i || span.op != parent.op ||
        span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      ++summary.nesting_violations;
      continue;
    }
    children[static_cast<std::size_t>(span.parent)].push_back(
        static_cast<int>(i));
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < span.start_ns) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const int child : children[i]) {
      const Span& c = spans[static_cast<std::size_t>(child)];
      covered.emplace_back(std::max(c.start_ns, span.start_ns),
                           std::min(c.end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    const std::int64_t self_ns = (span.end_ns - span.start_ns) - covered_ns;
    if (self_ns < 0) ++summary.negative_self;
    TraceSummary::PerOp& slot = summary.by_name[span.name][span.op];
    slot.total_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    slot.self_s += static_cast<double>(self_ns) * 1e-9;
    ++slot.count;
  }
  return summary;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_events,
                        const std::map<std::string, std::string>& metadata) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[";
  const std::size_t count = std::min(max_events, spans.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%d}}",
                  i == 0 ? "" : ",", span.name, span.op,
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent, span.op);
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out << (first ? "" : ",") << '"' << json_escape(key) << "\":\""
        << json_escape(value) << '"';
    first = false;
  }
  out << "}}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
