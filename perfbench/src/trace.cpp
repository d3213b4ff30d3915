#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "support/clock.hpp"

namespace perfbench {

std::int64_t Tracer::record(std::string name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::int64_t request) {
  if (!enabled_) return 0;
  const std::int64_t id = reserve_id();
  spans_.push_back({std::move(name), start_ns, end_ns, id, parent, request});
  return id;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t parent,
                     std::int64_t request)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      request_(request),
      start_ns_(cortex::support::monotonic_ns()),
      id_(tracer.reserve_id()) {}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  tracer_.spans_.push_back({std::move(name_), start_ns_,
                            cortex::support::monotonic_ns(), id_, parent_,
                            request_});
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t t0 = 0;
  if (!spans_.empty())
    t0 = std::min_element(spans_.begin(), spans_.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })->start_ns;
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_quote(s.name) << buf;
  }
  os << "\n],\"metadata\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i)
    os << (i ? "," : "") << json_quote(metadata[i].first) << ":"
       << json_quote(metadata[i].second);
  os << "}}\n";
  if (!os) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
