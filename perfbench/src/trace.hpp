#pragma once
// Span recorder for the traced run. Spans are recorded by the benchmark's
// own code around each call into a layer's public functions (never from
// inside the library), kept in memory, and written once at exit as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Not thread-safe: every span is recorded from the benchmark's main
// thread, which is also the load generator.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< support::monotonic_ns clock
  std::int64_t end_ns = 0;
  std::int64_t id = 0;      ///< 1-based; 0 means "no span"
  std::int64_t parent = 0;  ///< enclosing span id, 0 for a root span
  std::int64_t request = -1;  ///< request id the span serves, -1 if none
};

class Tracer {
 public:
  /// A disabled tracer records nothing and returns span id 0.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id.
  std::int64_t record(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent = 0,
                      std::int64_t request = -1);

  /// A span from construction to destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t parent = 0,
          std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Id of this span, reserved at open so children can name it.
    std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::string name_;
    std::int64_t parent_;
    std::int64_t request_;
    std::int64_t start_ns_;
    std::int64_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") trace event, timestamps in µs
  /// relative to the earliest span, plus `metadata` as string pairs.
  /// Throws std::runtime_error when the file cannot be written.
  void write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  std::int64_t reserve_id() { return enabled_ ? ++next_id_ : 0; }

  bool enabled_;
  std::int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// JSON string literal for `s` (quotes included).
std::string json_quote(const std::string& s);

}  // namespace perfbench
