#ifndef SERVEBENCH_LIB_TRACE_H_
#define SERVEBENCH_LIB_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. Spans of one unit of work (a
/// request, a setup, an update batch) share `trace`; `parent` is the id
/// of the enclosing span (0 = root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  int64_t start_ns = 0;  // relative to the tracer's origin
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// In-memory span recorder. The benchmark records spans from its own
/// code around public calls into each library module; nothing inside the
/// library is instrumented. Thread-safe; spans are written out once, at
/// exit.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a finished span and returns its id.
  uint64_t Record(std::string_view name, uint64_t parent, uint64_t trace,
                  Clock::time_point start, Clock::time_point end);
  /// Opens a span now (end = start until Close) and returns its id, so
  /// children can name it as parent while it runs.
  uint64_t Open(std::string_view name, uint64_t parent, uint64_t trace);
  void Close(uint64_t id);

  /// A fresh trace id.
  uint64_t NewTrace();

  std::vector<Span> Spans() const;
  /// Writes every span as one JSON document; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Offset(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]
  uint64_t next_trace_ = 1;
};

/// RAII span; a null tracer makes it a no-op with id() == 0, so the
/// untraced run takes the same code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t parent = 0,
             uint64_t trace = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Open(name, parent, trace) : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_) tracer_->Close(id_);
  }
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Self time of every span (indexed like `spans`): its duration minus
/// the part of its interval that the union of its children covers.
/// Overlapping children are counted once; child time outside the parent
/// is not subtracted.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Result of the layer-sum check.
struct CoverageReport {
  size_t parents_checked = 0;
  double max_unaccounted_share = 0;  // max self/duration over checked parents
  std::string worst;                 // name of that parent
  size_t child_overflows = 0;        // children reaching outside their parent
};

/// For every span named in `decomposed` (a parent whose children are
/// meant to account for all of it), the share of its duration left as
/// self time; and, for every span, whether a child ends outside it.
CoverageReport CheckCoverage(const std::vector<Span>& spans,
                             const std::set<std::string>& decomposed);

}  // namespace servebench

#endif  // SERVEBENCH_LIB_TRACE_H_
