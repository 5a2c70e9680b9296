#include "lib/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace servebench {

uint64_t Tracer::Record(std::string_view name, uint64_t parent,
                        uint64_t trace, Clock::time_point start,
                        Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::string(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace = trace;
  span.start_ns = Offset(start);
  span.end_ns = Offset(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Tracer::Open(std::string_view name, uint64_t parent,
                      uint64_t trace) {
  const Clock::time_point now = Clock::now();
  return Record(name, parent, trace, now, now);
}

void Tracer::Close(uint64_t id) {
  const int64_t end = Offset(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = end;
}

uint64_t Tracer::NewTrace() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_trace_++;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"trace\": %llu, \"start_us\": %.3f, \"dur_us\": %.3f}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

// Children of each span, by index; ids are 1-based positions.
std::vector<std::vector<size_t>> ChildLists(const std::vector<Span>& spans) {
  std::vector<size_t> index_of_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= index_of_id.size()) {
      index_of_id.resize(spans[i].id + 1, spans.size());
    }
    index_of_id[spans[i].id] = i;
  }
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t p = spans[i].parent;
    if (p != 0 && p < index_of_id.size() && index_of_id[p] < spans.size()) {
      children[index_of_id[p]].push_back(i);
    }
  }
  return children;
}

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  const std::vector<std::vector<size_t>> children = ChildLists(spans);
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (parent.end_ns - parent.start_ns) - union_ns;
  }
  return self;
}

CoverageReport CheckCoverage(const std::vector<Span>& spans,
                             const std::set<std::string>& decomposed) {
  CoverageReport report;
  const std::vector<std::vector<size_t>> children = ChildLists(spans);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t c : children[i]) {
      if (spans[c].start_ns < spans[i].start_ns ||
          spans[c].end_ns > spans[i].end_ns) {
        ++report.child_overflows;
      }
    }
    if (decomposed.count(spans[i].name) == 0) continue;
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    if (dur <= 0) continue;
    ++report.parents_checked;
    const double share = static_cast<double>(self[i]) / dur;
    if (share > report.max_unaccounted_share) {
      report.max_unaccounted_share = share;
      report.worst = spans[i].name;
    }
  }
  return report;
}

}  // namespace servebench
