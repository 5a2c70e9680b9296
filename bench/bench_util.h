#ifndef SEMSIM_BENCH_BENCH_UTIL_H_
#define SEMSIM_BENCH_BENCH_UTIL_H_

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/concurrent_cache.h"
#include "core/pair_graph.h"
#include "datasets/aminer_gen.h"
#include "datasets/amazon_gen.h"
#include "datasets/wikipedia_gen.h"
#include "datasets/wordnet_gen.h"

namespace semsim {
namespace bench {

/// Parses an integer `--name=value` flag from argv; returns fallback when
/// absent. Used by the query benches for --threads.
inline int ParseIntFlag(int argc, char** argv, const char* name,
                        int fallback) {
  std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Parses a string `--name=value` flag from argv; returns fallback when
/// absent. Used by the query benches for --kernel and --dataset.
inline std::string ParseStringFlag(int argc, char** argv, const char* name,
                                   const char* fallback) {
  std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Machine-readable bench output: a flat header of scalar fields plus an
/// array of per-measurement records, serialized as one JSON object so the
/// perf trajectory (wall time, queries/sec, cache hit rates) is tracked
/// across PRs. Numbers render with round-trip precision; non-finite
/// doubles render as null.
class JsonBenchDoc {
 public:
  explicit JsonBenchDoc(std::string bench_name) {
    Add("bench", std::move(bench_name));
  }

  JsonBenchDoc& Add(const std::string& key, const std::string& value) {
    header_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonBenchDoc& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonBenchDoc& Add(const std::string& key, double value) {
    header_.emplace_back(key, Number(value));
    return *this;
  }
  JsonBenchDoc& Add(const std::string& key, int64_t value) {
    header_.emplace_back(key, Number(value));
    return *this;
  }
  JsonBenchDoc& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonBenchDoc& Add(const std::string& key, size_t value) {
    return Add(key, static_cast<int64_t>(value));
  }

  /// Starts a new record in the "records" array; subsequent Field calls
  /// attach to it.
  JsonBenchDoc& BeginRecord() {
    records_.emplace_back();
    return *this;
  }
  JsonBenchDoc& Field(const std::string& key, const std::string& value) {
    records_.back().emplace_back(key, Quote(value));
    return *this;
  }
  JsonBenchDoc& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonBenchDoc& Field(const std::string& key, double value) {
    records_.back().emplace_back(key, Number(value));
    return *this;
  }
  JsonBenchDoc& Field(const std::string& key, int64_t value) {
    records_.back().emplace_back(key, Number(value));
    return *this;
  }
  JsonBenchDoc& Field(const std::string& key, int value) {
    return Field(key, static_cast<int64_t>(value));
  }
  JsonBenchDoc& Field(const std::string& key, size_t value) {
    return Field(key, static_cast<int64_t>(value));
  }

  std::string Render() const {
    std::string out = "{\n";
    for (const auto& [key, rendered] : header_) {
      out += "  " + Quote(key) + ": " + rendered + ",\n";
    }
    out += "  \"records\": [\n";
    for (size_t r = 0; r < records_.size(); ++r) {
      out += "    {";
      for (size_t f = 0; f < records_[r].size(); ++f) {
        if (f > 0) out += ", ";
        out += Quote(records_[r][f].first) + ": " + records_[r][f].second;
      }
      out += r + 1 < records_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the document and tells the operator where it went.
  void WriteFile(const std::string& path) const {
    std::ofstream out(path);
    SEMSIM_CHECK(out.good()) << "cannot write " << path;
    out << Render();
    std::printf("\nwrote %s\n", path.c_str());
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    out += '"';
    return out;
  }
  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  static std::string Number(int64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    return buf;
  }

  std::vector<std::pair<std::string, std::string>> header_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// Unwraps a Result in a bench harness, aborting with the status.
template <typename T>
T Unwrap(Result<T> result) {
  SEMSIM_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Backend of the query benches' `--metrics-out=<path>` flag: snapshots
/// the global MetricsRegistry and writes it as JSON to `path` plus
/// Prometheus text to the `.prom` sibling. Empty path = flag absent =
/// no-op.
inline void MaybeWriteMetrics(const std::string& json_path) {
  if (json_path.empty()) return;
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  Status status = WriteMetricsFiles(snapshot, json_path);
  SEMSIM_CHECK(status.ok()) << status.ToString();
  std::printf("wrote %s and %s (%zu counters, %zu gauges, %zu histograms)\n",
              json_path.c_str(), MetricsPromPath(json_path).c_str(),
              snapshot.counters.size(), snapshot.gauges.size(),
              snapshot.histograms.size());
}

/// Standard bench-scale dataset instances. The paper runs on graphs up to
/// |V|=0.6M on a 96 GB server; this container is single-core, so each
/// harness uses a scaled-down instance with the same structure (DESIGN.md
/// §2.7) — shapes, not absolute numbers, are the reproduction target.
/// "small" variants suit the O(n²·d²) exact algorithms; "medium" the MC
/// estimators.

inline Dataset AminerSmall(uint64_t seed = 1) {
  AminerOptions opt;
  opt.num_authors = 500;
  opt.seed = seed;
  return Unwrap(GenerateAminer(opt));
}

/// Extra-small instance for the O(|E|²)-flavoured G² experiments.
inline Dataset AminerTiny(uint64_t seed = 1) {
  AminerOptions opt;
  opt.num_authors = 220;
  opt.seed = seed;
  return Unwrap(GenerateAminer(opt));
}

inline Dataset AminerMedium(uint64_t seed = 1) {
  AminerOptions opt;
  opt.num_authors = 1500;
  opt.seed = seed;
  return Unwrap(GenerateAminer(opt));
}

inline Dataset AminerWithDuplicates(uint64_t seed = 1) {
  AminerOptions opt;
  opt.num_authors = 300;
  opt.num_duplicates = 30;  // the paper identifies 30 duplicate pairs
  opt.seed = seed;
  return Unwrap(GenerateAminer(opt));
}

inline Dataset AmazonSmall(uint64_t seed = 2) {
  AmazonOptions opt;
  opt.num_items = 500;
  opt.seed = seed;
  return Unwrap(GenerateAmazon(opt));
}

inline Dataset AmazonMedium(uint64_t seed = 2) {
  AmazonOptions opt;
  opt.num_items = 1500;
  opt.seed = seed;
  return Unwrap(GenerateAmazon(opt));
}

inline Dataset WikipediaSmall(uint64_t seed = 3) {
  WikipediaOptions opt;
  opt.num_articles = 500;
  opt.relatedness_pairs = 150;
  opt.seed = seed;
  return Unwrap(GenerateWikipedia(opt));
}

/// Extra-small instance for the O(|E|²)-flavoured G² experiments.
inline Dataset WikipediaTiny(uint64_t seed = 3) {
  WikipediaOptions opt;
  opt.num_articles = 220;
  opt.relatedness_pairs = 100;
  opt.seed = seed;
  return Unwrap(GenerateWikipedia(opt));
}

inline Dataset WordnetDefault(uint64_t seed = 4) {
  WordnetOptions opt;
  opt.seed = seed;
  return Unwrap(GenerateWordnet(opt));
}

/// The paper's SLING index (Sec. 5.2) as a pre-filled shared cache: a
/// ConcurrentPairCache holding SO(lo, hi) = PairGraph::Normalizer(lo, hi)
/// for every unordered pair with sem >= `min_sem`, and every singleton,
/// whose normalizer is positive. It has bit_ceil(2 × qualifying pairs)
/// slots; `*qualifying` (optional) receives that pair count.
///
/// Attach it with set_shared_cache to an estimator that has NO groups
/// attached (SemSimMcEstimator::AttachGroups). Its virtual d² loop and
/// PairGraph::Normalizer both sum (w_a·w_b)·sem(a, b) over In(lo) outer
/// and In(hi) inner, so the pre-filled values are bit-exact. Grouped
/// sums differ in the last bits, which would break the cache's rule that
/// a value is a bit-exact function of its key.
inline std::unique_ptr<ConcurrentPairCache> PrefilledNormalizerCache(
    const PairGraph& pair_graph, double min_sem,
    size_t* qualifying = nullptr) {
  const Hin& g = pair_graph.graph();
  const SemanticMeasure* sem = pair_graph.semantic();
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  struct Entry {
    NodeId lo, hi;
    double norm;
  };
  std::vector<Entry> entries;
  for (NodeId lo = 0; lo < n; ++lo) {
    for (NodeId hi = lo; hi < n; ++hi) {
      if (lo != hi && sem != nullptr && sem->Sim(lo, hi) < min_sem) continue;
      const double norm = pair_graph.Normalizer(lo, hi);
      if (norm > 0) entries.push_back({lo, hi, norm});
    }
  }
  auto cache =
      std::make_unique<ConcurrentPairCache>(std::bit_ceil(2 * entries.size()));
  for (const Entry& e : entries) cache->Insert(e.lo, e.hi, e.norm);
  if (qualifying != nullptr) *qualifying = entries.size();
  return cache;
}

/// Prints the standard bench banner (experiment id, dataset sizes, seed).
inline void Banner(const std::string& experiment, const Dataset& d,
                   uint64_t seed) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("dataset=%s |V|=%zu |E|=%zu seed=%llu\n", d.name.c_str(),
              d.graph.num_nodes(), d.graph.num_edges(),
              static_cast<unsigned long long>(seed));
}

}  // namespace bench
}  // namespace semsim

#endif  // SEMSIM_BENCH_BENCH_UTIL_H_
