// Tests of the benchmark program's own logic: input determinism, the
// percentile rule, span self-time arithmetic, and the correctness replay.
// Run through `python3 servebench/run.py --self-test`, or build the
// servebench_test target and run it; exits non-zero on any failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/batch_engine.h"
#include "core/engine_snapshot.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "lib/replay.h"
#include "lib/stats.h"
#include "lib/streams.h"
#include "lib/trace.h"
#include "taxonomy/semantic_measure.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, \
                   #cond);                                         \
      ++failures;                                                  \
    }                                                              \
  } while (false)

bool SameRequest(const semsim::QueryRequest& a,
                 const semsim::QueryRequest& b) {
  if (a.kind != b.kind || a.k != b.k || a.timeout != b.timeout ||
      a.sources != b.sources || a.pairs.size() != b.pairs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    if (a.pairs[i].first != b.pairs[i].first ||
        a.pairs[i].second != b.pairs[i].second) {
      return false;
    }
  }
  return true;
}

std::vector<NodeId> Nodes(size_t n) {
  std::vector<NodeId> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

void TestSameSeedSameStreams() {
  const std::vector<NodeId> hot = Nodes(300);
  for (const WorkloadSpec& spec : Workloads()) {
    RequestStream a(spec, hot, 7), b(spec, hot, 7), c(spec, hot, 8);
    bool all_same = true, any_differs = false;
    for (int i = 0; i < 200; ++i) {
      semsim::QueryRequest ra = a.Next(), rb = b.Next(), rc = c.Next();
      all_same = all_same && SameRequest(ra, rb);
      any_differs = any_differs || !SameRequest(ra, rc);
      if (spec.topk) {
        std::vector<NodeId> sources = ra.sources;
        std::sort(sources.begin(), sources.end());
        EXPECT(sources.size() == spec.sources_per_request);
        EXPECT(std::adjacent_find(sources.begin(), sources.end()) ==
               sources.end());
      }
    }
    EXPECT(all_same);
    EXPECT(any_differs);
  }
  UpdateStream a(Nodes(500), 3), b(Nodes(500), 3), c(Nodes(500), 4);
  bool all_same = true, any_differs = false;
  for (int i = 0; i < 20; ++i) {
    EdgeBatch ea = a.Next(), eb = b.Next(), ec = c.Next();
    EXPECT(ea.edges.size() == kEdgesPerUpdate);
    all_same = all_same && ea.edges == eb.edges;
    any_differs = any_differs || ea.edges != ec.edges;
  }
  EXPECT(all_same);
  EXPECT(any_differs);
  // The graph and the hot order are fixed by the workload.
  const WorkloadSpec& spec = *FindWorkload("pairs-aminer");
  WorkloadSpec small = spec;
  small.num_entities = 200;
  semsim::Result<semsim::Dataset> g1 = MakeDataset(small);
  semsim::Result<semsim::Dataset> g2 = MakeDataset(small);
  EXPECT(g1.ok() && g2.ok());
  if (g1.ok() && g2.ok()) {
    EXPECT(g1->graph.num_edges() == g2->graph.num_edges());
    EXPECT(HotOrder(g1->graph, "author", 9) ==
           HotOrder(g2->graph, "author", 9));
    EXPECT(HotOrder(g1->graph, "author", 9).size() == 200);
  }
}

void TestPercentileNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT(!SupportedPercentile(v, 0.99).has_value());
  v.push_back(1000);
  const std::optional<double> p99 = SupportedPercentile(v, 0.99);
  EXPECT(p99.has_value() && *p99 == 990.0);  // 10 samples above it
  std::vector<double> small(19, 1.0);
  EXPECT(!SupportedPercentile(small, 0.5).has_value());
  small.push_back(1.0);
  EXPECT(SupportedPercentile(small, 0.5).has_value());
  EXPECT(!SupportedPercentile({}, 0.5).has_value());
  EXPECT(Median({3, 1, 2}) == 2);
  // Histogram interpolation: 10 samples in (1,2], 90 in (2,4].
  const double q = HistogramQuantile({1, 2, 4}, {0, 10, 90, 0}, 0.55);
  EXPECT(std::fabs(q - 3.0) < 1e-12);
}

void TestSelfTimeArithmetic() {
  auto span = [](uint64_t id, uint64_t parent, int64_t start, int64_t end,
                 const char* name) {
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  // Overlapping children count once; child time outside the parent is
  // not subtracted; a grandchild only affects its own parent.
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, "setup"),   span(2, 1, 10, 30, "a"),
      span(3, 1, 20, 50, "b"),       span(4, 1, 90, 120, "c"),
      span(5, 2, 12, 28, "grandchild"),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 16);
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 16);
  const CoverageReport report = CheckCoverage(spans, {"setup"});
  EXPECT(report.parents_checked == 1);
  EXPECT(std::fabs(report.max_unaccounted_share - 0.5) < 1e-12);
  EXPECT(report.worst == "setup");
  EXPECT(report.child_overflows == 1);  // "c" ends past its parent

  Tracer tracer;
  const uint64_t trace = tracer.NewTrace();
  {
    ScopedSpan parent(&tracer, "parent", 0, trace);
    ScopedSpan child(&tracer, "child", parent.id(), trace);
  }
  const std::vector<Span> recorded = tracer.Spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == recorded[0].id);
  EXPECT(recorded[0].start_ns <= recorded[1].start_ns &&
         recorded[1].end_ns <= recorded[0].end_ns);
  ScopedSpan untraced(nullptr, "noop");
  EXPECT(untraced.id() == 0);
}

void TestCorruptedReplayFails() {
  semsim::AminerOptions opt;
  opt.num_authors = 150;
  semsim::Result<semsim::Dataset> data = semsim::GenerateAminer(opt);
  EXPECT(data.ok());
  if (!data.ok()) return;
  auto graph = std::make_shared<const semsim::Hin>(std::move(data->graph));
  auto lin = std::make_shared<const semsim::LinMeasure>(&data->context);
  auto index = std::make_shared<const semsim::WalkIndex>(
      semsim::WalkIndex::Build(*graph, semsim::WalkIndexOptions{40, 8, 3}));
  semsim::EngineSnapshotOptions options;
  options.query.mc = semsim::SemSimMcOptions{0.6, 0.05};
  semsim::Result<semsim::EngineSnapshotPtr> snap =
      semsim::EngineSnapshot::Create(graph, lin, index, options, 1);
  EXPECT(snap.ok());
  if (!snap.ok()) return;
  semsim::Result<semsim::BatchQueryEngine> engine =
      semsim::BatchQueryEngine::CreateFromSnapshot(*snap, 2);
  EXPECT(engine.ok());
  if (!engine.ok()) return;

  const std::vector<NodeId> hot = HotOrder(*graph, "author", 1);
  Recorded pairs;
  pairs.request.kind = semsim::QueryRequestKind::kPairs;
  for (size_t i = 0; i + 1 < 40; i += 2) {
    pairs.request.pairs.push_back({hot[i], hot[i + 1]});
  }
  pairs.request.pairs.push_back({hot[0], hot[0]});
  Recorded topk;
  topk.request.kind = semsim::QueryRequestKind::kTopK;
  topk.request.sources = {hot[0]};
  topk.request.k = 5;
  std::vector<Recorded> sample = {
      Recompute(*engine, **snap, pairs), Recompute(*engine, **snap, topk)};
  for (Recorded& rec : sample) rec.version = 1;
  EXPECT(!sample[1].topk.empty() && !sample[1].topk[0].empty());

  CheckReport clean;
  ReplayOn(*engine, **snap, sample, &clean);
  EXPECT(clean.replayed == 2 && clean.ok());
  const uint64_t fp = AnswersFingerprint(sample);

  // One ulp off in one score is a mismatch, and moves the fingerprint.
  std::vector<Recorded> corrupted = sample;
  double& score = corrupted[0].scores.back();
  score = std::nextafter(score, 2.0);
  CheckReport bad;
  ReplayOn(*engine, **snap, corrupted, &bad);
  EXPECT(bad.mismatches == 1 && !bad.ok() && !bad.first_error.empty());
  EXPECT(AnswersFingerprint(corrupted) != fp);

  std::vector<Recorded> swapped = sample;
  swapped[1].topk[0][0].node += 1;
  CheckReport bad_topk;
  ReplayOn(*engine, **snap, swapped, &bad_topk);
  EXPECT(bad_topk.mismatches == 1);

  // Entries served by another version are not replayed on this one.
  std::vector<Recorded> other = sample;
  for (Recorded& rec : other) rec.version = 2;
  CheckReport skipped;
  ReplayOn(*engine, **snap, other, &skipped);
  EXPECT(skipped.replayed == 0);

  semsim::QueryResponse resp;
  resp.scores = {0.0, 1.0, 0.5};
  ScoreAudit audit;
  audit.Add(resp);
  EXPECT(audit.scores == 3 && audit.invalid == 0 && audit.above_one == 0);
  resp.scores = {1.25, std::nan(""), -0.5, INFINITY};
  audit.Add(resp);
  EXPECT(audit.scores == 7 && audit.invalid == 3 && audit.above_one == 1);
  EXPECT(audit.max_score == 1.25);
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestSameSeedSameStreams();
  servebench::TestPercentileNeedsTenBeyond();
  servebench::TestSelfTimeArithmetic();
  servebench::TestCorruptedReplayFails();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("servebench_test: all checks passed\n");
  return 0;
}
