#include "lib/replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fnv.h"

namespace servebench {

using semsim::QueryRequestKind;

void CheckReport::Fail(size_t* counter, const std::string& what) {
  ++*counter;
  if (first_error.empty()) first_error = what;
}

void ScoreAudit::Add(const semsim::QueryResponse& response) {
  auto audit = [this](double s) {
    ++scores;
    if (!std::isfinite(s) || s < 0.0) {
      ++invalid;
      return;
    }
    if (s > 1.0) ++above_one;
    max_score = std::max(max_score, s);
  };
  for (double s : response.scores) audit(s);
  for (const std::vector<double>& row : response.rows) {
    for (double s : row) audit(s);
  }
  for (const std::vector<semsim::Scored>& list : response.topk) {
    for (const semsim::Scored& s : list) audit(s.score);
  }
}

Recorded Recompute(const semsim::BatchQueryEngine& engine,
                   const semsim::EngineSnapshot& snap, const Recorded& rec) {
  Recorded out;
  out.request_index = rec.request_index;
  out.request = rec.request;
  out.version = snap.version();
  const semsim::SemSimMcOptions& mc = snap.options().query.mc;
  if (rec.request.kind == QueryRequestKind::kPairs) {
    out.scores = engine.QueryBatch(snap, rec.request.pairs, mc).values;
  } else {
    out.topk =
        engine.TopKBatch(snap, rec.request.sources, rec.request.k, mc).values;
  }
  return out;
}

bool BitIdentical(const Recorded& a, const Recorded& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (a.scores.size() != b.scores.size() || a.topk.size() != b.topk.size()) {
    return false;
  }
  for (size_t i = 0; i < a.scores.size(); ++i) {
    if (!same(a.scores[i], b.scores[i])) return false;
  }
  for (size_t i = 0; i < a.topk.size(); ++i) {
    if (a.topk[i].size() != b.topk[i].size()) return false;
    for (size_t j = 0; j < a.topk[i].size(); ++j) {
      if (a.topk[i][j].node != b.topk[i][j].node ||
          !same(a.topk[i][j].score, b.topk[i][j].score)) {
        return false;
      }
    }
  }
  return true;
}

void ReplayOn(const semsim::BatchQueryEngine& engine,
              const semsim::EngineSnapshot& snap,
              const std::vector<Recorded>& sample, CheckReport* report) {
  for (const Recorded& rec : sample) {
    if (rec.version != snap.version()) continue;
    ++report->replayed;
    if (!BitIdentical(rec, Recompute(engine, snap, rec))) {
      report->Fail(&report->mismatches,
                   "request " + std::to_string(rec.request_index) +
                       " on version " + std::to_string(rec.version) +
                       " is not bit-identical on replay");
    }
  }
}

uint64_t AnswersFingerprint(const std::vector<Recorded>& answers) {
  uint64_t fp = semsim::kFnv1a64Offset;
  auto mix = [&fp](const void* data, size_t size) {
    fp = semsim::Fnv1a64(data, size, fp);
  };
  for (const Recorded& rec : answers) {
    for (double s : rec.scores) mix(&s, sizeof(s));
    for (const std::vector<semsim::Scored>& list : rec.topk) {
      for (const semsim::Scored& s : list) {
        mix(&s.node, sizeof(s.node));
        mix(&s.score, sizeof(s.score));
      }
    }
  }
  return fp;
}

}  // namespace servebench
