#ifndef SEMSIM_COMMON_THREAD_POOL_H_
#define SEMSIM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

/// Persistent worker pool for the library's data-parallel sweeps (fixed
/// point iterations, walk sampling) and the batch query engine. The paper
/// notes the random-walk approach "can be trivially parallelized"
/// (Sec. 6); this pool makes the triviality cheap to invoke: workers are
/// spawned once and parked on a condition variable between calls, so a
/// ParallelFor costs a wakeup instead of N thread spawns — which matters
/// once the unit of work is a single query (tens of microseconds) rather
/// than a whole index build.
///
/// Scheduling is dynamic: the range is split into ~8 chunks per thread
/// and threads claim chunks from a shared atomic cursor, so skewed
/// per-item cost (a high-degree query next to a sem-pruned one) cannot
/// idle the pool the way the old static partition did. Chunks are
/// contiguous and processed left to right within each claimant, so
/// callers that write disjoint per-item slots stay deterministic
/// regardless of the thread count.
///
/// Thread-count resolution contract: `num_threads <= 0` resolves to
/// std::thread::hardware_concurrency() (or 1 when the runtime reports 0);
/// positive values are taken as-is, never truncated. The resolved count
/// is exposed through num_threads() so harnesses can report it.
class ThreadPool {
 public:
  /// Resolution rule above, usable without constructing a pool.
  static int ResolveThreadCount(int requested) {
    if (requested > 0) return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  explicit ThreadPool(int num_threads = 1)
      : num_threads_(ResolveThreadCount(num_threads)) {
    workers_.reserve(static_cast<size_t>(num_threads_ - 1));
    for (int t = 1; t < num_threads_; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// The resolved worker count (calling thread included).
  int num_threads() const { return num_threads_; }

  /// Runs chunk_fn(lo, hi) over contiguous, non-overlapping chunks
  /// covering [begin, end). The calling thread participates; the call
  /// blocks until every chunk finished. chunk_fn must not touch state
  /// shared across chunks without its own synchronization. Concurrent
  /// ParallelFor calls from distinct threads serialize; a nested call
  /// from inside a chunk runs inline on the calling thread (no
  /// deadlock, no extra parallelism).
  ///
  /// `stop` is the cooperative chunk hook of the serving layer: when
  /// given, the token is polled before each chunk body and fired tokens
  /// skip the remaining bodies (skipped chunks still count toward the
  /// completion barrier, so the call returns normally — the caller
  /// decides what a partially filled output means). An unfired token
  /// has no effect on scheduling or results.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& chunk_fn,
                   const CancelToken* stop = nullptr) const {
    SEMSIM_CHECK(begin <= end);
    size_t total = end - begin;
    if (total == 0) return;
    Metrics().parallel_for->Add(1);
    if (num_threads_ == 1 || total == 1 || InPoolRegion()) {
      if (stop == nullptr || !stop->ShouldStop()) chunk_fn(begin, end);
      return;
    }
    std::lock_guard<std::mutex> serialize(run_mu_);
    Metrics().active_jobs->Add(1);
    size_t num_chunks =
        std::min(total, static_cast<size_t>(num_threads_) * 8);
    Metrics().queue_depth->Add(static_cast<double>(num_chunks));
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_begin_ = begin;
      job_end_ = end;
      job_chunk_size_ = (total + num_chunks - 1) / num_chunks;
      job_num_chunks_ = num_chunks;
      job_fn_ = &chunk_fn;
      job_stop_ = stop;
      next_chunk_.store(0, std::memory_order_relaxed);
      completed_chunks_.store(0, std::memory_order_relaxed);
      ++epoch_;
    }
    job_cv_.notify_all();
    RunChunks();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this, num_chunks] {
      return active_workers_ == 0 &&
             completed_chunks_.load(std::memory_order_acquire) == num_chunks;
    });
    job_fn_ = nullptr;
    job_stop_ = nullptr;
    Metrics().active_jobs->Sub(1);
  }

 private:
  // Handles into the global registry, resolved once per process. Chunk
  // granularity is coarse (~8 chunks per thread per job), so the per-chunk
  // clock reads cost nothing next to the work inside a chunk; the inline
  // single-thread path pays only one relaxed counter add.
  struct MetricSites {
    Counter* parallel_for;
    Counter* chunks;
    Histogram* chunk_seconds;
    Gauge* queue_depth;
    Gauge* active_jobs;
  };
  static const MetricSites& Metrics() {
    static const MetricSites sites = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return MetricSites{
          reg.GetCounter("semsim_pool_parallel_for_total"),
          reg.GetCounter("semsim_pool_chunks_total"),
          reg.GetHistogram("semsim_pool_chunk_seconds"),
          reg.GetGauge("semsim_pool_queue_depth"),
          reg.GetGauge("semsim_pool_active_jobs"),
      };
    }();
    return sites;
  }

  static bool& InPoolRegionFlag() {
    thread_local bool in_region = false;
    return in_region;
  }
  static bool InPoolRegion() { return InPoolRegionFlag(); }

  // Claims and executes chunks of the current job until the cursor is
  // exhausted. Called by the submitting thread and by woken workers;
  // both read the job fields only after synchronizing on mu_.
  void RunChunks() const {
    InPoolRegionFlag() = true;
    while (true) {
      size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= job_num_chunks_) break;
      // Delay-only site: staggers chunk dispatch so races between
      // workers and cancellation/shutdown get a wider window.
      SEMSIM_FAILPOINT("thread_pool/dispatch");
      size_t lo = job_begin_ + c * job_chunk_size_;
      size_t hi = std::min(job_end_, lo + job_chunk_size_);
      if (job_stop_ == nullptr || !job_stop_->ShouldStop()) {
        Timer chunk_timer;
        (*job_fn_)(lo, hi);
        Metrics().chunk_seconds->Observe(chunk_timer.ElapsedSeconds());
      }
      Metrics().chunks->Add(1);
      Metrics().queue_depth->Sub(1);
      completed_chunks_.fetch_add(1, std::memory_order_release);
    }
    InPoolRegionFlag() = false;
  }

  void WorkerLoop() const {
    uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      job_cv_.wait(lock,
                   [this, seen_epoch] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      // A worker that wakes only after the submitter saw every chunk done
      // (and cleared job_fn_) must not join that job: the submitter no
      // longer waits for it and may already be writing the next job's
      // fields.
      if (job_fn_ == nullptr) continue;
      ++active_workers_;
      lock.unlock();
      RunChunks();
      lock.lock();
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Serializes ParallelFor submissions from distinct caller threads.
  mutable std::mutex run_mu_;

  // Job state. Written under mu_ by the submitter before the epoch bump;
  // workers read it only after observing the bump under mu_.
  mutable std::mutex mu_;
  mutable std::condition_variable job_cv_;
  mutable std::condition_variable done_cv_;
  mutable uint64_t epoch_ = 0;
  mutable int active_workers_ = 0;
  mutable bool stop_ = false;
  mutable size_t job_begin_ = 0;
  mutable size_t job_end_ = 0;
  mutable size_t job_chunk_size_ = 0;
  mutable size_t job_num_chunks_ = 0;
  mutable const std::function<void(size_t, size_t)>* job_fn_ = nullptr;
  mutable const CancelToken* job_stop_ = nullptr;
  mutable std::atomic<size_t> next_chunk_{0};
  mutable std::atomic<size_t> completed_chunks_{0};
};

}  // namespace semsim

#endif  // SEMSIM_COMMON_THREAD_POOL_H_
