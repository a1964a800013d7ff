// Minimal persistent thread pool with a chunked parallel-for.
//
// The pool exists to make synchronous LOCAL rounds (Rounds::round) fast:
// one round is an embarrassingly parallel map over vertices (every node
// reads only the previous round's states), so a simple chunk-claiming
// scheme — no work stealing, no per-task allocation — captures nearly all
// the available speedup. The calling thread always participates, so a
// pool of 1 thread degenerates to a plain serial loop and spawns nothing.
//
// Determinism: chunks are disjoint index ranges and workers write only to
// their own chunk's outputs, so results are bit-identical regardless of how
// chunks land on threads. Exceptions thrown by chunk bodies are captured
// and the first one (by chunk order) is rethrown on the calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "scol/util/check.h"

namespace scol {

/// The most threads a thread count from outside may ask for: scol-cli
/// --threads and --jobs, scol-serve --jobs, scol-bench-load --jobs and
/// the `file:threads=` scenario key. Each starts that many OS threads.
inline constexpr int kMaxThreads = 1024;

class ThreadPool {
 public:
  /// threads <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0) {
    if (threads <= 0)
      threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
    num_threads_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 0; i + 1 < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int num_threads() const { return num_threads_; }

  /// Invokes chunk(i) for every i in [0, num_chunks), distributing chunks
  /// over the pool (calling thread included) and blocking until all are
  /// done. Chunks are claimed dynamically, so uneven chunk costs balance.
  /// Not reentrant: chunk bodies must not call run_chunks on this pool.
  void run_chunks(std::size_t num_chunks,
                  const std::function<void(std::size_t)>& chunk) {
    if (num_chunks == 0) return;
    if (num_chunks == 1 || workers_.empty()) {
      for (std::size_t i = 0; i < num_chunks; ++i) chunk(i);
      return;
    }
    // The job lives on the heap and is shared with every worker that picks
    // it up, so a worker waking after completion only touches a dead (but
    // alive) job. `remaining` counts chunks not yet fully accounted for;
    // every participant merges its errors before subtracting, so when it
    // reaches zero all side effects of all chunks are visible.
    auto job = std::make_shared<Job>();
    job->chunk = &chunk;
    job->num_chunks = num_chunks;
    job->remaining = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      SCOL_CHECK(job_ == nullptr, + "ThreadPool::run_chunks is not reentrant");
      job_ = job;
      ++generation_;
    }
    job_cv_.notify_all();
    work_on(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->remaining == 0; });
      job_ = nullptr;
    }
    if (job->first_error) std::rethrow_exception(job->first_error);
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* chunk = nullptr;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::size_t remaining = 0;  // guarded by pool mutex once published
    std::size_t error_chunk = 0;
    std::exception_ptr first_error;
  };

  // Claims and runs chunks until the job is exhausted; records the first
  // error by chunk index so failures are deterministic.
  void work_on(Job& job) {
    std::size_t ran = 0;
    std::exception_ptr local_error;
    std::size_t local_error_chunk = 0;
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.num_chunks) break;
      ++ran;
      try {
        (*job.chunk)(i);
      } catch (...) {
        if (!local_error) {
          local_error = std::current_exception();
          local_error_chunk = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (local_error &&
        (!job.first_error || local_error_chunk < job.error_chunk)) {
      job.first_error = local_error;
      job.error_chunk = local_error_chunk;
    }
    job.remaining -= ran;
    if (job.remaining == 0) done_cv_.notify_all();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job != nullptr) work_on(*job);
    }
  }

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace scol
