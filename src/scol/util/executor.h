// Pluggable execution strategy for per-vertex loops.
//
// Round-based LOCAL algorithms spend nearly all their time in "for every
// vertex, compute something from the previous round's states" loops. An
// Executor abstracts how such a loop runs: SerialExecutor is the plain
// loop; ThreadPoolExecutor splits the index range into contiguous chunks
// and runs them on a ThreadPool. Because every strategy partitions the
// SAME index range and bodies write only to their own indices, results are
// bit-identical across executors — test_engine_parallel asserts this for
// the round seam (local/rounds.h) and every kernel run through it.
//
// APIs take `const Executor*` defaulted to nullptr, which means "serial";
// callers opt into parallelism by passing a ThreadPoolExecutor. Executors
// are stateless from the caller's perspective and safe to share across
// calls (not across concurrent calls for ThreadPoolExecutor, whose pool is
// not reentrant).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>

#include "scol/util/thread_pool.h"

namespace scol {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of threads a parallel region may use (1 for serial).
  virtual int concurrency() const = 0;

  /// Invokes body(begin, end) over disjoint ranges exactly covering
  /// [0, n), in unspecified order and possibly concurrently. The body must
  /// only write to state owned by its own indices.
  virtual void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const = 0;
};

class SerialExecutor final : public Executor {
 public:
  int concurrency() const override { return 1; }
  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override {
    if (n > 0) body(0, n);
  }
};

/// Loops shorter than this many indices are not worth a pool dispatch.
inline constexpr std::size_t kDefaultGrain = 256;

class ThreadPoolExecutor final : public Executor {
 public:
  /// threads <= 0 selects hardware concurrency. `grain` is the minimum
  /// number of indices per chunk; small loops stay effectively serial so
  /// the pool never costs more than it saves.
  explicit ThreadPoolExecutor(int threads = 0,
                              std::size_t grain = kDefaultGrain)
      : pool_(threads), grain_(std::max<std::size_t>(grain, 1)) {}

  int concurrency() const override { return pool_.num_threads(); }

  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override {
    if (n == 0) return;
    // 4 chunks per thread gives dynamic claiming room to balance uneven
    // per-vertex costs without shredding cache locality. Flooring the
    // chunk count at n / grain keeps every chunk >= grain indices, so
    // loops near the grain stay effectively serial.
    const std::size_t chunks = std::clamp<std::size_t>(
        n / grain_, 1, static_cast<std::size_t>(pool_.num_threads()) * 4);
    const std::size_t chunk_size = (n + chunks - 1) / chunks;
    pool_.run_chunks(chunks, [&](std::size_t i) {
      const std::size_t begin = i * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      if (begin < end) body(begin, end);
    });
  }

 private:
  mutable ThreadPool pool_;
  std::size_t grain_;
};

/// The process-wide serial executor ("no executor given").
inline const Executor& serial_executor() {
  static const SerialExecutor serial;
  return serial;
}

/// Resolves the `const Executor* exec = nullptr` API convention.
inline const Executor& resolve_executor(const Executor* exec) {
  return exec != nullptr ? *exec : serial_executor();
}

/// Convenience: runs body(i) for every i in [0, n) under `exec`.
template <typename Body>
void parallel_for_index(const Executor& exec, std::size_t n, Body&& body) {
  exec.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Smallest index in [0, n) satisfying `pred`, or n if none — identical
/// under every executor (min-reduction across chunks; a chunk stops at its
/// first hit, since later indices in it cannot beat that one). `pred` must
/// be safe to invoke concurrently for distinct indices.
template <typename Pred>
std::size_t parallel_min_index(const Executor& exec, std::size_t n,
                               Pred&& pred) {
  std::atomic<std::size_t> best{n};
  exec.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (pred(i)) {
        std::size_t cur = best.load(std::memory_order_relaxed);
        while (i < cur && !best.compare_exchange_weak(
                              cur, i, std::memory_order_relaxed)) {
        }
        return;
      }
    }
  });
  return best.load(std::memory_order_relaxed);
}

}  // namespace scol
