// CancelToken: cooperative cancellation for long-running scans.
//
// A token is a sticky flag plus an optional absolute wall deadline. The
// server arms one per query from the client's deadline_ms and threads a
// pointer through Engine::Run into the shard loops of every miner and
// the BasisFreq scan; each loop polls `Cancelled()` once per chunk of
// work and unwinds with StatusCode::kCancelled when it fires. Polling
// is cheap — one relaxed atomic load, and a clock read only until the
// deadline first trips (the flag is sticky, so a fired token never
// reads the clock again).
//
// Cancellation is advisory, never preemptive: a scan stops at the next
// chunk boundary, so budget semantics stay simple — a query cancelled
// after its BudgetLease was acquired charges the full reservation via
// the normal aborted-lease path (engine/accountant.h), exactly like any
// other mid-run failure.
#ifndef PRIVBASIS_COMMON_CANCEL_H_
#define PRIVBASIS_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace privbasis {

class CancelToken {
 public:
  /// A token that only fires on an explicit Cancel() call.
  CancelToken() = default;

  /// A token that additionally fires once `deadline` passes.
  explicit CancelToken(std::chrono::steady_clock::time_point deadline)
      : deadline_(deadline), has_deadline_(true) {}

  /// Convenience: a deadline `ms` milliseconds from now.
  static CancelToken AfterMs(int64_t ms) {
    return CancelToken(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms));
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token. Sticky; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once the token has fired (explicitly or by deadline).
  bool Cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True when the token carries a wall deadline (vs explicit-only).
  bool has_deadline() const { return has_deadline_; }

  /// The absolute deadline; meaningless unless has_deadline(). The query
  /// batcher reads this to give a fused scan the LATEST of its members'
  /// deadlines (core/batch_exec.cc).
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// OK until the token fires, then kCancelled.
  Status Check() const {
    if (Cancelled()) {
      return Status::Cancelled(
          has_deadline_ ? "query deadline expired mid-run"
                        : "query cancelled");
    }
    return Status::OK();
  }

 private:
  // Sticky-flag promotion from the deadline happens inside const
  // Cancelled(); benign race — every writer stores true.
  mutable std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Null-safe poll for the `const CancelToken*` plumbed through options
/// structs (nullptr = not cancellable, the overwhelmingly common case).
inline bool IsCancelled(const CancelToken* token) {
  return token != nullptr && token->Cancelled();
}

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_CANCEL_H_
