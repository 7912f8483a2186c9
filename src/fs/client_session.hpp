#pragma once
// ClientSession — the client-side retry layer over a FileSystemModel.
// WorkloadRunner submits every generator's whole requests through one
// (workload_runner.hpp); without enableRetry a request passes straight
// through to the model.
//
// With retry enabled (hcsim::chaos), each request races a timeout: if
// the storage model has not completed it within the deadline — an op
// stranded on a failed component stalls at rate 0 — the client gives up
// on that attempt, waits an exponential backoff, and re-submits fresh.
// The re-submitted attempt routes over whatever is alive *now*, so
// retries are charged to the surviving capacity. A late completion of
// an abandoned attempt is swallowed (the bytes still moved through the
// network — exactly the duplicate work a real timed-out-but-delivered
// RPC costs). After `maxRetries` unsuccessful re-submissions the op
// fails: the callback fires with IoResult::failed set and 0 bytes.
//
// Flow classes (hcsim::scale): a request with `members = N` is ONE op
// of this session's stream, whatever N is. The timeout, the settled
// flag, the backoff wait and every counter (retries, failedOps,
// lateCompletions) operate per class op — a timed-out class re-submits
// once and bills one retry, never N. Re-submission preserves the member
// count, and a class of size 1 is exactly the legacy path.

#include <cstdint>
#include <functional>
#include <memory>

#include "config/range.hpp"
#include "fs/file_system_model.hpp"

namespace hcsim {

/// Client-side timeout/retry/backoff parameters.
struct RetryPolicy {
  Seconds timeout = 30.0;          ///< per-attempt completion deadline
  std::size_t maxRetries = 4;      ///< re-submissions after the first attempt
  Seconds backoffBase = 0.25;      ///< wait before the first retry
  double backoffMultiplier = 2.0;  ///< backoffBase * mult^(retry-1)
};

/// A spec's "retry" object.
template <class IO>
void fields(IO& io, RetryPolicy& p) {
  io("timeoutSec", p.timeout, kPositive);
  io("maxRetries", p.maxRetries, kWhole);
  io("backoffBaseSec", p.backoffBase, kNonNegative);
  io("backoffMultiplier", p.backoffMultiplier, kAtLeastOne);
}

class ClientSession {
 public:
  explicit ClientSession(FileSystemModel& fs) : fs_(&fs) {}

  /// Arm the timeout/retry/backoff path for every subsequent request.
  /// The session must outlive all pending requests. Without this call
  /// requests pass straight through to the model, byte-identically to
  /// the pre-retry behaviour.
  void enableRetry(Simulator& sim, RetryPolicy policy) {
    retrySim_ = &sim;
    policy_ = policy;
  }

  /// Retry-layer counters (0 until enableRetry).
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failedOps() const { return failedOps_; }
  std::uint64_t lateCompletions() const { return lateCompletions_; }

  /// Submit a fully-formed request through the retry layer, as given.
  /// Without retry this is a straight pass-through to the model —
  /// byte-identical to calling FileSystemModel::submit.
  void submitRequest(const IoRequest& req, std::function<void(const IoResult&)> done);

 private:
  void submitAttempt(const IoRequest& req, std::size_t attempt, SimTime opStart,
                     std::shared_ptr<IoCallback> done);

  FileSystemModel* fs_;

  Simulator* retrySim_ = nullptr;  ///< non-null once enableRetry was called
  RetryPolicy policy_{};
  std::uint64_t retries_ = 0;
  std::uint64_t failedOps_ = 0;
  std::uint64_t lateCompletions_ = 0;
};

}  // namespace hcsim
