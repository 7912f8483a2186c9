#include "fs/client_session.hpp"

#include <cmath>
#include <utility>

#include "probe/flight_recorder.hpp"

namespace hcsim {

void ClientSession::submit(Bytes offset, Bytes size, std::uint64_t ops, AccessPattern pattern,
                           bool fsync, std::function<void(const IoResult&)> done) {
  IoRequest req;
  req.client = client_;
  req.fileId = fileId_;
  req.offset = offset;
  req.bytes = size * ops;
  req.pattern = pattern;
  req.fsync = fsync;
  req.ops = ops;
  if (retrySim_ == nullptr) {
    fs_->submit(req, std::move(done));
    return;
  }
  submitAttempt(req, 0, retrySim_->now(), std::make_shared<IoCallback>(std::move(done)));
}

void ClientSession::submitAttempt(const IoRequest& req, std::size_t attempt, SimTime opStart,
                                  std::shared_ptr<IoCallback> done) {
  Simulator& sim = *retrySim_;
  // One settle flag per attempt: whichever of {completion, timeout}
  // fires first wins; the loser sees the flag and backs off. Records
  // carry the request's client, not the session's: WorkloadRunner
  // submits every rank's requests through an anonymous session. A flow
  // class (req.members > 1) shares one flag, one timer and one counter
  // increment across all its members — retries are never double-billed.
  auto settled = std::make_shared<bool>(false);

  const EventId timer = sim.schedule(policy_.timeout, [this, req, attempt, opStart, done,
                                                       settled] {
    if (*settled) return;
    *settled = true;
    probe::FlightRecorder* rec = retrySim_->recorder();
    if (attempt >= policy_.maxRetries) {
      ++failedOps_;
      if (rec) {
        rec->record(retrySim_->now(), probe::RecordKind::OpFailed,
                    probe::clientSubject(req.client.node, req.client.proc),
                    static_cast<double>(attempt));
      }
      IoResult r;
      r.startTime = opStart;
      r.endTime = retrySim_->now();
      r.bytes = 0;
      r.failed = true;
      if (*done) (*done)(r);
      return;
    }
    ++retries_;
    if (rec) {
      rec->record(retrySim_->now(), probe::RecordKind::RetryTimeout,
                  probe::clientSubject(req.client.node, req.client.proc),
                  static_cast<double>(attempt));
    }
    const Seconds wait = policy_.backoffBase * std::pow(policy_.backoffMultiplier,
                                                        static_cast<double>(attempt));
    retrySim_->schedule(wait, [this, req, attempt, opStart, done] {
      // Fresh submission: the model routes it over whatever is alive now.
      submitAttempt(req, attempt + 1, opStart, done);
    });
  });

  fs_->submit(req, [this, who = req.client, timer, opStart, done, settled](const IoResult& r) {
    if (*settled) {
      // The attempt was abandoned at its deadline; its bytes moved, but
      // the op has already been retried (or failed). Swallow.
      ++lateCompletions_;
      if (probe::FlightRecorder* rec = retrySim_->recorder()) {
        rec->record(retrySim_->now(), probe::RecordKind::LateCompletion,
                    probe::clientSubject(who.node, who.proc), 0.0);
      }
      return;
    }
    *settled = true;
    retrySim_->cancel(timer);
    IoResult out = r;
    out.startTime = opStart;  // charge the backoff waits to the op
    if (*done) (*done)(out);
  });
}

void ClientSession::submitRequest(const IoRequest& req, std::function<void(const IoResult&)> done) {
  if (retrySim_ == nullptr) {
    fs_->submit(req, std::move(done));
    return;
  }
  submitAttempt(req, 0, retrySim_->now(), std::make_shared<IoCallback>(std::move(done)));
}

void ClientSession::write(Bytes size, bool fsync, std::function<void(const IoResult&)> done) {
  submit(cursor_, size, 1, AccessPattern::SequentialWrite, fsync, std::move(done));
  cursor_ += size;
}

void ClientSession::read(Bytes size, std::function<void(const IoResult&)> done) {
  submit(cursor_, size, 1, AccessPattern::SequentialRead, false, std::move(done));
  cursor_ += size;
}

void ClientSession::readAt(Bytes offset, Bytes size, std::function<void(const IoResult&)> done) {
  submit(offset, size, 1, AccessPattern::RandomRead, false, std::move(done));
}

void ClientSession::writeAt(Bytes offset, Bytes size, bool fsync,
                            std::function<void(const IoResult&)> done) {
  submit(offset, size, 1, AccessPattern::RandomWrite, fsync, std::move(done));
}

void ClientSession::writeRun(Bytes size, std::uint64_t ops, bool fsync,
                             std::function<void(const IoResult&)> done) {
  submit(cursor_, size, ops, AccessPattern::SequentialWrite, fsync, std::move(done));
  cursor_ += size * ops;
}

void ClientSession::readRun(Bytes size, std::uint64_t ops,
                            std::function<void(const IoResult&)> done) {
  submit(cursor_, size, ops, AccessPattern::SequentialRead, false, std::move(done));
  cursor_ += size * ops;
}

void ClientSession::randomReadRun(Bytes size, std::uint64_t ops,
                                  std::function<void(const IoResult&)> done) {
  submit(0, size, ops, AccessPattern::RandomRead, false, std::move(done));
}

}  // namespace hcsim
