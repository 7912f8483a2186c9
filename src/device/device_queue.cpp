#include "device/device_queue.hpp"

#include <stdexcept>
#include <utility>

namespace hcsim {

DeviceQueue::DeviceQueue(Simulator& sim, std::size_t servers) : sim_(sim), servers_(servers) {
  if (servers_ == 0) throw std::invalid_argument("DeviceQueue: servers must be > 0");
}

void DeviceQueue::submit(Seconds serviceTime, std::function<void()> onDone) {
  if (busy_ < servers_) return startService(serviceTime, std::move(onDone));
  if (waiting_ == ring_.size()) {
    std::vector<Pending> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < waiting_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }
  Pending& slot = ring_[(head_ + waiting_) & (ring_.size() - 1)];
  slot.serviceTime = serviceTime;
  slot.onDone = std::move(onDone);
  ++waiting_;
}

void DeviceQueue::startService(Seconds serviceTime, std::function<void()> onDone) {
  ++busy_;
  sim_.schedule(serviceTime, [this, done = std::move(onDone)]() mutable {
    ++completed_;
    if (done) done();
    onServerFree();
  });
}

void DeviceQueue::onServerFree() {
  --busy_;
  if (waiting_ == 0) return;
  Pending& next = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --waiting_;
  startService(next.serviceTime, std::move(next.onDone));
}

}  // namespace hcsim
