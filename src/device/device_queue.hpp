#pragma once
// DeviceQueue — a c-server FIFO service center on the simulator.
//
// Used for latency-bound operations that serialize at a device or server:
// fsync commits, metadata lookups, NFS RPC slots. Bandwidth-bound
// transfers go through the FlowNetwork instead.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"

namespace hcsim {

class DeviceQueue {
 public:
  /// `servers` = number of operations serviced concurrently (queue depth).
  DeviceQueue(Simulator& sim, std::size_t servers);

  DeviceQueue(const DeviceQueue&) = delete;
  DeviceQueue& operator=(const DeviceQueue&) = delete;
  /// Moves only before the first submit (a service event holds `this`):
  /// models keep their queues in a vector sized once, up front.
  DeviceQueue(DeviceQueue&&) = default;

  /// Enqueue an operation taking `serviceTime` once a server is free;
  /// `onDone` fires at completion.
  void submit(Seconds serviceTime, std::function<void()> onDone);

  std::size_t queued() const { return waiting_; }
  std::size_t busy() const { return busy_; }
  std::size_t servers() const { return servers_; }

  /// Operations completed over the queue's lifetime.
  std::uint64_t completed() const { return completed_; }

 private:
  struct Pending {
    Seconds serviceTime = 0.0;
    std::function<void()> onDone;
  };

  void startService(Seconds serviceTime, std::function<void()> onDone);
  void onServerFree();

  Simulator& sim_;
  std::size_t servers_;
  std::size_t busy_ = 0;
  std::uint64_t completed_ = 0;
  // The waiting ops, a FIFO ring: `waiting_` of them from `head_`. A
  // queue that never backs up allocates nothing; the ring is sized when
  // the first op waits, doubles (a power of two) when full, and reuses
  // its slots after that.
  std::vector<Pending> ring_;
  std::size_t head_ = 0;
  std::size_t waiting_ = 0;
};

}  // namespace hcsim
