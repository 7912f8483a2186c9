#include "device/device_queue.hpp"
#include "device/hdd_raid.hpp"
#include "device/ssd.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace hcsim {
namespace {

TEST(AccessPattern, Predicates) {
  EXPECT_TRUE(isRead(AccessPattern::SequentialRead));
  EXPECT_TRUE(isRead(AccessPattern::RandomRead));
  EXPECT_FALSE(isRead(AccessPattern::SequentialWrite));
  EXPECT_FALSE(isRead(AccessPattern::RandomWrite));
  EXPECT_TRUE(isSequential(AccessPattern::SequentialWrite));
  EXPECT_FALSE(isSequential(AccessPattern::RandomWrite));
}

TEST(AccessPattern, ToString) {
  EXPECT_STREQ(toString(AccessPattern::SequentialRead), "seq-read");
  EXPECT_STREQ(toString(AccessPattern::RandomWrite), "rand-write");
}

TEST(SsdSpec, PresetsAreSane) {
  for (const SsdSpec& s :
       {SsdSpec::scm(), SsdSpec::qlc(), SsdSpec::samsung970Pro(), SsdSpec::sasSsd()}) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GT(s.readBandwidth, 0.0);
    EXPECT_GT(s.writeBandwidth, 0.0);
    EXPECT_GT(s.readLatency, 0.0);
    EXPECT_GT(s.randomEfficiency, 0.0);
    EXPECT_LE(s.randomEfficiency, 1.0);
  }
}

TEST(SsdSpec, QlcWritesMuchSlowerThanReads) {
  const SsdSpec qlc = SsdSpec::qlc();
  EXPECT_LT(qlc.writeBandwidth * 4, qlc.readBandwidth);
}

TEST(SsdSpec, ScmLatencyIsUltraLow) {
  // Paper: "100 nanoseconds to 30 microseconds".
  EXPECT_LE(SsdSpec::scm().readLatency, units::usec(30));
  EXPECT_GE(SsdSpec::scm().readLatency, units::nsec(100));
}

TEST(SsdArray, ZeroCountThrows) {
  EXPECT_THROW(SsdArray(SsdSpec::scm(), 0), std::invalid_argument);
}

TEST(SsdArray, LargeRequestsApproachStreamingBandwidth) {
  SsdArray a(SsdSpec::samsung970Pro(), 1);
  const Bandwidth eff = a.effectiveBandwidth(AccessPattern::SequentialRead, units::GiB);
  EXPECT_GT(eff, 0.98 * SsdSpec::samsung970Pro().readBandwidth);
}

TEST(SsdArray, TinyRequestsAreLatencyBound) {
  SsdArray a(SsdSpec::samsung970Pro(), 1);
  const Bandwidth eff = a.effectiveBandwidth(AccessPattern::RandomRead, 4096);
  // IOPS-bound: ~4096 / 80us ~ 51 MB/s, far below 3.5 GB/s streaming.
  EXPECT_LT(eff, 0.05 * SsdSpec::samsung970Pro().readBandwidth);
}

TEST(SsdArray, BandwidthScalesWithCount) {
  SsdArray one(SsdSpec::qlc(), 1);
  SsdArray four(SsdSpec::qlc(), 4);
  EXPECT_NEAR(four.effectiveBandwidth(AccessPattern::SequentialRead, units::MiB),
              4 * one.effectiveBandwidth(AccessPattern::SequentialRead, units::MiB), 1e-6);
}

TEST(SsdArray, RandomNeverBeatsSequential) {
  SsdArray a(SsdSpec::qlc(), 2);
  for (Bytes req : {Bytes{4096}, units::KiB * 64, units::MiB}) {
    EXPECT_LE(a.effectiveBandwidth(AccessPattern::RandomRead, req),
              a.effectiveBandwidth(AccessPattern::SequentialRead, req) + 1e-9);
  }
}

TEST(SsdArray, RequestLatencyByPattern) {
  SsdArray a(SsdSpec::qlc(), 1);
  EXPECT_DOUBLE_EQ(a.requestLatency(AccessPattern::SequentialRead), SsdSpec::qlc().readLatency);
  EXPECT_DOUBLE_EQ(a.requestLatency(AccessPattern::RandomWrite), SsdSpec::qlc().writeLatency);
}

TEST(HddRaid, ValidatesArguments) {
  EXPECT_THROW(HddRaid(HddSpec::nearlineSas(), 0), std::invalid_argument);
  EXPECT_THROW(HddRaid(HddSpec::nearlineSas(), 1, 1.0), std::invalid_argument);
  EXPECT_THROW(HddRaid(HddSpec::nearlineSas(), 1, -0.1), std::invalid_argument);
}

TEST(HddRaid, SequentialReadsStreamAtFullRate) {
  HddRaid r(HddSpec::nearlineSas(), 10, 0.2);
  EXPECT_DOUBLE_EQ(r.effectiveBandwidth(AccessPattern::SequentialRead, units::MiB),
                   10 * HddSpec::nearlineSas().streamBandwidth);
}

TEST(HddRaid, RandomReadsPaySeek) {
  HddRaid r(HddSpec::nearlineSas(), 10, 0.2);
  const Bandwidth seq = r.effectiveBandwidth(AccessPattern::SequentialRead, units::MiB);
  const Bandwidth rnd = r.effectiveBandwidth(AccessPattern::RandomRead, units::MiB);
  // 1 MiB at 250 MB/s = 4.2ms transfer + 8ms seek -> ~1/3 of streaming.
  EXPECT_LT(rnd, 0.5 * seq);
  EXPECT_GT(rnd, 0.2 * seq);
}

TEST(HddRaid, WritesPayParityOverhead) {
  HddRaid r(HddSpec::nearlineSas(), 10, 0.25);
  EXPECT_NEAR(r.effectiveBandwidth(AccessPattern::SequentialWrite, units::MiB),
              0.75 * r.effectiveBandwidth(AccessPattern::SequentialRead, units::MiB), 1e-6);
}

TEST(HddRaid, RandomLatencyIsSeekBound) {
  HddRaid r(HddSpec::nearlineSas(), 4);
  EXPECT_DOUBLE_EQ(r.requestLatency(AccessPattern::RandomRead), HddSpec::nearlineSas().seekTime);
  EXPECT_LT(r.requestLatency(AccessPattern::SequentialRead),
            r.requestLatency(AccessPattern::RandomRead));
}

// Effective bandwidth grows monotonically with request size (property).
class DeviceMonotonicityTest : public ::testing::TestWithParam<Bytes> {};

TEST_P(DeviceMonotonicityTest, LargerRequestsNeverSlower) {
  const Bytes req = GetParam();
  SsdArray ssd(SsdSpec::qlc(), 3);
  HddRaid hdd(HddSpec::nearlineSas(), 12);
  EXPECT_LE(ssd.effectiveBandwidth(AccessPattern::RandomRead, req),
            ssd.effectiveBandwidth(AccessPattern::RandomRead, req * 2) + 1e-9);
  EXPECT_LE(hdd.effectiveBandwidth(AccessPattern::RandomRead, req),
            hdd.effectiveBandwidth(AccessPattern::RandomRead, req * 2) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RequestSizes, DeviceMonotonicityTest,
                         ::testing::Values(4096, 65536, 262144, 1048576, 4194304, 16777216));

TEST(DeviceQueue, ZeroServersThrows) {
  Simulator sim;
  EXPECT_THROW(DeviceQueue(sim, 0), std::invalid_argument);
}

TEST(DeviceQueue, SingleServerSerializes) {
  Simulator sim;
  DeviceQueue q(sim, 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    q.submit(1.0, [&] { done.push_back(sim.now()); });
  }
  EXPECT_EQ(q.busy(), 1u);
  EXPECT_EQ(q.queued(), 2u);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_EQ(q.completed(), 3u);
}

TEST(DeviceQueue, MultipleServersOverlap) {
  Simulator sim;
  DeviceQueue q(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    q.submit(1.0, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
  EXPECT_DOUBLE_EQ(done[2], 2.0);
  EXPECT_DOUBLE_EQ(done[3], 2.0);
}

TEST(DeviceQueue, FifoOrderPreserved) {
  Simulator sim;
  DeviceQueue q(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.submit(0.5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(DeviceQueue, SubmitFromCompletionCallback) {
  Simulator sim;
  DeviceQueue q(sim, 1);
  SimTime secondDone = -1;
  q.submit(1.0, [&] {
    q.submit(1.0, [&] { secondDone = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(secondDone, 2.0);
}

TEST(DeviceQueue, NameAndServersAccessors) {
  Simulator sim;
  DeviceQueue q(sim, 3);
  EXPECT_EQ(q.servers(), 3u);
}

}  // namespace
}  // namespace hcsim
