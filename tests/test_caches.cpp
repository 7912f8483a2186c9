#include "cache/writeback_buffer.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace hcsim {
namespace {

// ---------------- WritebackBuffer ----------------

TEST(WritebackBuffer, InvalidDrainRateThrows) {
  EXPECT_THROW(WritebackBuffer(100, 0.0), std::invalid_argument);
  EXPECT_THROW(WritebackBuffer(100, -1.0), std::invalid_argument);
}

TEST(WritebackBuffer, AbsorbsUpToCapacity) {
  WritebackBuffer wb(1000, 10.0);
  EXPECT_EQ(wb.absorb(600, 0.0), 0u);
  EXPECT_EQ(wb.dirty(0.0), 600u);
  EXPECT_EQ(wb.absorb(600, 0.0), 200u);  // 200 overflow
  EXPECT_EQ(wb.dirty(0.0), 1000u);
}

TEST(WritebackBuffer, DrainsOverTime) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(500, 0.0);
  EXPECT_EQ(wb.dirty(10.0), 400u);
  EXPECT_EQ(wb.dirty(50.0), 0u);
}

TEST(WritebackBuffer, DrainFreesRoomForLaterWrites) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(1000, 0.0);
  // At t=50, 500 have drained.
  EXPECT_EQ(wb.absorb(600, 50.0), 100u);
}

TEST(WritebackBuffer, FsyncDelayIsDirtyOverRate) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(500, 0.0);
  EXPECT_DOUBLE_EQ(wb.fsyncDelay(0.0), 50.0);
  EXPECT_DOUBLE_EQ(wb.fsyncDelay(25.0), 25.0);
  EXPECT_DOUBLE_EQ(wb.fsyncDelay(100.0), 0.0);
}

TEST(WritebackBuffer, DrainCompleteTime) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(100, 0.0);
  EXPECT_DOUBLE_EQ(wb.drainCompleteTime(0.0), 10.0);
}

TEST(WritebackBuffer, ResetDropsDirty) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(500, 0.0);
  wb.reset(1.0);
  EXPECT_EQ(wb.dirty(1.0), 0u);
}

TEST(WritebackBuffer, SetDrainRateValidates) {
  WritebackBuffer wb(1000, 10.0);
  wb.setDrainRate(20.0);
  EXPECT_DOUBLE_EQ(wb.drainRate(), 20.0);
  EXPECT_THROW(wb.setDrainRate(0.0), std::invalid_argument);
}

TEST(WritebackBuffer, TimeMovingBackwardIsIgnored) {
  WritebackBuffer wb(1000, 10.0);
  wb.absorb(500, 10.0);
  // Query at an earlier time: no negative drain.
  EXPECT_EQ(wb.dirty(5.0), 500u);
}

}  // namespace
}  // namespace hcsim
