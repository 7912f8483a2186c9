#include <gtest/gtest.h>

#include "fs/client_session.hpp"
#include "fs/model_support.hpp"
#include "util/units.hpp"

#include <limits>
#include <vector>

namespace hcsim {
namespace {

constexpr Bandwidth kInf = std::numeric_limits<Bandwidth>::infinity();

TEST(OverheadAdjustedCap, NoOverheadReturnsStreamCap) {
  EXPECT_DOUBLE_EQ(overheadAdjustedCap(100.0, 0.0, 1024), 100.0);
  EXPECT_DOUBLE_EQ(overheadAdjustedCap(100.0, -1.0, 1024), 100.0);
}

TEST(OverheadAdjustedCap, ZeroRequestThrows) {
  EXPECT_THROW(overheadAdjustedCap(100.0, 0.1, 0), std::invalid_argument);
}

TEST(OverheadAdjustedCap, HarmonicComposition) {
  // 1 MiB requests, 1 GB/s stream, 1 ms overhead:
  // rate = 1 / (1e-9 + 1e-3/2^20) = ~511 MB/s.
  const Bandwidth r = overheadAdjustedCap(1e9, 1e-3, units::MiB);
  EXPECT_NEAR(r, 1.0 / (1e-9 + 1e-3 / static_cast<double>(units::MiB)), 1.0);
  EXPECT_LT(r, 1e9);
}

TEST(OverheadAdjustedCap, InfiniteStreamCapBecomesPureOverheadRate) {
  // Pure dead-time bound: reqSize / overhead.
  const Bandwidth r = overheadAdjustedCap(kInf, 1e-3, units::MiB);
  EXPECT_NEAR(r, static_cast<double>(units::MiB) / 1e-3, 1.0);
}

TEST(OverheadAdjustedCap, ZeroStreamCapIsZero) {
  EXPECT_DOUBLE_EQ(overheadAdjustedCap(0.0, 1e-3, 1024), 0.0);
}

TEST(OverheadAdjustedCap, LargerRequestsAmortizeBetter) {
  const Bandwidth small = overheadAdjustedCap(1e9, 1e-3, 4096);
  const Bandwidth large = overheadAdjustedCap(1e9, 1e-3, units::MiB);
  EXPECT_LT(small, large);
}

TEST(CompletionBarrier, FiresAfterNCalls) {
  int fired = 0;
  auto cb = completionBarrier(3, [&] { ++fired; });
  cb();
  cb();
  EXPECT_EQ(fired, 0);
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(CompletionBarrier, OverSignalIgnored) {
  int fired = 0;
  auto cb = completionBarrier(1, [&] { ++fired; });
  cb();
  cb();
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(CompletionBarrier, ZeroCountFiresImmediately) {
  int fired = 0;
  completionBarrier(0, [&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

// ---- ClientSession against a recording fake ----

class FakeFs final : public FileSystemModel {
 public:
  const std::string& name() const override { return name_; }
  void beginPhase(const PhaseSpec&) override {}
  void endPhase() override {}
  Bytes totalCapacity() const override { return 0; }
  void submit(const IoRequest& req, IoCallback cb) override {
    requests.push_back(req);
    if (cb) cb(IoResult{0.0, 1.0, req.bytes});
  }
  void submitMeta(const MetaRequest& req, IoCallback cb) override {
    metaRequests.push_back(req);
    if (cb) cb(IoResult{0.0, 0.1, 0});
  }
  std::vector<IoRequest> requests;
  std::vector<MetaRequest> metaRequests;

 private:
  std::string name_ = "fake";
};

TEST(ClientSession, CallbackReceivesResult) {
  FakeFs fs;
  ClientSession s(fs);
  IoRequest req;
  req.client = ClientId{3, 7};
  req.fileId = 42;
  req.offset = 1000;
  req.bytes = 100;
  IoResult got{};
  s.submitRequest(req, [&](const IoResult& r) { got = r; });
  EXPECT_EQ(got.bytes, 100u);
  EXPECT_DOUBLE_EQ(got.elapsed(), 1.0);
  // Without retry the request reaches the model as given.
  ASSERT_EQ(fs.requests.size(), 1u);
  EXPECT_EQ(fs.requests[0].client.node, 3u);
  EXPECT_EQ(fs.requests[0].client.proc, 7u);
  EXPECT_EQ(fs.requests[0].fileId, 42u);
  EXPECT_EQ(fs.requests[0].offset, 1000u);
}

TEST(FileSystemModel, DefaultClientParallelismIsOne) {
  FakeFs fs;
  EXPECT_EQ(fs.clientParallelism(), 1u);
}

}  // namespace
}  // namespace hcsim
