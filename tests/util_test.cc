#include <gtest/gtest.h>

#include <sstream>

#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace twchase {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad thing");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::NotFound("missing");
  EXPECT_EQ(os.str(), "NotFound: missing");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(ok_value.value(), 42);
  EXPECT_EQ(*ok_value, 42);

  StatusOr<int> error(Status::Internal("boom"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> s(std::string("payload"));
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "payload");
}

TEST(CheckDeathTest, CheckAborts) {
  EXPECT_DEATH({ TWCHASE_CHECK(1 == 2); }, "CHECK failed");
  EXPECT_DEATH({ TWCHASE_CHECK_MSG(false, "context here"); }, "context here");
}

TEST(LoggingTest, RespectsLevel) {
  LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold statements must not evaluate their stream arguments.
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "x";
  };
  TWCHASE_LOG(Debug) << count();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(previous);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  double r = rng.UniformReal();
  EXPECT_GE(r, 0.0);
  EXPECT_LT(r, 1.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

}  // namespace
}  // namespace twchase
