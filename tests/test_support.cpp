// Support utilities: deterministic RNG, the CHECK/throw machinery and the
// warn-handler hook.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace cortex {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
    const float g = rng.next_float_in(2.0f, 4.0f);
    EXPECT_GE(g, 2.0f);
    EXPECT_LT(g, 4.0f);
  }
}

TEST(Rng, GaussianRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, FillUniformCoversRange) {
  Rng rng(13);
  float buf[256];
  rng.fill_uniform(buf, 256, -2.0f, 2.0f);
  float lo = 1e9f, hi = -1e9f;
  for (float v : buf) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, -2.0f);
  EXPECT_LT(hi, 2.0f);
  EXPECT_LT(lo, -1.0f);  // actually spreads across the range
  EXPECT_GT(hi, 1.0f);
}

TEST(Logging, CheckThrowsCortexErrorWithContext) {
  try {
    CORTEX_CHECK(1 == 2) << "custom message " << 42;
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Logging, CheckPassesSilently) {
  EXPECT_NO_THROW(CORTEX_CHECK(true) << "never evaluated");
}

// The warn handler is a plain function pointer (handlers must be
// signal-safe to swap atomically), so the capture buffer lives at
// namespace scope rather than in a lambda capture.
std::string* g_captured_warning = nullptr;

void capture_warning(const std::string& msg) {
  if (g_captured_warning != nullptr) *g_captured_warning = msg;
}

TEST(Logging, WarnHandlerCanBeSwappedAndRestored) {
  std::string captured;
  g_captured_warning = &captured;
  support::WarnHandler prev = support::set_warn_handler(&capture_warning);
  EXPECT_EQ(prev, nullptr);  // default handler was installed
  support::warn("plumbing check");
  EXPECT_EQ(captured, "plumbing check");
  EXPECT_EQ(support::set_warn_handler(nullptr), &capture_warning);
  g_captured_warning = nullptr;
}

}  // namespace
}  // namespace cortex
