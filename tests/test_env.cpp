#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"

namespace saga {
namespace {

TEST(Env, ScaleDefaultsWhenUnset) {
  unsetenv("SAGA_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 0.25);
}

TEST(Env, ScaleReadsAndClamps) {
  setenv("SAGA_SCALE", "1.0", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  setenv("SAGA_SCALE", "1000", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 100.0);
  setenv("SAGA_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 0.001);
  setenv("SAGA_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 0.25);
  unsetenv("SAGA_SCALE");
}

TEST(Env, SeedDefaultsTo42) {
  unsetenv("SAGA_SEED");
  EXPECT_EQ(env_seed(), 42u);
  setenv("SAGA_SEED", "12345", 1);
  EXPECT_EQ(env_seed(), 12345u);
  unsetenv("SAGA_SEED");
}

TEST(Env, ScaledCountAppliesScaleWithFloor) {
  setenv("SAGA_SCALE", "0.1", 1);
  EXPECT_EQ(scaled_count(1000), 100u);
  EXPECT_EQ(scaled_count(10), 4u);   // floor of 4
  EXPECT_EQ(scaled_count(2), 2u);    // floor capped at paper count
  setenv("SAGA_SCALE", "1.0", 1);
  EXPECT_EQ(scaled_count(1000), 1000u);
  unsetenv("SAGA_SCALE");
}

TEST(Env, ThreadsDefaultsToZero) {
  unsetenv("SAGA_THREADS");
  EXPECT_EQ(env_threads(), 0u);
}

TEST(Env, ThreadsAboveTheLimitFallBackToZero) {
  // "-1" wraps to 2^64 - 1 under strtoull; both stand for a typo, not a
  // request for that many threads.
  for (const char* raw : {"1000000", "-1"}) {
    setenv("SAGA_THREADS", raw, 1);
    EXPECT_EQ(env_threads(), 0u) << raw;
  }
  unsetenv("SAGA_THREADS");
}

}  // namespace
}  // namespace saga
