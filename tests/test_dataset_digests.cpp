// Golden instance-digest regression suite: every registry dataset's
// paper-default instances (master seed 42, indices 0..3) must digest to the
// values pinned from the seed configuration in dataset_digests.inc through
// the DatasetRegistry spec path, proving the descriptor-based registry
// generates bit-identical graphs and networks.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dataset_digest.hpp"
#include "datasets/registry.hpp"

namespace {

using namespace saga;

struct GoldenDigest {
  const char* dataset;
  std::size_t index;
  std::uint64_t digest;
};

const GoldenDigest kGoldenDigests[] = {
#include "dataset_digests.inc"
};

constexpr std::uint64_t kMasterSeed = 42;

TEST(DatasetDigests, SpecPathMatchesSeedPins) {
  auto& registry = datasets::DatasetRegistry::instance();
  for (const auto& pin : kGoldenDigests) {
    const auto source = registry.make(pin.dataset, kMasterSeed);
    EXPECT_EQ(saga::testing::instance_digest(source->generate(pin.index)), pin.digest)
        << pin.dataset << "[" << pin.index << "] via DatasetRegistry::make";
  }
}

TEST(DatasetDigests, SeedSpecParamOverridesMasterSeed) {
  // `blast?seed=42` under any master seed equals plain blast under 42.
  auto& registry = datasets::DatasetRegistry::instance();
  const auto pinned = registry.make("blast?seed=42", 999);
  const auto direct = registry.make("blast", kMasterSeed);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(saga::testing::instance_digest(pinned->generate(i)),
              saga::testing::instance_digest(direct->generate(i)))
        << i;
  }
}

TEST(DatasetDigests, ExplicitDefaultParametersStayBitIdentical) {
  // Spelling out a default-valued parameter must not change the stream:
  // zero/default knobs fall through to the paper's draws.
  auto& registry = datasets::DatasetRegistry::instance();
  const std::pair<const char*, const char*> equivalents[] = {
      {"montage", "montage?min_nodes=4&max_nodes=12"},
      {"in_trees", "in_trees?levels=0"},
      {"etl", "etl?edge=0"},
  };
  for (const auto& [name, spec] : equivalents) {
    const auto a = registry.make(name, kMasterSeed);
    const auto b = registry.make(spec, kMasterSeed);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(saga::testing::instance_digest(a->generate(i)),
                saga::testing::instance_digest(b->generate(i)))
          << spec << "[" << i << "]";
    }
  }
}

TEST(DatasetDigests, PinsCoverEveryTable2Dataset) {
  std::vector<std::string> pinned;
  for (const auto& pin : kGoldenDigests) {
    if (pinned.empty() || pinned.back() != pin.dataset) pinned.emplace_back(pin.dataset);
  }
  EXPECT_EQ(pinned, datasets::DatasetRegistry::instance().names("table2"));
}

}  // namespace
