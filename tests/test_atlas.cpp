#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/atlas.hpp"
#include "core/annealer.hpp"
#include "sched/registry.hpp"

namespace saga::analysis {
namespace {

AtlasEntry sample_entry() {
  const auto& registry = SchedulerRegistry::instance();
  AtlasEntry entry;
  entry.target = "HEFT";
  entry.baseline = "FastestNode";
  entry.instance = pisa::random_chain_instance(5);
  entry.ratio = pisa::makespan_ratio(*registry.make("HEFT", kDefaultSchedulerSeed),
                                     *registry.make("FastestNode",
                                                    kDefaultSchedulerSeed), entry.instance);
  return entry;
}

TEST(AtlasEntry, RoundTripsThroughText) {
  const auto entry = sample_entry();
  const auto copy = atlas_entry_from_string(atlas_entry_to_string(entry));
  EXPECT_EQ(copy.target, entry.target);
  EXPECT_EQ(copy.baseline, entry.baseline);
  EXPECT_DOUBLE_EQ(copy.ratio, entry.ratio);
  EXPECT_TRUE(copy.instance.graph.structurally_equal(entry.instance.graph));
}

TEST(AtlasEntry, RejectsMissingMagic) {
  EXPECT_THROW((void)atlas_entry_from_string("saga-instance v1\ntasks 0\n"),
               std::runtime_error);
}

TEST(AtlasEntry, RejectsMissingHeaders) {
  const std::string text =
      "# atlas-entry v1\nsaga-instance v1\ntasks 0\ndeps 0\nnodes 1\nnode 0 1\nlinks 0\n";
  EXPECT_THROW((void)atlas_entry_from_string(text), std::runtime_error);
}

TEST(Atlas, AddReplacesSamePair) {
  Atlas atlas;
  auto entry = sample_entry();
  atlas.add(entry);
  entry.ratio = 99.0;
  atlas.add(entry);
  EXPECT_EQ(atlas.size(), 1u);
  EXPECT_DOUBLE_EQ(atlas.find("HEFT", "FastestNode")->ratio, 99.0);
}

TEST(Atlas, FindDistinguishesDirections) {
  Atlas atlas;
  auto forward = sample_entry();
  atlas.add(forward);
  EXPECT_NE(atlas.find("HEFT", "FastestNode"), nullptr);
  EXPECT_EQ(atlas.find("FastestNode", "HEFT"), nullptr);
  EXPECT_EQ(atlas.find("CPoP", "HEFT"), nullptr);
}

TEST(Atlas, SaveLoadRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "saga_atlas_test";
  std::filesystem::remove_all(dir);

  Atlas atlas;
  atlas.add(sample_entry());
  auto second = sample_entry();
  second.target = "CPoP";
  second.ratio = 2.5;
  atlas.add(second);
  const auto files = atlas.save(dir);
  EXPECT_EQ(files.size(), 2u);

  const Atlas loaded = Atlas::load(dir);
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_NE(loaded.find("CPoP", "FastestNode"), nullptr);
  EXPECT_DOUBLE_EQ(loaded.find("CPoP", "FastestNode")->ratio, 2.5);
  std::filesystem::remove_all(dir);
}

TEST(Atlas, VerifyPassesOnHonestEntries) {
  Atlas atlas;
  atlas.add(sample_entry());
  EXPECT_TRUE(atlas.verify(1e-9).empty());
}

TEST(Atlas, VerifyFlagsTamperedRatios) {
  Atlas atlas;
  auto entry = sample_entry();
  entry.ratio *= 2.0;  // lie about the ratio
  atlas.add(entry);
  const auto mismatches = atlas.verify(1e-6);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("HEFT vs FastestNode"), std::string::npos);
}

TEST(Atlas, LoadRejectsCorruptFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "saga_atlas_corrupt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "bad.saga");
    out << "garbage\n";
  }
  EXPECT_THROW((void)Atlas::load(dir), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Atlas, LoadIgnoresNonSagaFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "saga_atlas_mixed";
  std::filesystem::remove_all(dir);
  Atlas atlas;
  atlas.add(sample_entry());
  atlas.save(dir);
  {
    std::ofstream out(dir / "README.txt");
    out << "not an instance\n";
  }
  EXPECT_EQ(Atlas::load(dir).size(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace saga::analysis
