#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "datasets/chameleon.hpp"
#include "datasets/registry.hpp"
#include "datasets/workflows/blast.hpp"
#include "datasets/workflows/bwa.hpp"
#include "datasets/workflows/cycles.hpp"
#include "datasets/workflows/epigenomics.hpp"
#include "datasets/workflows/genome.hpp"
#include "datasets/workflows/montage.hpp"
#include "datasets/workflows/seismology.hpp"
#include "datasets/workflows/soykb.hpp"
#include "datasets/workflows/srasearch.hpp"

namespace saga {
namespace {

using namespace saga::workflows;

TEST(Chameleon, LinksAreInfinite) {
  const Network net = datasets::chameleon_network(1);
  for (NodeId a = 0; a < net.node_count(); ++a) {
    for (NodeId b = a + 1; b < net.node_count(); ++b) {
      EXPECT_TRUE(std::isinf(net.strength(a, b)));
    }
  }
}

TEST(Chameleon, SpeedsNearHomogeneous) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Network net = datasets::chameleon_network(seed);
    EXPECT_GE(net.node_count(), 4u);
    EXPECT_LE(net.node_count(), 12u);
    for (NodeId v = 0; v < net.node_count(); ++v) {
      EXPECT_GE(net.speed(v), 0.5);
      EXPECT_LE(net.speed(v), 1.5);
    }
  }
}

TEST(Blast, ForkJoinStructure) {
  Rng rng(1);
  const TaskGraph g = make_blast_graph(rng);
  // One split source; two merge sinks.
  ASSERT_EQ(g.sources().size(), 1u);
  ASSERT_EQ(g.sinks().size(), 2u);
  const TaskId split = g.sources()[0];
  EXPECT_EQ(g.name(split), "split_fasta");
  const std::size_t shards = g.successors(split).size();
  EXPECT_GE(shards, 8u);
  EXPECT_LE(shards, 24u);
  // Every shard feeds both merge tasks.
  for (TaskId sink : g.sinks()) EXPECT_EQ(g.predecessors(sink).size(), shards);
  EXPECT_EQ(g.task_count(), shards + 3);
}

TEST(Bwa, TwoHeadsFeedEveryAlignShard) {
  Rng rng(2);
  const TaskGraph g = make_bwa_graph(rng);
  ASSERT_EQ(g.sources().size(), 2u);
  ASSERT_EQ(g.sinks().size(), 1u);
  const std::size_t shards = g.task_count() - 3;
  EXPECT_EQ(g.predecessors(g.sinks()[0]).size(), shards);
  for (TaskId src : g.sources()) EXPECT_EQ(g.successors(src).size(), shards);
}

TEST(Cycles, PipelinesAreIndependentChainsIntoSummary) {
  Rng rng(3);
  const TaskGraph g = make_cycles_graph(rng);
  ASSERT_EQ(g.sinks().size(), 1u);
  const TaskId summary = g.sinks()[0];
  const std::size_t pipelines = g.predecessors(summary).size();
  EXPECT_GE(pipelines, 4u);
  EXPECT_LE(pipelines, 12u);
  EXPECT_EQ(g.task_count(), pipelines * 4 + 1);
  EXPECT_EQ(g.sources().size(), pipelines);
}

TEST(Epigenomics, LanesAreChainsBetweenSplitAndMerge) {
  Rng rng(4);
  const TaskGraph g = make_epigenomics_graph(rng);
  ASSERT_EQ(g.sources().size(), 1u);
  ASSERT_EQ(g.sinks().size(), 1u);
  const TaskId split = g.sources()[0];
  const std::size_t lanes = g.successors(split).size();
  EXPECT_GE(lanes, 4u);
  EXPECT_LE(lanes, 10u);
  // fastqSplit + 4 per lane + mapMerge + maqIndex + pileup.
  EXPECT_EQ(g.task_count(), lanes * 4 + 4);
}

TEST(Genome, AnalysesDependOnBothMergeAndSifting) {
  Rng rng(5);
  const TaskGraph g = make_genome_graph(rng);
  // Find merge and sifting by name.
  TaskId merge = 0, sifting = 0;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.name(t) == "individuals_merge") merge = t;
    if (g.name(t) == "sifting") sifting = t;
  }
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.name(t).starts_with("mutation_overlap") || g.name(t).starts_with("frequency")) {
      EXPECT_TRUE(g.has_dependency(merge, t));
      EXPECT_TRUE(g.has_dependency(sifting, t));
    }
  }
}

TEST(Montage, LayeredMosaicShape) {
  Rng rng(6);
  const TaskGraph g = make_montage_graph(rng);
  ASSERT_EQ(g.sinks().size(), 1u);
  TaskId jpeg = g.sinks()[0];
  EXPECT_EQ(g.name(jpeg), "mJPEG");
  // mProject tasks are the only sources.
  for (TaskId src : g.sources()) EXPECT_TRUE(g.name(src).starts_with("mProject"));
  // Every mDiffFit consumes exactly two projections.
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.name(t).starts_with("mDiffFit")) {
      EXPECT_EQ(g.predecessors(t).size(), 2u);
    }
    if (g.name(t).starts_with("mBackground")) {
      EXPECT_EQ(g.predecessors(t).size(), 2u);
    }
  }
}

TEST(Seismology, PureForkJoin) {
  Rng rng(7);
  const TaskGraph g = make_seismology_graph(rng);
  ASSERT_EQ(g.sinks().size(), 1u);
  const TaskId sift = g.sinks()[0];
  EXPECT_EQ(g.predecessors(sift).size(), g.task_count() - 1);
  EXPECT_EQ(g.sources().size(), g.task_count() - 1);
}

TEST(Soykb, PerSampleChainsJoinAtCombine) {
  Rng rng(8);
  const TaskGraph g = make_soykb_graph(rng);
  ASSERT_EQ(g.sinks().size(), 1u);
  EXPECT_EQ(g.name(g.sinks()[0]), "filtering");
  const std::size_t samples = g.sources().size();
  EXPECT_GE(samples, 3u);
  EXPECT_LE(samples, 8u);
  EXPECT_EQ(g.task_count(), samples * 7 + 3);
}

TEST(Srasearch, RigidFourNPlusFourStructure) {
  Rng rng(9);
  const TaskGraph g = make_srasearch_graph(rng);
  ASSERT_EQ(g.sources().size(), 1u);
  ASSERT_EQ(g.sinks().size(), 1u);
  const TaskId bootstrap = g.sources()[0];
  const std::size_t n = g.successors(bootstrap).size() / 2;  // prefetch + metadata
  EXPECT_GE(n, 4u);
  EXPECT_LE(n, 12u);
  EXPECT_EQ(g.task_count(), 4 * n + 4);
  const TaskId report = g.sinks()[0];
  EXPECT_EQ(g.predecessors(report).size(), 2u);  // the two mergers
}

TEST(WorkflowSampling, RuntimesStayInsideTraceEnvelope) {
  Rng rng(10);
  const auto& stats = blast_stats();
  for (int i = 0; i < 1000; ++i) {
    const double r = sample_runtime(rng, 600.0, stats);
    EXPECT_GE(r, stats.min_runtime);
    EXPECT_LE(r, stats.max_runtime);
  }
}

TEST(SetHomogeneousCcr, HitsRequestedCcr) {
  for (double ccr : {0.2, 0.5, 1.0, 2.0, 5.0}) {
    auto inst = workflows::blast_instance(3);
    set_homogeneous_ccr(inst, ccr);
    EXPECT_NEAR(inst.ccr(), ccr, 1e-9) << "ccr " << ccr;
    EXPECT_TRUE(inst.network.homogeneous_strengths());
  }
}

TEST(SetHomogeneousCcr, NoOpOnEdgelessGraph) {
  ProblemInstance inst;
  inst.graph.add_task("only", 1.0);
  inst.network = Network(2);
  set_homogeneous_ccr(inst, 1.0);
  EXPECT_DOUBLE_EQ(inst.network.strength(0, 1), 1.0);
}

TEST(WorkflowRegistry, AllNineNamesGenerate) {
  const auto& registry = datasets::DatasetRegistry::instance();
  for (const auto& name : registry.names("workflow")) {
    const auto inst = registry.make(name, 1)->generate(0);
    EXPECT_GT(inst.graph.task_count(), 0u) << name;
    EXPECT_GT(inst.network.node_count(), 0u) << name;
  }
  EXPECT_EQ(registry.names("workflow").size(), 9u);
}

}  // namespace
}  // namespace saga
