// Descriptor-based dataset registry: tag enumeration pinned to the
// historical rosters, alias/case-insensitive resolution with nearest-name
// suggestions, parameterized sources (width/CCR/topology overrides), the
// erdos extension family, composable wrapping sources (perturbed, noisy),
// and streaming-vs-eager benchmarking equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/benchmarking.hpp"
#include "datasets/registry.hpp"
#include "exp/experiment.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

// --- rosters and resolution ------------------------------------------------

TEST(DatasetRegistry, Table2TagMatchesHistoricalRoster) {
  // Table II in paper order, with each dataset's paper instance count.
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"in_trees", 1000}, {"out_trees", 1000}, {"chains", 1000},    {"blast", 100},
      {"bwa", 100},       {"cycles", 100},     {"epigenomics", 100}, {"genome", 100},
      {"montage", 100},   {"seismology", 100}, {"soykb", 100},       {"srasearch", 100},
      {"etl", 1000},      {"predict", 1000},   {"stats", 1000},      {"train", 1000}};
  const auto& registry = datasets::DatasetRegistry::instance();
  std::vector<std::pair<std::string, std::size_t>> actual;
  for (const auto& name : registry.names("table2")) {
    actual.emplace_back(name, registry.resolve(name).paper_count);
    EXPECT_EQ(registry.make(name, 1)->size(), actual.back().second) << name;
  }
  EXPECT_EQ(actual, expected);
}

TEST(DatasetRegistry, WorkflowTagMatchesHistoricalRoster) {
  EXPECT_EQ(datasets::DatasetRegistry::instance().names("workflow"),
            (std::vector<std::string>{"blast", "bwa", "cycles", "epigenomics", "genome",
                                      "montage", "seismology", "soykb", "srasearch"}));
}

TEST(DatasetRegistry, TagUnionCoversStandardTags) {
  const auto tags = datasets::DatasetRegistry::instance().tags();
  for (const char* tag :
       {"table2", "random", "workflow", "iot", "extension", "wrapper", "adversarial",
        "stochastic"}) {
    EXPECT_NE(std::find(tags.begin(), tags.end(), tag), tags.end()) << tag;
  }
}

TEST(DatasetRegistry, ResolvesCaseInsensitivelyAndThroughAliases) {
  auto& registry = datasets::DatasetRegistry::instance();
  EXPECT_EQ(registry.resolve("MONTAGE").name, "montage");
  EXPECT_EQ(registry.resolve("Erdos_Renyi").name, "erdos");
  EXPECT_EQ(registry.resolve("gnp").name, "erdos");
  EXPECT_EQ(registry.resolve("stochastic").name, "noisy");
}

TEST(DatasetRegistry, UnknownNameSuggestsNearestAndListsTags) {
  try {
    (void)datasets::DatasetRegistry::instance().resolve("montag");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'montage'?"), std::string::npos) << what;
    EXPECT_NE(what.find("valid tags"), std::string::npos) << what;
  }
}

TEST(DatasetRegistry, UnknownParamSuggestsNearestAndListsValid) {
  try {
    (void)datasets::DatasetRegistry::instance().make("montage?nn=5", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no parameter 'nn'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'n'?"), std::string::npos) << what;
    EXPECT_NE(what.find("valid parameters"), std::string::npos) << what;
  }
}

TEST(DatasetRegistry, AddRejectsCollisionsAndMissingFactories) {
  datasets::DatasetRegistry registry;
  datasets::DatasetDesc desc;
  desc.name = "dummy";
  desc.aliases = {"dm"};
  desc.factory = [](const datasets::DatasetParams&, std::uint64_t) {
    return datasets::DatasetRegistry::instance().make("chains", 1);
  };
  registry.add(desc);
  EXPECT_THROW(registry.add(desc), std::invalid_argument);  // same name
  datasets::DatasetDesc alias_clash = desc;
  alias_clash.name = "other";
  alias_clash.aliases = {"DUMMY"};  // case-insensitive collision
  EXPECT_THROW(registry.add(alias_clash), std::invalid_argument);
  datasets::DatasetDesc no_factory;
  no_factory.name = "nofactory";
  EXPECT_THROW(registry.add(no_factory), std::invalid_argument);
}

// --- parameterized sources -------------------------------------------------

TEST(DatasetSources, SourcesAreDeterministicAndSized) {
  auto& registry = datasets::DatasetRegistry::instance();
  for (const char* spec : {"montage", "montage?n=30", "erdos?n=40&p=0.2",
                           "perturbed?base=chains&level=0.5", "noisy?base=blast&cv=0.3"}) {
    const auto a = registry.make(spec, 7);
    const auto b = registry.make(spec, 7);
    EXPECT_GT(a->size(), 0u) << spec;
    for (std::size_t i = 0; i < 2; ++i) {
      const auto x = a->generate(i);
      const auto y = b->generate(i);
      EXPECT_TRUE(x.graph.structurally_equal(y.graph)) << spec << "[" << i << "]";
      EXPECT_EQ(x.network.node_count(), y.network.node_count()) << spec;
    }
  }
}

TEST(DatasetSources, WidthOverridesControlGraphSize) {
  auto& registry = datasets::DatasetRegistry::instance();
  // montage?n=30: 30 mProject + 29 mDiffFit + 30 mBackground + 7 fixed.
  const auto montage = registry.make("montage?n=30", 3)->generate(0);
  EXPECT_EQ(montage.graph.task_count(), 30u + 29u + 30u + 6u);
  // in_trees?levels=3&branch=2: 1 + 2 + 4 tasks.
  const auto tree = registry.make("in_trees?levels=3&branch=2", 3)->generate(0);
  EXPECT_EQ(tree.graph.task_count(), 7u);
  EXPECT_EQ(tree.graph.dependency_count(), 6u);
  // chains?chains=4&length=5: 20 tasks in 4 chains.
  const auto chains = registry.make("chains?chains=4&length=5", 3)->generate(0);
  EXPECT_EQ(chains.graph.task_count(), 20u);
  EXPECT_EQ(chains.graph.dependency_count(), 16u);
  // genome?n=6&analyses=2: 6 extractors + merge + sifting + 2x2 analyses.
  const auto genome = registry.make("genome?n=6&analyses=2", 3)->generate(0);
  EXPECT_EQ(genome.graph.task_count(), 6u + 2u + 4u);
}

TEST(DatasetSources, NetworkOverridesControlTopology) {
  auto& registry = datasets::DatasetRegistry::instance();
  const auto workflow = registry.make("blast?min_nodes=6&max_nodes=6", 5)->generate(1);
  EXPECT_EQ(workflow.network.node_count(), 6u);
  const auto tree = registry.make("out_trees?nodes=9", 5)->generate(1);
  EXPECT_EQ(tree.network.node_count(), 9u);
  const auto iot = registry.make("etl?edge=10&fog=2&cloud=1", 5)->generate(1);
  EXPECT_EQ(iot.network.node_count(), 13u);
}

TEST(DatasetSources, CcrOverrideHomogenizesLinks) {
  auto& registry = datasets::DatasetRegistry::instance();
  const auto inst = registry.make("montage?ccr=1.0", 11)->generate(0);
  double strength = 0.0;
  const auto& net = inst.network;
  for (NodeId a = 0; a < net.node_count(); ++a) {
    for (NodeId b = a + 1; b < net.node_count(); ++b) {
      if (strength == 0.0) strength = net.strength(a, b);
      EXPECT_DOUBLE_EQ(net.strength(a, b), strength);
    }
  }
  EXPECT_TRUE(std::isfinite(strength));  // Chameleon default is infinite
  EXPECT_GT(strength, 0.0);
}

TEST(DatasetSources, ErdosRespectsDensityAndHeterogeneity) {
  auto& registry = datasets::DatasetRegistry::instance();
  const auto sparse = registry.make("erdos?n=50&p=0.05", 9)->generate(0);
  const auto dense = registry.make("erdos?n=50&p=0.5", 9)->generate(0);
  EXPECT_EQ(sparse.graph.task_count(), 50u);
  EXPECT_LT(sparse.graph.dependency_count(), dense.graph.dependency_count());
  EXPECT_EQ(dense.graph.topological_order().size(), dense.graph.task_count());

  const auto hetero = registry.make("erdos?n=10&hetero=8&nodes=12", 9)->generate(0);
  double min_speed = 1e300;
  double max_speed = 0.0;
  for (NodeId v = 0; v < hetero.network.node_count(); ++v) {
    min_speed = std::min(min_speed, hetero.network.speed(v));
    max_speed = std::max(max_speed, hetero.network.speed(v));
  }
  EXPECT_GT(max_speed / min_speed, 2.0);  // spread far beyond the clipped Gaussian
}

TEST(DatasetSources, OutOfRangeParametersAreRejected) {
  auto& registry = datasets::DatasetRegistry::instance();
  for (const char* spec :
       {"erdos?p=1.5", "erdos?n=0", "erdos?hetero=0.5", "montage?ccr=-1",
        "montage?min_nodes=9&max_nodes=3", "in_trees?levels=60", "perturbed?level=99",
        "noisy?cv=3", "etl?edge=999999"}) {
    EXPECT_THROW((void)registry.make(spec, 1), std::invalid_argument) << spec;
  }
}

// --- wrapping sources ------------------------------------------------------

TEST(DatasetWrappers, RequireABaseAndResolveItThroughTheRegistry) {
  auto& registry = datasets::DatasetRegistry::instance();
  EXPECT_THROW((void)registry.make("perturbed", 1), std::invalid_argument);
  EXPECT_THROW((void)registry.make("noisy?cv=0.1", 1), std::invalid_argument);
  EXPECT_THROW((void)registry.make("noisy?base=nope", 1), std::invalid_argument);
  const auto wrapped = registry.make("noisy?base=MONTAGE", 1);  // alias resolution
  EXPECT_EQ(wrapped->size(), registry.make("montage", 1)->size());
}

TEST(DatasetWrappers, PerturbedChangesTheInstanceButStaysAcyclic) {
  auto& registry = datasets::DatasetRegistry::instance();
  const auto base = registry.make("chains", 21);
  const auto perturbed = registry.make("perturbed?base=chains&level=1.0", 21);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto original = base->generate(i);
    const auto mutated = perturbed->generate(i);
    EXPECT_EQ(mutated.graph.topological_order().size(), mutated.graph.task_count()) << i;
    EXPECT_EQ(mutated.network.node_count(), original.network.node_count()) << i;
    if (!mutated.graph.structurally_equal(original.graph)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(DatasetWrappers, NoisyPreservesTopologyAndPerturbsWeights) {
  auto& registry = datasets::DatasetRegistry::instance();
  const auto base = registry.make("blast", 5)->generate(0);
  const auto noisy = registry.make("noisy?base=blast&cv=0.2", 5)->generate(0);
  ASSERT_EQ(noisy.graph.task_count(), base.graph.task_count());
  ASSERT_EQ(noisy.graph.dependency_count(), base.graph.dependency_count());
  std::size_t changed = 0;
  for (TaskId t = 0; t < base.graph.task_count(); ++t) {
    if (noisy.graph.cost(t) != base.graph.cost(t)) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(DatasetWrappers, NestedBaseSpecsCarryParameters) {
  // The base value may itself be a spec (no '&' inside): montage?n=20.
  const auto source =
      datasets::DatasetRegistry::instance().make("noisy?base=montage?n=20&cv=0.1", 2);
  const auto inst = source->generate(0);
  EXPECT_EQ(inst.graph.task_count(), 20u + 19u + 20u + 6u);
}

// --- streaming-vs-eager equivalence ----------------------------------------

TEST(StreamingBenchmark, MatchesEagerBenchmarkBitForBit) {
  // The parallel streaming driver must equal a serial pass over the
  // materialized instances (deterministic roster, so seeds do not matter).
  const std::vector<std::string> roster = {"HEFT", "CPoP", "MinMin"};
  const auto source = datasets::DatasetRegistry::instance().make("chains", 42);
  std::vector<ProblemInstance> instances;
  for (std::size_t i = 0; i < 6; ++i) instances.push_back(source->generate(i));
  std::vector<std::vector<double>> makespans(roster.size());
  for (std::size_t s = 0; s < roster.size(); ++s) {
    const auto scheduler = SchedulerRegistry::instance().make(roster[s], 1);
    for (const auto& inst : instances) makespans[s].push_back(scheduler->schedule(inst).makespan());
  }
  const auto eager = analysis::assemble_benchmark("chains", makespans, roster);
  const auto streamed = analysis::benchmark_source(*source, "chains", 6, roster, 42);
  ASSERT_EQ(streamed.per_scheduler.size(), eager.per_scheduler.size());
  for (std::size_t s = 0; s < eager.per_scheduler.size(); ++s) {
    EXPECT_EQ(streamed.per_scheduler[s].ratios, eager.per_scheduler[s].ratios)
        << roster[s];
  }
}

// --- experiment-spec integration -------------------------------------------

TEST(ExperimentDatasetSpecs, SelectionsAcceptSpecStringsAndRejectBadOnes) {
  exp::ExperimentSpec spec;
  spec.mode = exp::Mode::kBenchmark;
  spec.schedulers = {"HEFT", "CPoP"};
  spec.datasets = {{"montage?n=10&ccr=1", 4}, {"erdos?n=16&p=0.2", 4}};
  EXPECT_NO_THROW(spec.validate());

  spec.datasets = {{"montage?nn=10", 4}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.datasets = {{"montag", 4}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ExperimentDatasetSpecs, CountValidationReportsPosition) {
  const auto json = exp::Json::parse(R"({
  "mode": "benchmark",
  "schedulers": ["HEFT"],
  "datasets": [{"name": "chains", "count": -3}]
})");
  try {
    (void)exp::ExperimentSpec::from_json(json);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-negative integer"), std::string::npos) << what;
    EXPECT_NE(what.find("at line 4"), std::string::npos) << what;
  }
  // Overflowing counts are rejected too.
  EXPECT_THROW(
      (void)exp::ExperimentSpec::from_json(exp::Json::parse(
          R"({"mode": "benchmark", "schedulers": ["HEFT"],
              "datasets": [{"name": "chains", "count": 1e300}]})")),
      std::invalid_argument);
}

}  // namespace
