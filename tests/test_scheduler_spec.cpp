// Scheduler spec grammar and descriptor registry: parse/round-trip of
// "name?key=val&key=val" strings, duplicate/unknown-key rejection with
// nearest-name suggestions, alias and case-insensitive resolution, tag
// enumeration pinned to the historical rosters, and bit-identical
// construction through bare names vs spelled-out default parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/nearest.hpp"
#include "core/annealer.hpp"
#include "sched/registry.hpp"

namespace {

using namespace saga;

// --- grammar ---------------------------------------------------------------

TEST(SchedulerSpecGrammar, ParsesBareName) {
  const auto spec = parse_spec("HEFT", "scheduler");
  EXPECT_EQ(spec.name, "HEFT");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "HEFT");
}

TEST(SchedulerSpecGrammar, ParsesParams) {
  const auto spec = parse_spec("ga?pop=64&gens=200", "scheduler");
  EXPECT_EQ(spec.name, "ga");
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params[0].first, "pop");
  EXPECT_EQ(spec.params[0].second, "64");
  EXPECT_EQ(spec.params[1].first, "gens");
  EXPECT_EQ(spec.params[1].second, "200");
}

TEST(SchedulerSpecGrammar, RoundTripsPreservingOrder) {
  for (const char* text :
       {"HEFT", "heft?rank=best&insertion=false", "ga?gens=200&pop=64",
        "ensemble?members=heft+cpop+minmin", "wba?tolerance=0.25&seed=7"}) {
    EXPECT_EQ(parse_spec(text, "scheduler").to_string(), text) << text;
  }
}

TEST(SchedulerSpecGrammar, RejectsEmptyName) {
  EXPECT_THROW((void)parse_spec("", "scheduler"), std::invalid_argument);
  EXPECT_THROW((void)parse_spec("?pop=4", "scheduler"), std::invalid_argument);
}

TEST(SchedulerSpecGrammar, RejectsMissingEquals) {
  EXPECT_THROW((void)parse_spec("ga?pop", "scheduler"), std::invalid_argument);
}

TEST(SchedulerSpecGrammar, RejectsEmptyParamSection) {
  EXPECT_THROW((void)parse_spec("ga?", "scheduler"), std::invalid_argument);
  EXPECT_THROW((void)parse_spec("ga?pop=4&", "scheduler"), std::invalid_argument);
}

TEST(SchedulerSpecGrammar, RejectsDuplicateKeyNamingIt) {
  try {
    (void)parse_spec("ga?pop=4&pop=8", "scheduler");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate parameter 'pop'"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerSpecGrammar, RejectsEmptyKeyAndValue) {
  EXPECT_THROW((void)parse_spec("ga?=4", "scheduler"), std::invalid_argument);
  EXPECT_THROW((void)parse_spec("ga?pop=", "scheduler"), std::invalid_argument);
}

// --- typed params ----------------------------------------------------------

TEST(SchedulerParams, TypedConversionErrorsNameSchedulerAndKey) {
  const auto spec = parse_spec("ga?pop=banana", "scheduler");
  try {
    (void)SchedulerRegistry::instance().make(spec, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'GA'"), std::string::npos) << what;
    EXPECT_NE(what.find("'pop'"), std::string::npos) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
  }
}

TEST(SchedulerParams, OutOfRangeValuesAreRejectedNamingTheKey) {
  // Each of these used to crash (empty WBA band, empty GA population),
  // hang (a cooling loop or binary search that never terminates), or run
  // with a value the parameter's help rules out (Online's tolerance).
  const std::pair<const char*, const char*> rejected[] = {
      {"WBA?tolerance=-1", "'tolerance'"},  {"WBA?tolerance=nan", "'tolerance'"},
      {"WBA?tolerance=1.5", "'tolerance'"}, {"WBA?tolerance=inf", "'tolerance'"},
      {"GA?pop=0", "'pop'"},                {"SimAnneal?alpha=1", "'alpha'"},
      {"SimAnneal?alpha=0", "'alpha'"},     {"SimAnneal?alpha=nan", "'alpha'"},
      {"SimAnneal?tmin=-1", "'tmin'"},      {"SimAnneal?tmax=inf", "'tmax'"},
      {"SMT?epsilon=-1", "'epsilon'"},      {"SMT?epsilon=0", "'epsilon'"},
      {"SMT?epsilon=nan", "'epsilon'"},
      {"Online?policy=locality&tolerance=-1", "'tolerance'"},
      {"Online?policy=locality&tolerance=nan", "'tolerance'"},
  };
  for (const auto& [spec, key] : rejected) {
    try {
      (void)SchedulerRegistry::instance().make(spec, 1);
      ADD_FAILURE() << spec << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << spec << ": " << e.what();
    }
  }
  for (const char* spec : {"WBA?tolerance=0", "WBA?tolerance=1", "GA?pop=1",
                           "SimAnneal?alpha=0.5&tmin=0.1", "SMT?epsilon=0.5",
                           "Online?policy=locality&tolerance=0"}) {
    EXPECT_NO_THROW((void)SchedulerRegistry::instance().make(spec, 1)) << spec;
  }
}

TEST(SchedulerParams, BoolAndListParsing) {
  // insertion=false flips HEFT's placement; members lists split on '+'.
  const auto& registry = SchedulerRegistry::instance();
  EXPECT_NO_THROW((void)registry.make("heft?insertion=false", 1));
  EXPECT_NO_THROW((void)registry.make("ensemble?members=heft+cpop", 1));
  EXPECT_THROW((void)registry.make("heft?insertion=maybe", 1), std::invalid_argument);
  EXPECT_THROW((void)registry.make("ensemble?members=heft++cpop", 1), std::invalid_argument);
}

// --- registry resolution ---------------------------------------------------

TEST(SchedulerRegistry, ResolvesCanonicalLowercaseAndAliases) {
  auto& registry = SchedulerRegistry::instance();
  EXPECT_EQ(registry.resolve("HEFT").name, "HEFT");
  EXPECT_EQ(registry.resolve("heft").name, "HEFT");
  EXPECT_EQ(registry.resolve("fastestnode").name, "FastestNode");
  EXPECT_EQ(registry.resolve("LinearClustering").name, "LC");
  EXPECT_EQ(registry.resolve("DLS").name, "GDL");
  EXPECT_EQ(registry.resolve("sa").name, "SimAnneal");
}

TEST(SchedulerRegistry, UnknownNameSuggestsNearest) {
  try {
    (void)SchedulerRegistry::instance().resolve("heff");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'HEFT'?"), std::string::npos) << what;
    EXPECT_NE(what.find("valid tags"), std::string::npos) << what;
  }
}

TEST(SchedulerRegistry, UnknownParamSuggestsNearestAndListsValid) {
  try {
    (void)SchedulerRegistry::instance().make(parse_spec("ga?pops=4", "scheduler"), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no parameter 'pops'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'pop'?"), std::string::npos) << what;
    EXPECT_NE(what.find("valid parameters"), std::string::npos) << what;
  }
}

TEST(SchedulerRegistry, ParamlessSchedulerRejectsAnyKey) {
  const auto& registry = SchedulerRegistry::instance();
  EXPECT_THROW((void)registry.make("minmin?foo=1", 1), std::invalid_argument);
  EXPECT_NO_THROW((void)registry.make("minmin?seed=1", 1));  // universal key
}

TEST(SchedulerRegistry, TagEnumerationMatchesHistoricalRosters) {
  // Roster order seeds the experiment drivers' per-cell RNG streams, so
  // every roster is pinned literally, order included.
  using Names = std::vector<std::string>;
  auto& registry = SchedulerRegistry::instance();
  EXPECT_EQ(registry.names("table1", NameOrder::kRegistration),
            (Names{"BIL", "BruteForce", "CPoP", "Duplex", "ETF", "FastestNode", "FCP", "FLB",
                   "GDL", "HEFT", "MaxMin", "MCT", "MET", "MinMin", "OLB", "SMT", "WBA"}));
  EXPECT_EQ(registry.names("benchmark", NameOrder::kLexicographic),
            (Names{"BIL", "CPoP", "Duplex", "ETF", "FCP", "FLB", "FastestNode", "GDL", "HEFT",
                   "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA"}));
  EXPECT_EQ(registry.names("app-specific", NameOrder::kRegistration),
            (Names{"CPoP", "FastestNode", "HEFT", "MaxMin", "MinMin", "WBA"}));
  EXPECT_EQ(registry.names("extension", NameOrder::kRegistration),
            (Names{"ERT", "MH", "LMT", "LC", "GA", "SimAnneal", "Ensemble", "PEFT"}));
  EXPECT_EQ(registry.names().size(), 26u);
}

TEST(SchedulerRegistry, RandomizedTagCoversSeededSchedulers) {
  const auto randomized = SchedulerRegistry::instance().names("randomized");
  EXPECT_EQ(randomized.size(), 5u);
  for (const char* name : {"WBA", "GA", "SimAnneal", "Ensemble", "Online"}) {
    EXPECT_NE(std::find(randomized.begin(), randomized.end(), name), randomized.end())
        << name;
  }
}

TEST(SchedulerRegistry, DescriptorsDeclareRequirementsMatchingInstances) {
  // The declarative capability flags must agree with the constructed
  // schedulers' requirements() overrides.
  auto& registry = SchedulerRegistry::instance();
  for (const auto& desc : registry.descriptors()) {
    if (desc.name == "Ensemble") continue;  // derived from members at runtime
    const auto scheduler = registry.make(parse_spec(desc.name, "scheduler"), 1);
    const auto reqs = scheduler->requirements();
    EXPECT_EQ(desc.requirements.homogeneous_node_speeds, reqs.homogeneous_node_speeds)
        << desc.name;
    EXPECT_EQ(desc.requirements.homogeneous_link_strengths, reqs.homogeneous_link_strengths)
        << desc.name;
  }
}

TEST(SchedulerRegistry, EnsembleMembersValidateEagerly) {
  // A misspelled member must fail at construction (where spec validation
  // and `saga run --dry-run` catch it), not on the first schedule() call.
  try {
    (void)SchedulerRegistry::instance().make("ensemble?members=hft+cpop", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'HEFT'?"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)SchedulerRegistry::instance().make("ensemble?members=heft+cpop", 1));
}

TEST(SchedulerRegistry, SeedParamOverridesFactorySeed) {
  const auto inst = pisa::random_chain_instance(3);
  const auto& registry = SchedulerRegistry::instance();
  const auto a = registry.make("wba?seed=7", 999)->schedule(inst);
  const auto b = registry.make("WBA", 7)->schedule(inst);
  EXPECT_EQ(a.makespan(), b.makespan());
}

TEST(SchedulerRegistry, AddRejectsCollisions) {
  SchedulerRegistry registry;
  SchedulerDesc desc;
  desc.name = "Dummy";
  desc.aliases = {"dm"};
  desc.factory = [](const SchedulerParams&, std::uint64_t seed) {
    return SchedulerRegistry::instance().make("HEFT", seed);
  };
  registry.add(desc);
  EXPECT_THROW(registry.add(desc), std::invalid_argument);  // same name
  SchedulerDesc alias_clash = desc;
  alias_clash.name = "Other";
  alias_clash.aliases = {"DUMMY"};  // case-insensitive collision
  EXPECT_THROW(registry.add(alias_clash), std::invalid_argument);
  SchedulerDesc no_factory;
  no_factory.name = "NoFactory";
  EXPECT_THROW(registry.add(no_factory), std::invalid_argument);
}

// --- spec-constructed schedulers are bit-identical -------------------------

TEST(SchedulerRegistry, SpecConstructionMatchesMakeSchedulerOnChainInstance) {
  // Spec strings with explicitly spelled default parameters must construct
  // schedulers bit-identical to the bare names (the golden-makespan suite
  // covers all fixtures; this covers the parameterized paths).
  const auto inst = pisa::random_chain_instance(11);
  const std::pair<const char*, const char*> equivalents[] = {
      {"HEFT", "heft?rank=mean&insertion=true"},
      {"GA", "ga?pop=24&gens=60&tournament=3&crossover=0.9&mutation=0.08"},
      {"SimAnneal", "simanneal?tmax=1.0&tmin=0.001&alpha=0.98&steps=8"},
      {"WBA", "wba?tolerance=0.5"},
      {"SMT", "smt?epsilon=0.01"},
      {"Ensemble", "ensemble?members=HEFT+CPoP+MinMin"},
  };
  for (const auto& [name, spec] : equivalents) {
    const auto& registry = SchedulerRegistry::instance();
    const auto via_name = registry.make(name, kDefaultSchedulerSeed)->schedule(inst);
    const auto via_spec = registry.make(spec, kDefaultSchedulerSeed)->schedule(inst);
    EXPECT_EQ(via_name.makespan(), via_spec.makespan()) << spec;
  }
}

// --- nearest-match helper --------------------------------------------------

TEST(NearestMatch, EditDistanceIsCaseInsensitive) {
  EXPECT_EQ(edit_distance("heft", "HEFT"), 0u);
  EXPECT_EQ(edit_distance("heff", "HEFT"), 1u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
}

TEST(NearestMatch, FarQueriesProduceNoSuggestion) {
  EXPECT_EQ(nearest_match("zzzzzzzz", {"HEFT", "CPoP"}), "");
  EXPECT_EQ(did_you_mean("zzzzzzzz", {"HEFT", "CPoP"}), "");
  EXPECT_EQ(nearest_match("heff", {"HEFT", "CPoP"}), "HEFT");
}

}  // namespace
