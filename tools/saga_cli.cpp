/// saga — command-line front-end to the library, the workflow an
/// open-source release ships for users who don't want to write C++.
///
/// Subcommands:
///   saga run <spec.json|->                        run a declarative
///            [--dry-run] [--set key.path=value]   experiment spec (see
///            [--shard i/N] [--out dir] [--resume] docs/experiments.md);
///                                                 --dry-run validates and
///                                                 prints the resolved plan;
///                                                 --shard runs one slice of
///                                                 the cell grid, --out
///                                                 streams completed cells
///                                                 into a result store, and
///                                                 --resume skips cells the
///                                                 store already holds
///   saga merge <dir>... [--csv path]              recombine result stores
///              [--json path] [--atlas dir]        into the monolithic run's
///                                                 artifacts (byte-identical);
///                                                 fails loudly on missing
///                                                 cells or spec mismatch
///   saga generate <dataset-spec> <index> [seed]   print an instance
///                 [--json]                        (spec strings work:
///                                                 `montage?n=50&ccr=1`);
///                                                 --json emits the wire
///                                                 codec (serve/codec.hpp)
///                                                 instead of the text format
///   saga schedule <scheduler-spec> <instance|->   schedule it, print the
///            [--repeat N] [--time]                schedule + Gantt;
///                                                 --repeat re-runs the
///                                                 scheduler N times on one
///                                                 evaluation arena and
///                                                 --time reports the
///                                                 wall-clock throughput on
///                                                 stderr
///   saga validate <instance-file> <schedule-file> check a schedule
///   saga compare <instance-file> [specs...]       makespans side by side
///   saga pisa <target> <baseline> [restarts]      adversarial search
///   saga atlas-verify <dir>                       re-verify a PISA atlas
///   saga serve [--port P] [--threads N]           scheduler-as-a-service
///              [--max-body BYTES]                 daemon on 127.0.0.1 (see
///              [--port-file path]                 docs/serve.md); --port 0
///                                                 picks an ephemeral port,
///                                                 --port-file records the
///                                                 bound port for scripts;
///                                                 SIGINT/SIGTERM drain
///                                                 gracefully
///   saga list [--tags [tag]]                      datasets & schedulers;
///             [--datasets [tag]]                  --tags/--datasets
///                                                 enumerate the registries
///                                                 by tag with per-entry
///                                                 parameters
///
/// Schedulers are given as registry spec strings: `HEFT`,
/// `ga?pop=64&gens=200`, `ensemble?members=heft+cpop+minmin`.
///
/// "-" reads the instance from stdin, so commands compose:
///   saga generate blast 0 | saga schedule HEFT -
/// Instance-reading commands accept both the text format and the JSON wire
/// codec (sniffed by the first non-space byte), so --json output feeds
/// straight back in.
///
/// Exit codes: 0 success, 1 runtime error, 2 usage error.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/atlas.hpp"
#include "analysis/gantt.hpp"
#include "common/nearest.hpp"
#include "core/pairwise.hpp"
#include "datasets/registry.hpp"
#include "exp/cells.hpp"
#include "exp/experiment.hpp"
#include "exp/resultstore.hpp"
#include "graph/serialization.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "sched/schedule_io.hpp"
#include "serve/admission.hpp"
#include "serve/codec.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

namespace {

using namespace saga;

/// Malformed command lines print their usage string and exit 2 (runtime
/// failures print "error: ..." and exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr const char* kTopLevelUsage =
    "usage: saga <command> ...\n"
    "commands:\n"
    "  run <spec.json|-> [--dry-run] [--set key.path=value]...\n"
    "      [--shard i/N] [--out dir] [--resume]\n"
    "  simulate <spec.json|-> [--dry-run] [--set key.path=value]...\n"
    "      [--shard i/N] [--out dir] [--resume]\n"
    "  merge <dir>... [--csv path] [--json path] [--atlas dir]\n"
    "  generate <dataset-spec> <index> [seed] [--json]\n"
    "  schedule <scheduler-spec> <instance|-> [--repeat N] [--time]\n"
    "  validate <instance-file> <schedule-file>\n"
    "  compare <instance|-> [scheduler-specs...]\n"
    "  pisa <target> <baseline> [restarts]\n"
    "  atlas-verify <dir>\n"
    "  serve [--port P] [--threads N] [--max-body BYTES] [--port-file path]\n"
    "  list [--tags [tag]] [--datasets [tag]]\n";

std::uint64_t parse_u64(const char* arg, const char* what) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(arg, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(arg[0])) || end == arg || *end != '\0' ||
      errno == ERANGE) {
    throw std::runtime_error(std::string("invalid ") + what + ": " + arg);
  }
  return value;
}

/// Reads an instance in either format — the text format or the JSON wire
/// codec — sniffed by the first non-space byte.
ProblemInstance read_instance(const std::string& path) {
  if (path == "-") return serve::load_instance_auto(std::cin);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return serve::load_instance_auto(in);
}

int cmd_list(int argc, char** argv) {
  constexpr const char* kUsage = "usage: saga list [--tags [tag]] [--datasets [tag]]";
  if (argc == 0) {
    const auto& schedulers = SchedulerRegistry::instance();
    std::printf("datasets (Table II):\n ");
    for (const auto& name : datasets::DatasetRegistry::instance().names("table2")) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\nextension datasets:\n ");
    for (const auto& desc : datasets::DatasetRegistry::instance().descriptors()) {
      if (!desc.has_tag("table2")) std::printf(" %s", desc.name.c_str());
    }
    std::printf("\nschedulers (Table I):\n ");
    for (const auto& name : schedulers.names("table1")) std::printf(" %s", name.c_str());
    std::printf("\nextension schedulers:\n ");
    for (const auto& name : schedulers.names("extension")) std::printf(" %s", name.c_str());
    std::printf(
        "\n(`saga list --tags` enumerates schedulers by tag, `saga list --datasets` "
        "datasets)\n");
    return EXIT_SUCCESS;
  }
  const std::string mode = argv[0];
  if ((mode != "--tags" && mode != "--datasets") || argc > 2) throw UsageError(kUsage);

  if (mode == "--datasets") {
    const auto& registry = datasets::DatasetRegistry::instance();
    if (argc == 1) {
      for (const auto& tag : registry.tags()) {
        const auto names = registry.names(tag);
        std::printf("%-13s (%2zu): %s\n", tag.c_str(), names.size(), join(names, " ").c_str());
      }
      return EXIT_SUCCESS;
    }
    const std::string tag = argv[1];
    const auto tags = registry.tags();
    if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
      throw std::invalid_argument("unknown tag '" + tag + "'; valid tags: " + join(tags, ", "));
    }
    for (const auto& desc : registry.descriptors()) {
      if (!desc.has_tag(tag)) continue;
      std::printf("%-12s %s\n", desc.name.c_str(), desc.summary.c_str());
      if (!desc.aliases.empty()) {
        std::printf("             aliases: %s\n", join(desc.aliases, ", ").c_str());
      }
      for (const auto& param : desc.params) {
        std::printf("             %s: %s\n", param.key.c_str(), param.summary.c_str());
      }
    }
    return EXIT_SUCCESS;
  }

  const auto& registry = SchedulerRegistry::instance();
  if (argc == 1) {
    for (const auto& tag : registry.tags()) {
      const auto names = registry.names(tag, NameOrder::kLexicographic);
      std::printf("%-13s (%2zu): %s\n", tag.c_str(), names.size(), join(names, " ").c_str());
    }
    return EXIT_SUCCESS;
  }
  const std::string tag = argv[1];
  const auto tags = registry.tags();
  if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
    throw std::invalid_argument("unknown tag '" + tag + "'; valid tags: " + join(tags, ", "));
  }
  for (const auto& desc : registry.descriptors()) {
    if (!desc.has_tag(tag)) continue;
    std::printf("%-12s %s\n", desc.name.c_str(), desc.summary.c_str());
    if (!desc.aliases.empty()) std::printf("             aliases: %s\n", join(desc.aliases, ", ").c_str());
    for (const auto& param : desc.params) {
      std::printf("             %s: %s\n", param.key.c_str(), param.summary.c_str());
    }
  }
  return EXIT_SUCCESS;
}

/// Shared implementation of `saga run` and `saga simulate`. When
/// `forced_mode` is non-null the spec document's mode is pinned to it: a
/// missing mode is filled in, a conflicting one is rejected (a simulate
/// alias silently running a benchmark would be a footgun).
int run_spec_command(int argc, char** argv, const char* kUsage, const char* forced_mode) {
  std::string path;
  std::vector<std::string> overrides;
  bool dry_run = false;
  exp::RunOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--set") {
      if (i + 1 >= argc) throw UsageError(std::string("--set needs key.path=value\n") + kUsage);
      overrides.emplace_back(argv[++i]);
    } else if (arg == "--shard") {
      if (i + 1 >= argc) throw UsageError(std::string("--shard needs i/N\n") + kUsage);
      try {
        const exp::Shard shard = exp::parse_shard(argv[++i]);
        options.shard_index = shard.index;
        options.shard_count = shard.count;
      } catch (const std::invalid_argument& e) {
        throw UsageError(std::string(e.what()) + "\n" + kUsage);
      }
    } else if (arg == "--out") {
      if (i + 1 >= argc) throw UsageError(std::string("--out needs a directory\n") + kUsage);
      options.out_dir = argv[++i];
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (!path.empty()) {
      throw UsageError(kUsage);
    } else {
      path = arg;
    }
  }
  if (path.empty()) throw UsageError(kUsage);
  if (options.shard_count > 1 && options.out_dir.empty()) {
    throw UsageError(std::string("--shard needs --out: a partial run must persist its cells\n") +
                     kUsage);
  }
  if (options.resume && options.out_dir.empty()) {
    throw UsageError(std::string("--resume needs --out\n") + kUsage);
  }

  exp::Json document = exp::load_spec_document(path);
  for (const auto& assignment : overrides) exp::apply_override(document, assignment);
  if (forced_mode != nullptr) {
    if (const exp::Json* mode = document.find("mode");
        mode != nullptr && mode->as_string() != forced_mode) {
      throw std::runtime_error("this command runs mode '" + std::string(forced_mode) +
                               "' but the spec says mode '" + mode->as_string() +
                               "'; use `saga run` for other modes");
    }
    document.set("mode", exp::Json::string(forced_mode));
  }
  const auto spec = exp::ExperimentSpec::from_json(document);
  spec.validate();
  if (dry_run) {
    std::cout << exp::describe(spec) << "dry run: spec is valid\n";
    return EXIT_SUCCESS;
  }
  exp::run_experiment(spec, std::cout, options);
  return EXIT_SUCCESS;
}

int cmd_run(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: saga run <spec.json|-> [--dry-run] [--set key.path=value]...\n"
      "                [--shard i/N] [--out dir] [--resume]";
  return run_spec_command(argc, argv, kUsage, nullptr);
}

int cmd_simulate(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: saga simulate <spec.json|-> [--dry-run] [--set key.path=value]...\n"
      "                     [--shard i/N] [--out dir] [--resume]";
  return run_spec_command(argc, argv, kUsage, "simulate");
}

int cmd_merge(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: saga merge <dir>... [--csv path] [--json path] [--atlas dir]";
  std::vector<std::filesystem::path> dirs;
  std::string csv_override, json_override, atlas_override;
  bool csv_set = false, json_set = false, atlas_set = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        throw UsageError(std::string(what) + " needs a value\n" + kUsage);
      }
      return argv[++i];
    };
    if (arg == "--csv") {
      csv_override = take("--csv");
      csv_set = true;
    } else if (arg == "--json") {
      json_override = take("--json");
      json_set = true;
    } else if (arg == "--atlas") {
      atlas_override = take("--atlas");
      atlas_set = true;
    } else if (arg.rfind("--", 0) == 0) {
      throw UsageError("unknown option '" + arg + "'\n" + kUsage);
    } else {
      dirs.emplace_back(arg);
    }
  }
  if (dirs.empty()) throw UsageError(kUsage);

  auto merged = exp::merge_stores(dirs);
  // Flag overrides replace the stored spec's sinks (set or clear), then the
  // spec re-validates so e.g. --atlas on a benchmark store fails exactly
  // like `saga run` would, instead of silently writing nothing.
  if (csv_set) merged.spec.csv = csv_override;
  if (json_set) merged.spec.json = json_override;
  if (atlas_set) merged.spec.atlas = atlas_override;
  merged.spec.validate();
  std::cout << "merged " << dirs.size() << " store(s): " << merged.result.stats.total_cells
            << " cells\n";
  exp::emit_result(merged.spec, merged.result, std::cout);
  return EXIT_SUCCESS;
}

int cmd_generate(int argc, char** argv) {
  constexpr const char* kUsage = "usage: saga generate <dataset-spec> <index> [seed] [--json]";
  std::vector<const char*> positional;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) throw UsageError(kUsage);
  const std::string dataset = positional[0];
  const auto index = static_cast<std::size_t>(parse_u64(positional[1], "index"));
  const std::uint64_t seed = positional.size() > 2 ? parse_u64(positional[2], "seed") : 42;
  const auto inst = datasets::DatasetRegistry::instance().make(dataset, seed)->generate(index);
  if (json) {
    std::cout << serve::instance_to_json(inst).dump(2) << "\n";
  } else {
    save_instance(std::cout, inst);
  }
  return EXIT_SUCCESS;
}

int cmd_schedule(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: saga schedule <scheduler-spec> <instance|-> [--repeat N] [--time]";
  std::vector<const char*> positional;
  std::uint64_t repeat = 1;
  bool timed = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeat") {
      if (i + 1 >= argc) throw UsageError(std::string("--repeat needs a count\n") + kUsage);
      repeat = parse_u64(argv[++i], "repeat count");
      if (repeat == 0) throw UsageError(std::string("--repeat must be at least 1\n") + kUsage);
    } else if (arg == "--time") {
      timed = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 2) throw UsageError(kUsage);
  // Resolve the scheduler spec before touching the instance stream, so a
  // misspelled name is diagnosed without consuming stdin.
  const auto scheduler = SchedulerRegistry::instance().make(positional[0], kDefaultSchedulerSeed);
  const auto inst = read_instance(positional[1]);

  // One evaluation arena across all repeats — the PISA usage pattern — so
  // `--repeat N --time` measures the scheduler's warm per-call cost.
  TimelineArena arena;
  Schedule schedule;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < repeat; ++i) schedule = scheduler->schedule(inst, &arena);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  if (timed) {
    std::fprintf(stderr, "%llu run(s) in %.3f ms: %.0f ns/schedule, %.0f schedules/sec\n",
                 static_cast<unsigned long long>(repeat), seconds * 1e3,
                 seconds / static_cast<double>(repeat) * 1e9,
                 static_cast<double>(repeat) / seconds);
  }
  save_schedule(std::cout, schedule);
  std::cout << analysis::render_gantt(inst, schedule);
  return EXIT_SUCCESS;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 2) throw UsageError("usage: saga validate <instance> <schedule>");
  const auto inst = read_instance(argv[0]);
  std::ifstream in(argv[1]);
  if (!in) throw std::runtime_error(std::string("cannot open ") + argv[1]);
  const Schedule schedule = load_schedule(in);
  const auto result = schedule.validate(inst);
  if (result.ok) {
    std::printf("valid (makespan %g)\n", schedule.makespan());
    return EXIT_SUCCESS;
  }
  std::printf("INVALID: %s\n", result.message.c_str());
  return EXIT_FAILURE;
}

int cmd_compare(int argc, char** argv) {
  if (argc < 1) throw UsageError("usage: saga compare <instance|-> [scheduler-specs...]");
  exp::ExperimentSpec spec;
  spec.mode = exp::Mode::kSchedule;
  spec.name = "saga compare";
  spec.instance.file = argv[0];
  for (int i = 1; i < argc; ++i) spec.schedulers.emplace_back(argv[i]);
  if (spec.schedulers.empty()) spec.schedulers = {"@benchmark"};
  exp::run_experiment(spec, std::cout);
  return EXIT_SUCCESS;
}

int cmd_pisa(int argc, char** argv) {
  if (argc < 2) throw UsageError("usage: saga pisa <target> <baseline> [restarts]");
  const std::uint64_t seed = 42;
  exp::ExperimentSpec spec;
  spec.mode = exp::Mode::kPisaPairwise;
  spec.name = "saga pisa";
  spec.schedulers = {argv[0], argv[1]};
  spec.pisa.restarts = argc > 2 ? parse_u64(argv[2], "restarts") : 10;
  spec.seed = seed;
  // Tables and progress go to stderr: stdout carries the atlas entry so
  // `saga pisa ... > entry.txt` composes.
  const auto result = exp::run_experiment(spec, std::cerr);

  // The grid is 2x2; the (row=baseline, col=target) cell is (1, 0). The
  // driver computed the reverse direction too — report it rather than
  // discard it.
  const double ratio = result.pairwise.cell(1, 0);
  std::fprintf(stderr, "best ratio m(%s)/m(%s) = %.4f  (reverse: %.4f)\n", argv[0], argv[1],
               ratio, result.pairwise.cell(0, 1));
  const pisa::CellSeeds seeds = pisa::pairwise_cell_seeds(seed, 1, 0);
  analysis::AtlasEntry entry;
  entry.target = exp::annotate_scheduler_seed(argv[0], seeds.target);
  entry.baseline = exp::annotate_scheduler_seed(argv[1], seeds.baseline);
  entry.ratio = ratio;
  entry.seed = seed;
  entry.instance = result.pairwise.best_instance[1][0];
  std::cout << analysis::atlas_entry_to_string(entry);
  return EXIT_SUCCESS;
}

/// Self-pipe for async-signal-safe shutdown: the SIGINT/SIGTERM handler
/// writes one byte; cmd_serve blocks reading the other end.
int g_signal_pipe[2] = {-1, -1};

extern "C" void serve_signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: saga serve [--port P] [--threads N] [--max-body BYTES] [--port-file path]\n"
      "                  [--max-queue N] [--max-inflight M] [--batch-window USEC] [--batch-max K]";
  serve::HttpServer::Options options;
  options.port = 8080;
  serve::AdmissionController::Limits limits;
  serve::BatchOptions batch;
  std::string port_file;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](const char* what) -> const char* {
      if (i + 1 >= argc) throw UsageError(std::string(what) + " needs a value\n" + kUsage);
      return argv[++i];
    };
    if (arg == "--port") {
      const std::uint64_t port = parse_u64(take("--port"), "port");
      if (port > 65535) throw UsageError(std::string("--port must be at most 65535\n") + kUsage);
      options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--threads") {
      options.threads = static_cast<std::size_t>(parse_u64(take("--threads"), "thread count"));
    } else if (arg == "--max-body") {
      options.max_body = static_cast<std::size_t>(parse_u64(take("--max-body"), "body limit"));
    } else if (arg == "--max-queue") {
      limits.max_queue = static_cast<std::size_t>(parse_u64(take("--max-queue"), "queue limit"));
    } else if (arg == "--max-inflight") {
      limits.max_inflight =
          static_cast<std::size_t>(parse_u64(take("--max-inflight"), "in-flight limit"));
    } else if (arg == "--batch-window") {
      batch.window_us =
          static_cast<std::uint32_t>(parse_u64(take("--batch-window"), "batch window"));
    } else if (arg == "--batch-max") {
      batch.max_batch = static_cast<std::size_t>(parse_u64(take("--batch-max"), "batch size"));
      if (batch.max_batch == 0) {
        throw UsageError(std::string("--batch-max must be at least 1\n") + kUsage);
      }
    } else if (arg == "--port-file") {
      port_file = take("--port-file");
    } else {
      throw UsageError("unknown option '" + arg + "'\n" + kUsage);
    }
  }

  // Static lifetime: in-flight handlers and the accept backstop may touch
  // the controller right up to server.stop() below; outliving everything in
  // this frame is the simplest safe arrangement for a process-long daemon.
  static serve::AdmissionController admission(limits);
  serve::ScheduleService::Options service_options;
  service_options.admission = &admission;
  service_options.batch = batch;
  serve::ScheduleService service(service_options);
  if (limits.max_queue != 0) {
    // Accept-level backstop, sized well above the path-aware limit so
    // /metrics scrapes are shed by neither layer in practice.
    options.max_pending = std::max<std::size_t>(64, 8 * limits.max_queue);
    options.admission = &admission;
  }
  // The gauge sampler is installed before the server exists (workers start
  // handling requests the moment the constructor returns), so it reaches
  // the server through an atomic pointer published afterwards.
  auto server_slot = std::make_shared<std::atomic<serve::HttpServer*>>(nullptr);
  service.set_gauge_sampler([server_slot] {
    serve::Telemetry::Gauges gauges;
    if (const serve::HttpServer* server = server_slot->load(std::memory_order_acquire)) {
      gauges.queue_depth = server->pool().queue_depth();
      gauges.inflight = server->inflight();
      gauges.jobs_completed = server->pool().jobs_completed();
      gauges.connections = server->connections_accepted();
    }
    return gauges;
  });
  serve::HttpServer server(options,
                           [&service](const serve::HttpRequest& req) { return service.handle(req); });
  server_slot->store(&server, std::memory_order_release);

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) throw std::runtime_error("cannot write " + port_file);
    out << server.port() << "\n";
  }

  if (pipe(g_signal_pipe) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  std::fprintf(stderr, "saga serve: listening on 127.0.0.1:%u (%zu worker thread(s))\n",
               static_cast<unsigned>(server.port()), server.pool().thread_count());

  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "saga serve: draining...\n");
  server.stop();
  std::fprintf(stderr, "saga serve: drained; served %llu request(s) over %llu connection(s)\n",
               static_cast<unsigned long long>(server.requests_served()),
               static_cast<unsigned long long>(server.connections_accepted()));

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  close(g_signal_pipe[0]);
  close(g_signal_pipe[1]);
  return EXIT_SUCCESS;
}

int cmd_atlas_verify(int argc, char** argv) {
  if (argc < 1) throw UsageError("usage: saga atlas-verify <dir>");
  const auto atlas = analysis::Atlas::load(argv[0]);
  const auto mismatches = atlas.verify(1e-9);
  std::printf("%zu entries", atlas.size());
  if (mismatches.empty()) {
    std::printf(", all reproduce\n");
    return EXIT_SUCCESS;
  }
  std::printf(", %zu mismatches:\n", mismatches.size());
  for (const auto& m : mismatches) std::printf("  %s\n", m.c_str());
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kTopLevelUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "list") return cmd_list(argc - 2, argv + 2);
    if (command == "run") return cmd_run(argc - 2, argv + 2);
    if (command == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (command == "merge") return cmd_merge(argc - 2, argv + 2);
    if (command == "generate") return cmd_generate(argc - 2, argv + 2);
    if (command == "schedule") return cmd_schedule(argc - 2, argv + 2);
    if (command == "validate") return cmd_validate(argc - 2, argv + 2);
    if (command == "compare") return cmd_compare(argc - 2, argv + 2);
    if (command == "pisa") return cmd_pisa(argc - 2, argv + 2);
    if (command == "atlas-verify") return cmd_atlas_verify(argc - 2, argv + 2);
    if (command == "serve") return cmd_serve(argc - 2, argv + 2);
    std::fprintf(stderr, "unknown command: %s\n%s", command.c_str(), kTopLevelUsage);
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
