// serve_mixed: `saga serve` as a child process with its default flags
// (admission control and batching off) and a fixed worker count, driven
// over loopback on keep-alive connections with a seeded mix of three
// request classes:
//
//   small    inline codec instances of <= 10 tasks to /v1/schedule
//   large    inline workflow instances of ~200 tasks to /v1/schedule
//   compare  /v1/compare with the 15 @benchmark schedulers on a dataset spec
//            (streamed as chunked responses)
//
// Phase 1 is a closed loop (each connection sends its next request when the
// previous response is read); phase 2 an open loop at the fixed offered
// rate in perfbench/config.json, each request timed from when it was due.
// Every response body is compared byte for byte with an in-process
// ScheduleService::handle on the same request bytes.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "datasets/registry.hpp"
#include "loadgen.hpp"
#include "metrics.hpp"
#include "sched/arena.hpp"
#include "sched/registry.hpp"
#include "serve/codec.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_SAGA_CLI
#define PERFBENCH_SAGA_CLI "saga"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using saga::serve::HttpClient;
using saga::serve::HttpRequest;
using saga::serve::HttpResponse;

// ---------------------------------------------------------------- daemon

/// A `saga serve` child process on an ephemeral port. The destructor stops
/// it with SIGTERM and waits for it to exit.
class Daemon {
 public:
  Daemon(std::size_t threads, const std::string& dir) {
    const std::string port_file = dir + "/port";
    const std::string log_file = dir + "/daemon.log";
    fs::remove(port_file);
    const std::string cli = PERFBENCH_SAGA_CLI;
    const std::string thread_count = std::to_string(threads);
    std::vector<std::string> args = {cli,         "serve",   "--port", "0", "--port-file",
                                     port_file, "--threads", thread_count};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec. The daemon gets
      // SIGTERM if this process dies first, so a crash cannot leave it
      // running; its log goes to a file so stdout stays the benchmark's.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(1);
      const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log < 0 || ::dup2(log, 1) < 0 || ::dup2(log, 2) < 0) ::_exit(1);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    try {
      wait_until_healthy(port_file);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

 private:
  void wait_until_healthy(const std::string& port_file) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (port_ == 0) {
      if (Clock::now() > deadline) throw std::runtime_error("saga serve did not start");
      std::ifstream in(port_file);
      std::string line;
      if (std::getline(in, line) && !in.eof()) port_ = static_cast<std::uint16_t>(std::stoi(line));
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (true) {
      try {
        if (HttpClient::fetch(port_, "GET", "/healthz").status == 200) break;
      } catch (const std::exception&) {
      }
      if (Clock::now() > deadline) throw std::runtime_error("saga serve never became healthy");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }

  pid_t pid_ = 0;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------- requests

struct Request {
  std::size_t cls = 0;  // index into request_classes()
  std::string target;
  std::string body;
  std::string expected;  // ScheduleService::handle's body on the same bytes
};

HttpRequest to_http(const Request& r) {
  HttpRequest req;
  req.method = "POST";
  req.target = r.target;
  req.version = "HTTP/1.1";
  req.headers = {{"content-type", "application/json"}};
  req.body = r.body;
  return req;
}

/// The body a response carries, streamed or buffered.
std::string body_of(HttpResponse response) {
  if (!response.chunk_source) return std::move(response.body);
  std::string body;
  for (std::string chunk = response.chunk_source(); !chunk.empty();
       chunk = response.chunk_source()) {
    body += chunk;
  }
  return body;
}

/// The seeded request pool: `bodies` requests per class, built from the
/// config's dataset specs and scheduler lists. A generated instance the
/// daemon would reject is redrawn and counted in `rejected` by dataset (the
/// wire codec refuses zero-cost tasks that some generators emit), so the
/// traffic holds only requests that must succeed.
std::vector<Request> make_pool(const Context& ctx, saga::serve::ScheduleService& service,
                               std::map<std::string, std::uint64_t>& rejected) {
  std::vector<Request> pool;
  const auto& datasets = saga::datasets::DatasetRegistry::instance();
  for (std::size_t c = 0; c < request_classes().size(); ++c) {
    const Json& cfg = *ctx.config.find("classes")->find(request_classes()[c]);
    const auto count = static_cast<std::size_t>(cfg.find("bodies")->as_number());
    std::vector<std::string> specs;
    for (const Json& d : cfg.find("datasets")->as_array()) specs.push_back(d.as_string());
    saga::Rng rng(saga::derive_seed(ctx.args.seed, {0x5e7e, c}));
    for (std::size_t made = 0; made < count;) {
      const std::string& dataset = specs[made % specs.size()];
      const auto index = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
      Request r;
      r.cls = c;
      Json body = Json::object();
      if (const Json* roster = cfg.find("schedulers"); request_classes()[c] == "compare") {
        r.target = "/v1/compare";
        body.set("schedulers", *roster);
        body.set("dataset", Json::string(dataset));
        body.set("index", Json::number(static_cast<double>(index)));
        body.set("seed", Json::number(static_cast<double>(ctx.args.seed)));
      } else {
        r.target = "/v1/schedule";
        const auto& names = roster->as_array();
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));
        body.set("scheduler", names[pick]);
        body.set("instance", saga::serve::instance_to_json(
                                 datasets.make(dataset, ctx.args.seed)->generate(index)));
      }
      r.body = body.dump();
      const HttpResponse response = service.handle(to_http(r));
      if (response.status == 400) {
        ++rejected[dataset];
        continue;
      }
      if (response.status != 200) {
        throw std::runtime_error("request pool: status " + std::to_string(response.status) +
                                 " (" + body_of(response) + ") for " + r.body.substr(0, 120));
      }
      r.expected = body_of(response);
      pool.push_back(std::move(r));
      ++made;
    }
  }
  return pool;
}

/// The request mix: the class shares as a block of kBlock request slots
/// (e.g. 44 small, 1 large, 5 compare), so every block of a connection's
/// sequence holds the exact shares and closed-loop blocks do the same work.
class Mix {
 public:
  static constexpr std::size_t kBlock = 50;

  Mix(const Context& ctx, const std::vector<Request>& pool) : pool_(pool) {
    for (std::size_t c = 0; c < request_classes().size(); ++c) {
      const double share =
          ctx.config.find("classes")->find(request_classes()[c])->find("share")->as_number();
      const auto slots = static_cast<std::size_t>(std::lround(share * kBlock));
      block_.insert(block_.end(), slots, c);
      members_.emplace_back();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].cls == c) members_.back().push_back(i);
      }
    }
    if (block_.size() != kBlock) throw std::invalid_argument("class shares must sum to 1");
    for (const auto& m : members_) {
      if (m.empty()) throw std::invalid_argument("every request class needs a body");
    }
  }

  /// Class `c`'s share of the requests.
  [[nodiscard]] double share(std::size_t c) const {
    return static_cast<double>(std::count(block_.begin(), block_.end(), c)) /
           static_cast<double>(kBlock);
  }

  /// One connection's request sequence: each block is a seeded shuffle of
  /// the class slots, each slot a seeded pick among the class's bodies.
  class Stream {
   public:
    Stream(const Mix& mix, std::uint64_t seed) : mix_(mix), rng_(seed), block_(mix.block_) {}
    [[nodiscard]] const Request& next() {
      if (pos_ % kBlock == 0) {  // Fisher-Yates, on saga's portable stream
        for (std::size_t i = kBlock - 1; i > 0; --i) {
          std::swap(block_[i], block_[static_cast<std::size_t>(
                                   rng_.uniform_int(0, static_cast<std::int64_t>(i)))]);
        }
      }
      const auto& m = mix_.members_[block_[pos_++ % kBlock]];
      return mix_.pool_[m[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1))]];
    }

   private:
    const Mix& mix_;
    saga::Rng rng_;
    std::vector<std::size_t> block_;
    std::size_t pos_ = 0;
  };

 private:
  const std::vector<Request>& pool_;
  std::vector<std::size_t> block_;
  std::vector<std::vector<std::size_t>> members_;
};

/// Attempted / failed counts per class, shared by a phase's connections.
struct Tally {
  std::mutex mutex;  // guards the maps
  std::map<std::size_t, std::uint64_t> attempted;
  std::map<std::size_t, std::uint64_t> failed;

  void add(std::size_t cls, bool ok) {
    std::lock_guard lock(mutex);
    ++attempted[cls];
    if (!ok) ++failed[cls];
  }
  /// Counts every request of the phase as failed.
  void fail_all() {
    std::lock_guard lock(mutex);
    failed = attempted;
  }
  void report(Report& report, const std::string& phase) {
    for (std::size_t c = 0; c < request_classes().size(); ++c) {
      report.phase(phase + "." + request_classes()[c], attempted[c], failed[c]);
    }
  }
};

/// Sends one request on `client`; true when the status is 200 and the body
/// equals the in-process one. Connection errors count as failures.
bool exchange(HttpClient& client, const Request& r) {
  try {
    const HttpResponse response = client.request("POST", r.target, r.body);
    return response.status == 200 && response.body == r.expected;
  } catch (const std::exception&) {
    return false;
  }
}

/// Runs `body(k)` on one thread per connection and joins them all; the
/// first exception a connection throws is rethrown after the join.
void run_connections(std::size_t connections, const std::function<void(std::size_t)>& body) {
  std::mutex mutex;  // guards error
  std::exception_ptr error;
  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < connections; ++k) {
    workers.emplace_back([&, k] {
      try {
        body(k);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

/// Closed loop: each connection sends back to back until `seconds` pass.
/// Returns the throughput: per connection, the median over its blocks of
/// Mix::kBlock requests (each block holds the exact class shares) of the
/// block's request rate, summed over connections. A connection too slow to
/// finish one block counts its requests over the whole window. With a
/// tracer, every request is wrapped in a span.
double closed_loop(const Context& ctx, std::uint16_t port, const Mix& mix, double seconds,
                   std::uint64_t stream, Tally& tally, Tracer* tracer,
                   const std::vector<std::uint32_t>& names) {
  const std::size_t connections = kConnections;
  std::vector<std::vector<double>> block_rates(connections);
  std::vector<std::size_t> completed(connections, 0);
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  run_connections(connections, [&](std::size_t k) {
      HttpClient client(port);
      Mix::Stream requests(mix, saga::derive_seed(ctx.args.seed, {0xc105ed, stream, k}));
      std::uint64_t op = (stream << 40) | (static_cast<std::uint64_t>(k) << 32);
      auto block_start = Clock::now();
      for (std::size_t sent = 1; Clock::now() < end; ++sent) {
        const Request& r = requests.next();
        bool ok = false;
        {
          ScopedSpan span(tracer, tracer != nullptr ? names[r.cls] : 0, 0, ++op);
          ok = exchange(client, r);
        }
        tally.add(r.cls, ok);
        completed[k] = sent;
        if (sent % Mix::kBlock == 0) {
          const auto now = Clock::now();
          block_rates[k].push_back(static_cast<double>(Mix::kBlock) /
                                   seconds_between(block_start, now));
          block_start = now;
        }
    }
  });
  double rate = 0.0;
  for (std::size_t k = 0; k < connections; ++k) {
    rate += block_rates[k].empty() ? static_cast<double>(completed[k]) / seconds
                                   : median(block_rates[k]);
  }
  return rate;
}

/// How far past the end of the open-loop window a connection may still be
/// working off its backlog.
constexpr double kMaxBacklogSeconds = 2.0;

/// How long before a request's due time the open-loop generator stops
/// sleeping and spins.
constexpr auto kSpin = std::chrono::milliseconds(1);

/// Open loop at `rate` requests per second over `seconds`, split evenly
/// across the connections as independent Poisson streams.
std::vector<OpenLoopSample> open_loop(const Context& ctx, std::uint16_t port, const Mix& mix,
                                      double rate, double seconds, Tally& tally) {
  const std::size_t connections = kConnections;
  std::vector<std::vector<OpenLoopRecord>> records(connections);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  run_connections(connections, [&](std::size_t k) {
      HttpClient client(port);
      Mix::Stream requests(mix, saga::derive_seed(ctx.args.seed, {0x09e7, k}));
      const std::vector<double> due = poisson_due_times(
          saga::derive_seed(ctx.args.seed, {0xd0e, k}), rate / static_cast<double>(connections),
          seconds);
      for (const double d : due) {
        const Request& r = requests.next();
        // Sleep to within kSpin of the due time, then spin: a thread that
        // sleeps right up to it wakes late whenever the machine is busy,
        // and that lateness would be charged to the daemon.
        const auto due_at = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(d));
        std::this_thread::sleep_until(due_at - kSpin);
        while (Clock::now() < due_at) {
        }
        const double sent = seconds_between(start, Clock::now());
        if (sent > seconds + kMaxBacklogSeconds) {
          // The backlog has grown past any bound: the daemon cannot sustain
          // the offered rate. Requests not sent by now count as failed.
          tally.add(r.cls, false);
          continue;
        }
        const bool ok = exchange(client, r);
        records[k].push_back({d, sent, seconds_between(start, Clock::now())});
        tally.add(r.cls, ok);
    }
  });
  std::vector<OpenLoopSample> samples;
  for (const auto& conn : records) {
    const auto s = open_loop_samples(conn);
    samples.insert(samples.end(), s.begin(), s.end());
  }
  return samples;
}

/// Records the generator's lateness and fails the open-loop phase when the
/// generator fell behind (see kMaxLateShare).
GeneratorCheck check_generator_kept_up(const std::vector<OpenLoopSample>& samples, Tally& open,
                                       Report& report) {
  if (samples.empty()) throw std::runtime_error("the open loop sent no request");
  const GeneratorCheck generator = check_generator(samples);
  report.detail("gen_late_ms_p50", Json::number(generator.late_p50_ms));
  report.detail("gen_late_ms_p99", Json::number(generator.late_p99_ms));
  if (!generator.kept_up) {
    report.mismatch("open-loop generator lateness (p50 " + exact(generator.late_p50_ms) +
                    " ms, p99 " + exact(generator.late_p99_ms) + " ms) is over " +
                    std::to_string(kMaxLateShare) + " of the latency (p50 " +
                    exact(generator.latency_p50_ms) + " ms, p99 " +
                    exact(generator.latency_p99_ms) + " ms)");
    open.fail_all();
  }
  return generator;
}

double scrape_counter(const std::string& metrics, const std::string& series) {
  const std::size_t at = metrics.find(series + " ");
  return at == std::string::npos ? 0.0 : std::stod(metrics.substr(at + series.size() + 1));
}

/// Per-class layer spans, in process, on the class's own request bytes:
/// handle, JSON parse, codec decode/encode and the scheduler calls, plus
/// the single-connection loopback round trip for framing. Also each
/// class's share of daemon time: its share of the traffic times its
/// handle time, over the sum of those products.
void sample_layers(const Context& ctx, const std::vector<Request>& pool, const Mix& mix,
                   std::uint16_t port, Tracer& tracer, Tally& tally, Report& report) {
  constexpr std::size_t reps = 5;  // per request body and layer
  std::vector<double> class_time;  // share x handle time, per class
  saga::serve::ScheduleService service;
  saga::TimelineArena arena;
  const auto& registry = saga::SchedulerRegistry::instance();
  const auto& datasets = saga::datasets::DatasetRegistry::instance();
  const std::uint32_t sample_name = tracer.intern("layer.sample");
  for (std::size_t c = 0; c < request_classes().size(); ++c) {
    const std::string& cls = request_classes()[c];
    std::map<std::string, std::vector<double>> per;  // layer -> one sample per call, in us
    const auto timed = [&](const std::string& layer, std::uint64_t span, auto&& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      const std::int64_t ns = now_ns() - t0;
      tracer.aggregate({span, span, tracer.intern("serve." + layer + "." + cls), 1, ns});
      per[layer].push_back(static_cast<double>(ns) / 1e3);
    };
    HttpClient client(port);
    std::size_t k = 0;
    for (const Request& r : pool) {
      if (r.cls != c) continue;
      ScopedSpan sample(&tracer, sample_name, 0, (c << 32) | k++);
      const HttpRequest req = to_http(r);
      for (std::size_t i = 0; i < reps; ++i) {
        std::string body;
        timed("handle_us", sample.id(), [&] { body = body_of(service.handle(req)); });
        if (body != r.expected) report.mismatch("in-process " + cls + " response changed");
        bool ok = false;
        timed("round_trip_us", sample.id(), [&] { ok = exchange(client, r); });
        tally.add(c, ok);
        Json parsed;
        timed("json_parse_us", sample.id(), [&] { parsed = Json::parse(r.body); });
        saga::ProblemInstance inst;
        if (const Json* instance = parsed.find("instance")) {
          timed("codec.decode_us", sample.id(),
                [&] { inst = saga::serve::instance_from_json(*instance); });
          const auto scheduler = registry.make(parsed.find("scheduler")->as_string(), 0);
          saga::Schedule schedule;
          timed("sched_us", sample.id(), [&] { schedule = scheduler->schedule(inst, &arena); });
          std::string encoded;
          timed("codec.encode_us", sample.id(),
                [&] { encoded = saga::serve::schedule_to_json(schedule).dump(); });
        } else {
          inst = datasets.make(parsed.find("dataset")->as_string(), ctx.args.seed)
                     ->generate(static_cast<std::size_t>(parsed.find("index")->as_number()));
          std::vector<saga::SchedulerPtr> roster;
          for (const Json& s : parsed.find("schedulers")->as_array()) {
            roster.push_back(registry.make(s.as_string(), 0));
          }
          timed("sched_us", sample.id(), [&] {
            for (const auto& s : roster) (void)s->plan_makespan(inst, &arena);
          });
        }
      }
    }
    // Medians, so one sample that meets a heap growth or a descheduling
    // does not carry the figure.
    const auto typical = [&](const std::string& layer) { return median(per.at(layer)); };
    for (const char* layer : {"handle_us", "json_parse_us", "codec.decode_us", "codec.encode_us",
                              "sched_us"}) {
      if (per.count(layer) > 0) {
        report.metric("serve." + std::string(layer) + "." + cls, typical(layer), "us");
      }
    }
    report.metric("serve.framing_us." + cls, typical("round_trip_us") - typical("handle_us"), "us");
    class_time.push_back(mix.share(c) * typical("handle_us"));
  }
  double daemon_time = 0.0;
  for (const double t : class_time) daemon_time += t;
  for (std::size_t c = 0; c < request_classes().size(); ++c) {
    report.metric("serve.time_share." + request_classes()[c], class_time[c] / daemon_time, "frac");
  }
}

}  // namespace

Report run_serve_mixed(const Context& ctx) {
  Report report;
  const std::size_t daemon_threads = kDaemonThreads;
  if (daemon_threads + kConnections > std::max(1U, std::thread::hardware_concurrency())) {
    std::cerr << "perfbench: note: daemon workers plus connections exceed nproc\n";
  }
  saga::serve::ScheduleService service;
  std::map<std::string, std::uint64_t> rejected;
  const std::vector<Request> pool = make_pool(ctx, service, rejected);
  Json rejected_json = Json::object();
  for (const auto& [dataset, n] : rejected) {
    rejected_json.set(dataset, Json::number(static_cast<double>(n)));
  }
  report.detail("pool_instances_rejected", rejected_json);
  const Mix mix(ctx, pool);

  // Set-up runs from launch until /healthz answers. The daemon is launched
  // several times; the last launch serves the traffic.
  std::vector<double> setups;
  constexpr std::size_t kLaunches = 15;
  for (std::size_t i = 0; i + 1 < kLaunches; ++i) {
    const auto launch = Clock::now();
    const Daemon probe(daemon_threads, ctx.scratch_dir);
    setups.push_back(seconds_between(launch, Clock::now()));
  }
  const auto launch = Clock::now();
  const Daemon daemon(daemon_threads, ctx.scratch_dir);
  setups.push_back(seconds_between(launch, Clock::now()));

  // The closed loop takes the first third of the run, the open loop the
  // rest: its p99 needs the samples more than the closed loop's block
  // medians do.
  const double closed_s = ctx.args.seconds / 3.0;
  const double rate = ctx.number("open_loop_rate_per_s");
  constexpr double tail_p = 0.99;
  // Long enough for the tail percentile, with room for Poisson shortfall.
  const double open_s = std::max(ctx.args.seconds - closed_s,
                                 1.2 * static_cast<double>(samples_for_tail(tail_p)) / rate);
  std::vector<std::uint32_t> request_names;
  if (ctx.tracer != nullptr) {
    for (const auto& c : request_classes()) {
      request_names.push_back(ctx.tracer->intern("serve.request." + c));
    }
  }

  if (!ctx.args.trace) {
    Tally closed;
    const double rps = closed_loop(ctx, daemon.port(), mix, closed_s, 0, closed, nullptr, {});
    Tally open;
    const std::vector<OpenLoopSample> samples =
        open_loop(ctx, daemon.port(), mix, rate, open_s, open);
    const GeneratorCheck generator = check_generator_kept_up(samples, open, report);
    closed.report(report, "closed_loop");
    open.report(report, "open_loop");
    std::vector<double> latency;
    for (const auto& s : samples) latency.push_back(s.latency_ms);
    report.metric("setup_s", median(setups), "s");
    report.metric("throughput_per_s", rps, "1/s");
    report.metric("latency_p50_ms", generator.latency_p50_ms, "ms");
    if (const auto p99 = supported_percentile(latency, tail_p)) {
      report.metric("latency_tail_ms", *p99, "ms");
    }
    report.metric("peak_rss_mib", peak_rss_mib_of(daemon.pid()), "MiB");
    report.detail("open_loop_samples", Json::number(static_cast<double>(samples.size())));
    JsonArray deciles;  // the latency distribution's shape, for the results file
    for (int d = 1; d <= 9; ++d) {
      deciles.push_back(Json::number(*supported_percentile(latency, d / 10.0)));
    }
    report.detail("open_loop_latency_deciles_ms", Json::array(std::move(deciles)));
    return report;
  }

  // Traced: after a warm-up, closed-loop windows alternate without and
  // with a span per request (the overhead), then the open loop runs for
  // generator lateness, then the in-process layer samples and the daemon's
  // arena counters.
  const double window_s = closed_s / 5.0;
  Tally warmup_tally;
  Tally untraced_tally;
  Tally traced_tally;
  (void)closed_loop(ctx, daemon.port(), mix, window_s, 1, warmup_tally, nullptr, {});
  double untraced = 0.0;
  double traced = 0.0;
  for (std::uint64_t round = 2; round < 4; ++round) {  // same request stream in both
    untraced += closed_loop(ctx, daemon.port(), mix, window_s, round, untraced_tally, nullptr, {});
    traced += closed_loop(ctx, daemon.port(), mix, window_s, round, traced_tally, ctx.tracer,
                          request_names);
  }
  Tally open;
  const std::vector<OpenLoopSample> samples =
      open_loop(ctx, daemon.port(), mix, rate, open_s, open);
  const GeneratorCheck generator = check_generator_kept_up(samples, open, report);
  warmup_tally.report(report, "closed_loop_warmup");
  untraced_tally.report(report, "closed_loop_untraced");
  traced_tally.report(report, "closed_loop_traced");
  open.report(report, "open_loop");
  report.metric("serve.gen_late_ms_p99", generator.late_p99_ms, "ms");
  // Requests per second, so the ratio is wall per request traced vs not.
  report.metric("trace_overhead_frac", untraced / traced - 1.0, "frac");
  Tally samples_tally;
  sample_layers(ctx, pool, mix, daemon.port(), *ctx.tracer, samples_tally, report);
  samples_tally.report(report, "layer_samples");

  const std::string metrics = HttpClient::fetch(daemon.port(), "GET", "/metrics").body;
  const double hits = scrape_counter(metrics, R"(saga_arena_reuse_total{kind="hit"})");
  const double misses = scrape_counter(metrics, R"(saga_arena_reuse_total{kind="miss"})");
  report.metric("serve.arena_hit_frac", hits / std::max(1.0, hits + misses), "frac");
  return report;
}

}  // namespace perfbench
