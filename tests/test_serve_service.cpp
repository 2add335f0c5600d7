#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "datasets/registry.hpp"
#include "exp/json.hpp"
#include "graph/problem_instance.hpp"
#include "sched/registry.hpp"
#include "serve/codec.hpp"
#include "serve/service.hpp"

namespace saga::serve {
namespace {

using exp::Json;

HttpRequest make_request(const std::string& method, const std::string& target,
                         const std::string& body = {}) {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = body;
  return req;
}

std::string schedule_body(const std::string& scheduler, const ProblemInstance& inst) {
  return Json::object({{"scheduler", Json::string(scheduler)},
                       {"instance", instance_to_json(inst)}})
             .dump() +
         "\n";
}

const std::string* header_of(const HttpResponse& resp, const std::string& name) {
  for (const auto& [key, value] : resp.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(ServeService, SchedulesInlineInstance) {
  ScheduleService service;
  const ProblemInstance inst = fig1_instance();
  const HttpResponse resp =
      service.handle(make_request("POST", "/v1/schedule", schedule_body("HEFT", inst)));
  ASSERT_EQ(resp.status, 200) << resp.body;

  const Json out = Json::parse(resp.body);
  EXPECT_EQ(out.find("scheduler")->as_string(), "HEFT");
  const Schedule direct = make_scheduler("HEFT")->schedule(inst);
  EXPECT_DOUBLE_EQ(out.find("makespan")->as_number(), direct.makespan());
  const Schedule decoded = schedule_from_json(*out.find("schedule"));
  EXPECT_TRUE(decoded.validate(inst).ok);
  // Wall-clock cost travels as a header, never in the deterministic body.
  EXPECT_NE(header_of(resp, "X-Saga-Timing-Us"), nullptr);
  EXPECT_EQ(resp.body.find("timing"), std::string::npos);
}

TEST(ServeService, SchedulesDatasetSpec) {
  ScheduleService service;
  const std::string body = R"({"scheduler": "HEFT", "dataset": "chains?length=8", "index": 1, "seed": 7})";
  const HttpResponse resp = service.handle(make_request("POST", "/v1/schedule", body));
  ASSERT_EQ(resp.status, 200) << resp.body;
  const ProblemInstance inst = datasets::generate_instance("chains?length=8", 7, 1);
  EXPECT_DOUBLE_EQ(Json::parse(resp.body).find("makespan")->as_number(),
                   make_scheduler("HEFT")->schedule(inst).makespan());
}

TEST(ServeService, TimingsAreOptIn) {
  ScheduleService service;
  const std::string body =
      R"({"scheduler": "HEFT", "dataset": "chains?length=6", "timings": true})";
  const HttpResponse resp = service.handle(make_request("POST", "/v1/schedule", body));
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(Json::parse(resp.body).find("timing_us"), nullptr);
}

TEST(ServeService, CompareRanksSchedulers) {
  ScheduleService service;
  const ProblemInstance inst = fig1_instance();
  const std::string body = Json::object({{"schedulers", Json::array({Json::string("HEFT"),
                                                                     Json::string("CPoP"),
                                                                     Json::string("MCT")})},
                                         {"instance", instance_to_json(inst)}})
                               .dump();
  const HttpResponse resp = service.handle(make_request("POST", "/v1/compare", body));
  ASSERT_EQ(resp.status, 200) << resp.body;
  const Json out = Json::parse(resp.body);
  const auto& rows = out.find("rows")->as_array();
  ASSERT_EQ(rows.size(), 3u);
  double best = rows[0].find("makespan")->as_number();
  for (const auto& row : rows) {
    const double makespan = row.find("makespan")->as_number();
    const std::string name = row.find("scheduler")->as_string();
    EXPECT_DOUBLE_EQ(makespan, make_scheduler(name)->schedule(inst).makespan());
    best = std::min(best, makespan);
  }
  EXPECT_DOUBLE_EQ(out.find("best")->find("makespan")->as_number(), best);
}

TEST(ServeService, StreamedCompareEqualsBufferedByteForByte) {
  // Eight schedulers meets the default stream_rows_threshold: the response
  // arrives as a chunk source instead of a buffered body.
  const std::string body =
      R"({"schedulers": ["HEFT", "CPoP", "MCT", "HEFT", "CPoP", "MCT", "HEFT", "CPoP"],)"
      R"( "dataset": "chains?length=8"})";

  ScheduleService streaming;
  const HttpResponse streamed = streaming.handle(make_request("POST", "/v1/compare", body));
  ASSERT_EQ(streamed.status, 200);
  ASSERT_TRUE(static_cast<bool>(streamed.chunk_source));
  EXPECT_TRUE(streamed.body.empty());
  std::string spliced;
  for (std::string chunk; !(chunk = streamed.chunk_source()).empty();) spliced += chunk;

  ScheduleService::Options buffered_options;
  buffered_options.stream_rows_threshold = 0;  // force the buffered path
  ScheduleService buffered(buffered_options);
  const HttpResponse reference = buffered.handle(make_request("POST", "/v1/compare", body));
  ASSERT_EQ(reference.status, 200);
  EXPECT_FALSE(static_cast<bool>(reference.chunk_source));

  // The spliced chunks are the buffered body, byte for byte.
  EXPECT_EQ(spliced, reference.body);
  const Json out = Json::parse(spliced);
  EXPECT_EQ(out.find("rows")->as_array().size(), 8u);

  // Small rosters and timings requests stay buffered.
  const HttpResponse small = streaming.handle(make_request(
      "POST", "/v1/compare", R"({"schedulers": ["HEFT", "CPoP"], "dataset": "chains?length=8"})"));
  ASSERT_EQ(small.status, 200);
  EXPECT_FALSE(static_cast<bool>(small.chunk_source));
  const std::string timed_body =
      R"({"schedulers": ["HEFT", "CPoP", "MCT", "HEFT", "CPoP", "MCT", "HEFT", "CPoP"],)"
      R"( "dataset": "chains?length=8", "timings": true})";
  const HttpResponse timed = streaming.handle(make_request("POST", "/v1/compare", timed_body));
  ASSERT_EQ(timed.status, 200);
  EXPECT_FALSE(static_cast<bool>(timed.chunk_source));
  EXPECT_NE(Json::parse(timed.body).find("timing_us"), nullptr);
}

TEST(ServeService, IdenticalRequestsAreByteIdenticalAcrossThreads) {
  ScheduleService service;
  const std::string body = schedule_body("HEFT", fig1_instance());
  const HttpResponse reference =
      service.handle(make_request("POST", "/v1/schedule", body));
  ASSERT_EQ(reference.status, 200);

  constexpr int kThreads = 4;
  constexpr int kRequestsEach = 16;
  std::vector<std::string> bodies[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &body, &bodies, t] {
      for (int i = 0; i < kRequestsEach; ++i) {
        bodies[t].push_back(service.handle(make_request("POST", "/v1/schedule", body)).body);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& lane : bodies) {
    for (const auto& b : lane) EXPECT_EQ(b, reference.body);
  }
}

TEST(ServeService, ErrorContract) {
  ScheduleService service;

  // Malformed JSON: 400, with parse position, daemon keeps serving.
  HttpResponse resp = service.handle(make_request("POST", "/v1/schedule", "{\"scheduler\": "));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("line"), std::string::npos) << resp.body;

  // Unknown scheduler: the registry's did-you-mean surfaces in the body.
  resp = service.handle(
      make_request("POST", "/v1/schedule", R"({"scheduler": "HEFTT", "dataset": "chains"})"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("did you mean"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("HEFT"), std::string::npos) << resp.body;

  // Unknown dataset, same contract.
  resp = service.handle(
      make_request("POST", "/v1/schedule", R"({"scheduler": "HEFT", "dataset": "chanis"})"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("did you mean 'chains'"), std::string::npos) << resp.body;

  // Unknown body key, with a suggestion.
  resp = service.handle(
      make_request("POST", "/v1/schedule", R"({"schedulr": "HEFT", "dataset": "chains"})"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("did you mean 'scheduler'"), std::string::npos) << resp.body;

  // Neither / both instance sources.
  resp = service.handle(make_request("POST", "/v1/schedule", R"({"scheduler": "HEFT"})"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("exactly one of 'instance' and 'dataset'"), std::string::npos);

  // Empty compare roster.
  resp = service.handle(
      make_request("POST", "/v1/compare", R"({"schedulers": [], "dataset": "chains"})"));
  EXPECT_EQ(resp.status, 400);

  // Unknown path: 404 with nearest-path suggestion.
  resp = service.handle(make_request("POST", "/v1/schedul", "{}"));
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("did you mean '/v1/schedule'"), std::string::npos) << resp.body;

  // Wrong method: 405 with Allow.
  resp = service.handle(make_request("GET", "/v1/schedule"));
  EXPECT_EQ(resp.status, 405);
  const std::string* allow = header_of(resp, "Allow");
  ASSERT_NE(allow, nullptr);
  EXPECT_EQ(*allow, "POST");
  resp = service.handle(make_request("POST", "/healthz"));
  EXPECT_EQ(resp.status, 405);

  // After every failure above, a good request still succeeds.
  resp = service.handle(
      make_request("POST", "/v1/schedule", schedule_body("HEFT", fig1_instance())));
  EXPECT_EQ(resp.status, 200) << resp.body;
}

TEST(ServeService, OutOfRangeSchedulerParameterIsAJson400) {
  ScheduleService service;
  const HttpResponse resp = service.handle(make_request(
      "POST", "/v1/schedule", R"({"scheduler": "WBA?tolerance=-1", "dataset": "chains"})"));
  EXPECT_EQ(resp.status, 400);
  const Json body = Json::parse(resp.body);
  EXPECT_NE(resp.body.find("tolerance"), std::string::npos) << resp.body;
  EXPECT_NE(body.find("error"), nullptr) << resp.body;
}

TEST(ServeService, HealthzIsStable) {
  ScheduleService service;
  const HttpResponse resp = service.handle(make_request("GET", "/healthz"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "{\"status\": \"ok\"}\n");
}

TEST(ServeService, MetricsAccountRequests) {
  ScheduleService service;
  const std::string good = schedule_body("HEFT", fig1_instance());
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 200);
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 200);
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", "nonsense")).status, 400);
  ASSERT_EQ(service
                .handle(make_request("POST", "/v1/compare",
                                     R"({"schedulers": ["HEFT"], "dataset": "chains"})"))
                .status,
            200);
  ASSERT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);

  EXPECT_EQ(service.telemetry().requests(Endpoint::kSchedule), 3u);
  EXPECT_EQ(service.telemetry().requests(Endpoint::kSchedule, 2), 2u);
  EXPECT_EQ(service.telemetry().requests(Endpoint::kSchedule, 4), 1u);
  EXPECT_EQ(service.telemetry().requests(Endpoint::kCompare), 1u);
  EXPECT_EQ(service.telemetry().requests(Endpoint::kHealthz), 1u);
  EXPECT_EQ(service.telemetry().requests_total(), 5u);
  EXPECT_EQ(service.telemetry().latency().count(), 5u);

  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
  // The /metrics request itself is stamped after its body renders, so the
  // exposition reports the five requests that preceded it.
  EXPECT_NE(metrics.body.find("saga_requests_total 5"), std::string::npos) << metrics.body;
  EXPECT_NE(metrics.body.find("saga_requests_total{endpoint=\"schedule\",status=\"2xx\"} 2"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("saga_requests_total{endpoint=\"schedule\",status=\"4xx\"} 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("saga_request_latency_us_bucket{le=\"+Inf\"} 5"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("saga_request_latency_p_us{p=\"99\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("saga_arena_reuse_total{kind=\"hit\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("saga_uptime_seconds"), std::string::npos);
}

TEST(ServeService, ArenaReuseIsCountedPerThreadAndService) {
  ScheduleService service;
  const std::string body = schedule_body("HEFT", fig1_instance());
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", body)).status, 200);
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", body)).status, 200);
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", body)).status, 200);
  // Same thread: first acquisition is cold, the rest reuse the warm arena.
  EXPECT_EQ(service.telemetry().arena_misses(), 1u);
  EXPECT_EQ(service.telemetry().arena_hits(), 2u);

  // A different service on the same thread gets its own arena (serial-keyed
  // cache), so its first acquisition is cold again.
  ScheduleService other;
  ASSERT_EQ(other.handle(make_request("POST", "/v1/schedule", body)).status, 200);
  EXPECT_EQ(other.telemetry().arena_misses(), 1u);
  EXPECT_EQ(other.telemetry().arena_hits(), 0u);

  // A different thread on the first service is cold once, then warm.
  std::thread worker([&service, &body] {
    ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", body)).status, 200);
    ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", body)).status, 200);
  });
  worker.join();
  EXPECT_EQ(service.telemetry().arena_misses(), 2u);
  EXPECT_EQ(service.telemetry().arena_hits(), 3u);
}

}  // namespace
}  // namespace saga::serve
