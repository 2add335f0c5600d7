#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>

#include "exp/json.hpp"
#include "graph/problem_instance.hpp"
#include "serve/admission.hpp"
#include "serve/codec.hpp"
#include "serve/service.hpp"

/// Admission-control contracts: the policy in isolation
/// (AdmissionController), then the ScheduleService wiring under synthetic
/// pressure — unit-level so the 429 path is deterministic, no real socket
/// load needed.

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

std::string schedule_body() {
  return Json::object({{"scheduler", Json::string("HEFT")},
                       {"instance", instance_to_json(fig1_instance())}})
      .dump();
}

const std::string* header_of(const HttpResponse& resp, const std::string& name) {
  for (const auto& [key, value] : resp.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(AdmissionPolicy, ZeroLimitsAdmitEverythingAndAxesAreIndependent) {
  const AdmissionController unlimited(AdmissionController::Limits{0, 0});
  EXPECT_TRUE(unlimited.admit(1'000'000, 1'000'000));

  const AdmissionController queue_only(AdmissionController::Limits{2, 0});
  EXPECT_TRUE(queue_only.admit(2, 1'000));   // at the limit: admitted
  EXPECT_FALSE(queue_only.admit(3, 0));      // over the queue limit
  EXPECT_TRUE(queue_only.admit(0, 1'000));   // inflight axis unlimited

  const AdmissionController inflight_only(AdmissionController::Limits{0, 4});
  EXPECT_TRUE(inflight_only.admit(1'000, 4));
  EXPECT_FALSE(inflight_only.admit(0, 5));

  EXPECT_TRUE(AdmissionController::exempt_target("/healthz"));
  EXPECT_TRUE(AdmissionController::exempt_target("/metrics"));
  EXPECT_FALSE(AdmissionController::exempt_target("/v1/schedule"));
  EXPECT_FALSE(AdmissionController::exempt_target("/v1/compare"));
}

TEST(AdmissionPolicy, RetryAfterDerivesFromObservedP50AndBacklog) {
  AdmissionController admission(AdmissionController::Limits{1, 0});
  // No observations yet: the estimate floors at 1 second.
  EXPECT_EQ(admission.retry_after_seconds(10, 2), 1);

  // p50 lands on the 5e5 µs bucket bound (0.5 s); backlog of
  // queued=3 + inflight=1 + itself=1 → ceil(0.5 * 5) = 3 seconds.
  for (int i = 0; i < 8; ++i) admission.record_service_us(5e5);
  EXPECT_EQ(admission.retry_after_seconds(3, 1), 3);

  // The advice is clamped to 60 seconds no matter the backlog.
  EXPECT_EQ(admission.retry_after_seconds(1'000, 1'000), 60);
}

TEST(AdmissionPolicy, ShedResponseIsDeterministicAndCounted) {
  AdmissionController admission(AdmissionController::Limits{1, 0});
  EXPECT_EQ(admission.shed_total(), 0u);

  const HttpResponse first = admission.shed_response(5, 2);
  const HttpResponse second = admission.shed_response(5, 2);
  EXPECT_EQ(first.status, 429);
  EXPECT_EQ(first.body, AdmissionController::shed_body());
  EXPECT_EQ(second.body, first.body);  // byte-identical overload answers
  EXPECT_EQ(admission.shed_total(), 2u);

  // The fixed body is valid JSON with the documented error key.
  const Json parsed = Json::parse(first.body);
  ASSERT_NE(parsed.find("error"), nullptr);

  // Load-derived advice travels in the header, not the body.
  const std::string* retry = header_of(first, "Retry-After");
  ASSERT_NE(retry, nullptr);
  EXPECT_GE(std::stoi(*retry), 1);
  EXPECT_LE(std::stoi(*retry), 60);
}

TEST(ServeServiceAdmission, ShedsUnderSyntheticQueuePressureAndRecovers) {
  AdmissionController admission(AdmissionController::Limits{2, 0});
  ScheduleService::Options options;
  options.admission = &admission;
  ScheduleService service(options);

  std::atomic<std::size_t> queue_depth{0};
  service.set_gauge_sampler([&queue_depth] {
    Telemetry::Gauges gauges;
    gauges.queue_depth = queue_depth.load(std::memory_order_relaxed);
    return gauges;
  });

  const std::string good = schedule_body();
  ASSERT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 200);

  queue_depth.store(3, std::memory_order_relaxed);  // over max_queue = 2
  const HttpResponse shed = service.handle(make_request("POST", "/v1/schedule", good));
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.body, AdmissionController::shed_body());
  ASSERT_NE(header_of(shed, "Retry-After"), nullptr);
  // The shed fast path carries no wall-clock header: apart from
  // Retry-After the whole answer is deterministic.
  EXPECT_EQ(header_of(shed, "X-Saga-Timing-Us"), nullptr);

  const HttpResponse again = service.handle(make_request("POST", "/v1/compare", good));
  EXPECT_EQ(again.status, 429);
  EXPECT_EQ(again.body, shed.body);

  // Scrapes and liveness probes are never shed, even at full pressure.
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);
  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("saga_admission_shed_total 2"), std::string::npos)
      << metrics.body;

  // Sheds are accounted into the regular status-class counters.
  EXPECT_EQ(service.telemetry().requests(Endpoint::kSchedule, 4), 1u);
  EXPECT_EQ(service.telemetry().requests(Endpoint::kCompare, 4), 1u);

  // Pressure gone: the same request is admitted again.
  queue_depth.store(0, std::memory_order_relaxed);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 200);
  EXPECT_EQ(admission.shed_total(), 2u);
}

TEST(ServeServiceAdmission, InflightAxisShedsIndependently) {
  AdmissionController admission(AdmissionController::Limits{0, 1});
  ScheduleService::Options options;
  options.admission = &admission;
  ScheduleService service(options);

  std::atomic<std::size_t> inflight{0};
  service.set_gauge_sampler([&inflight] {
    Telemetry::Gauges gauges;
    gauges.inflight = inflight.load(std::memory_order_relaxed);
    return gauges;
  });

  const std::string good = schedule_body();
  inflight.store(1, std::memory_order_relaxed);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 200);
  inflight.store(2, std::memory_order_relaxed);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/schedule", good)).status, 429);
}

}  // namespace
}  // namespace saga::serve
