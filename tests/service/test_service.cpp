// WhatIfService protocol round-trips: registration, every query op, the
// error paths (which must produce {"ok": false} lines, never throw), id
// correlation, and determinism.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "calibration/online_metrics.hpp"
#include "common/json.hpp"
#include "core/params.hpp"
#include "obs/obs.hpp"

namespace cosm::service {
namespace {

using common::json_parse;
using common::JsonValue;

JsonValue parse_response(const std::string& line) {
  const auto result = json_parse(line);
  EXPECT_TRUE(result.ok) << line << ": " << result.error;
  EXPECT_TRUE(result.value.is_object()) << line;
  return result.value;
}

constexpr const char* kRegisterA =
    R"({"op":"register","cluster":"a","rate":400,"devices":8})";

TEST(WhatIfService, RegisterThenSlaRoundTrip) {
  WhatIfService service;
  const JsonValue reg = parse_response(service.handle_line(kRegisterA));
  EXPECT_TRUE(reg.bool_or("ok", false));
  EXPECT_EQ(reg.string_or("cluster", ""), "a");

  const JsonValue sla = parse_response(
      service.handle_line(R"({"op":"sla","cluster":"a","sla":0.1})"));
  ASSERT_TRUE(sla.bool_or("ok", false));
  const double p = sla.number_or("percentile", -1.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  // A looser bound is met by at least as many requests.
  const JsonValue looser = parse_response(
      service.handle_line(R"({"op":"sla","cluster":"a","sla":0.5})"));
  EXPECT_GE(looser.number_or("percentile", -1.0), p);
}

TEST(WhatIfService, SlaLadderMatchesSingleProbes) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const JsonValue ladder = parse_response(service.handle_line(
      R"({"op":"sla","cluster":"a","slas":[0.05,0.1,0.25]})"));
  ASSERT_TRUE(ladder.bool_or("ok", false));
  const JsonValue* percentiles = ladder.find("percentiles");
  ASSERT_NE(percentiles, nullptr);
  ASSERT_EQ(percentiles->items().size(), 3u);
  const std::vector<double> slas = {0.05, 0.1, 0.25};
  for (std::size_t i = 0; i < slas.size(); ++i) {
    const JsonValue single = parse_response(service.handle_line(
        R"({"op":"sla","cluster":"a","sla":)" + std::to_string(slas[i]) +
        "}"));
    EXPECT_EQ(single.number_or("percentile", -1.0),
              percentiles->items()[i].as_number())
        << "sla " << slas[i];
  }
}

TEST(WhatIfService, QuantileInvertsSla) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const JsonValue quant = parse_response(
      service.handle_line(R"({"op":"quantile","cluster":"a","p":0.95})"));
  ASSERT_TRUE(quant.bool_or("ok", false));
  const double t95 = quant.number_or("latency", -1.0);
  ASSERT_GT(t95, 0.0);
  // The p-quantile's SLA probe must come back at (or just above) p.
  const JsonValue back = parse_response(service.handle_line(
      R"({"op":"sla","cluster":"a","sla":)" + std::to_string(t95) + "}"));
  EXPECT_NEAR(back.number_or("percentile", -1.0), 0.95, 5e-3);
}

TEST(WhatIfService, QuantileLadderElementsMatchSingleQueriesByteForByte) {
  // Separate services, so neither side is served from the other's cache.
  WhatIfService ladder_service;
  ladder_service.handle_line(kRegisterA);
  const std::string ladder = ladder_service.handle_line(
      R"({"op":"quantile","cluster":"a","ps":[0.5,0.9,0.99]})");
  const std::size_t open = ladder.find('[');
  const std::size_t close = ladder.find(']', open);
  ASSERT_NE(close, std::string::npos) << ladder;
  std::vector<std::string> elements;
  for (std::size_t begin = open + 1; begin <= close;) {
    const std::size_t end = std::min(ladder.find(',', begin), close);
    elements.push_back(ladder.substr(begin, end - begin));
    begin = end + 1;
  }
  const std::vector<std::string> ps = {"0.5", "0.9", "0.99"};
  ASSERT_EQ(elements.size(), ps.size()) << ladder;

  WhatIfService single_service;
  single_service.handle_line(kRegisterA);
  const std::string key = R"("latency":)";
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const std::string single = single_service.handle_line(
        R"({"op":"quantile","cluster":"a","p":)" + ps[i] + "}");
    const std::size_t at = single.find(key);
    ASSERT_NE(at, std::string::npos) << single;
    const std::size_t begin = at + key.size();
    EXPECT_EQ(single.substr(begin, single.find('}', begin) - begin),
              elements[i])
        << "p " << ps[i];
  }
}

TEST(WhatIfService, DevicesAndCapacityPlanning) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const JsonValue devices = parse_response(service.handle_line(
      R"({"op":"devices","cluster":"a","sla":0.1,"percentile":0.9})"));
  ASSERT_TRUE(devices.bool_or("ok", false));
  const double need = devices.number_or("devices", -1.0);
  EXPECT_GE(need, 1.0);

  const JsonValue capacity = parse_response(service.handle_line(
      R"({"op":"capacity","cluster":"a","sla":0.1,"percentile":0.5})"));
  ASSERT_TRUE(capacity.bool_or("ok", false));
  EXPECT_GT(capacity.number_or("max_rate", -1.0), 0.0);
}

TEST(WhatIfService, TierSizeFindsSmallestSufficientTier) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  // Base cluster sits near p52 at 100 ms; a relaxed 60th-percentile
  // target is reachable with a modest SSD tier.
  const JsonValue tier = parse_response(service.handle_line(
      R"({"op":"tier_size","cluster":"a","sla":0.1,"percentile":0.6,)"
      R"("capacities":[0,1024,4096,16384]})"));
  ASSERT_TRUE(tier.bool_or("ok", false));
  ASSERT_TRUE(tier.bool_or("found", false));
  EXPECT_GT(tier.number_or("capacity_chunks", -1.0), 0.0);
  EXPECT_GT(tier.number_or("hit_ratio", -1.0), 0.0);
  EXPECT_GE(tier.number_or("percentile", -1.0), 0.6);
}

TEST(WhatIfService, ListAndStatsReflectRegistry) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  service.handle_line(
      R"({"op":"register","cluster":"b","rate":300,"devices":6})");
  const JsonValue list = parse_response(service.handle_line(R"({"op":"list"})"));
  ASSERT_TRUE(list.bool_or("ok", false));
  const JsonValue* clusters = list.find("clusters");
  ASSERT_NE(clusters, nullptr);
  ASSERT_EQ(clusters->items().size(), 2u);
  // Sorted, so list output does not depend on hash-map iteration order.
  EXPECT_EQ(clusters->items()[0].as_string(), "a");
  EXPECT_EQ(clusters->items()[1].as_string(), "b");

  service.handle_line(R"({"op":"sla","cluster":"a","sla":0.1})");
  const JsonValue response = parse_response(
      service.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  const JsonValue* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("clusters", -1.0), 2.0);
  // Two shared caches: compiled device models and CDF answers.
  EXPECT_EQ(stats->find("backend_cache"), nullptr);
  ASSERT_NE(stats->find("cdf_cache"), nullptr);
  const JsonValue* device = stats->find("device_cache");
  ASSERT_NE(device, nullptr);
  EXPECT_EQ(device->find("shards"), nullptr);  // one LRU, no stripes
  // Cluster a's 8 identical devices are one device-model build.
  EXPECT_EQ(device->number_or("misses", -1.0), 1.0);
  EXPECT_EQ(device->number_or("hits", -1.0), 0.0);
}

TEST(WhatIfService, StatsCountsRequestsErrorsAndPredictionsWithoutTracing) {
  obs::set_enabled(false);
  // Eight requests, the stats request included; two of them fail.
  WhatIfService service;
  service.handle_line(kRegisterA);
  service.handle_line(R"({"op":"sla","cluster":"a","slas":[0.05,0.1,0.2]})");
  service.handle_line(R"({"op":"quantile","cluster":"a","p":0.95})");
  service.handle_line(R"({"op":"sla","cluster":"a","sla":0.1,"rate":20000})");
  service.handle_line(R"({"op":"sla","cluster":"ghost","sla":0.1})");
  service.handle_line("not json");
  service.handle_line(R"({"op":"list"})");
  const JsonValue response =
      parse_response(service.handle_line(R"({"op":"stats"})"));
  const JsonValue* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("requests", -1.0), 8.0);
  EXPECT_EQ(stats->number_or("errors", -1.0), 2.0);
  // Three SLA bounds, one quantile, and the overloaded SLA's answer.
  EXPECT_EQ(stats->number_or("predictions", -1.0), 5.0);
  // The counts belong to the service, not to the process.
  WhatIfService fresh;
  const JsonValue first =
      parse_response(fresh.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(first.find("stats")->number_or("requests", -1.0), 1.0);
  EXPECT_EQ(first.find("stats")->number_or("predictions", -1.0), 0.0);
}

TEST(WhatIfService, IdIsEchoedVerbatim) {
  WhatIfService service;
  const JsonValue reg = parse_response(service.handle_line(
      R"({"op":"register","cluster":"a","rate":400,"devices":8,"id":"req-17"})"));
  EXPECT_EQ(reg.string_or("id", ""), "req-17");
  // Echoed on errors too — correlation must survive failure.
  const JsonValue err = parse_response(
      service.handle_line(R"({"op":"nope","id":"req-18"})"));
  EXPECT_FALSE(err.bool_or("ok", true));
  EXPECT_EQ(err.string_or("id", ""), "req-18");
}

TEST(WhatIfService, IdEchoFollowsTheDuplicateKeyRule) {
  WhatIfService service;
  // Any JSON value is echoed as parsed; a repeated "id" echoes its last
  // value, and the reply's own member order is fixed (ok, id, ...).
  EXPECT_EQ(service.handle_line(
                R"({"id":{"x":[1,"two",null]},"op":"list","id":[3,"\u0041"]})"),
            R"({"ok":true,"id":[3,"A"],"clusters":[]})");
  EXPECT_EQ(service.handle_line(R"({"op":"nope","id":-0.5,"id":1e2})"),
            R"({"ok":false,"id":100,"error":"unknown op 'nope'"})");
}

TEST(WhatIfService, ErrorPathsNeverThrow) {
  WhatIfService service;
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"no_op\":1}",
      R"({"op":"unknown_op"})",
      R"({"op":"sla","cluster":"ghost","sla":0.1})",
      R"({"op":"sla","cluster":"a"})",  // registered below, missing sla
      R"({"op":"register","cluster":"a","rate":-5,"devices":8})",
      R"({"op":"register","cluster":"a","rate":400,"devices":0})",
  };
  service.handle_line(kRegisterA);
  for (const std::string& line : bad) {
    const JsonValue response = parse_response(service.handle_line(line));
    EXPECT_FALSE(response.bool_or("ok", true)) << line;
    EXPECT_FALSE(response.string_or("error", "").empty()) << line;
  }
  // The service survives all of it and still answers.
  const JsonValue ok = parse_response(
      service.handle_line(R"({"op":"sla","cluster":"a","sla":0.1})"));
  EXPECT_TRUE(ok.bool_or("ok", false));
}

// ---- count fields ----

// A request line that carries `value` in the count field `field`, and is
// otherwise valid against kRegisterA.
std::string count_line(const std::string& field, const std::string& value) {
  if (field == "devices" || field == "processes" ||
      field == "frontend_processes") {
    return R"({"op":"register","cluster":"b","rate":400,")" + field +
           "\":" + value + "}";
  }
  if (field == "min" || field == "max") {
    return R"({"op":"devices","cluster":"a","sla":0.1,"percentile":0.9,")" +
           field + "\":" + value + "}";
  }
  if (field == "objects" || field == "capacities" || field == "mem_chunks") {
    const std::string capacities =
        field == "capacities" ? "[0," + value + "]" : "[0,64]";
    const std::string extra =
        field == "capacities" ? "" : ",\"" + field + "\":" + value;
    return R"({"op":"tier_size","cluster":"a","sla":0.1,"percentile":0.6,)"
           R"("capacities":)" +
           capacities + extra + "}";
  }
  return R"({"op":"calibrate","cluster":"a","rate":400,"mean_service_ms":5,")" +
         field + "\":" + value + "}";
}

class CountField : public ::testing::TestWithParam<std::string> {};

TEST_P(CountField, RefusesNonIntegralNegativeAndOutOfRangeValues) {
  const std::string& field = GetParam();
  const std::string bound = field == "objects" || field == "capacities" ||
                                    field == "mem_chunks"
                                ? std::to_string(kMaxChunkCount)
                                : std::to_string(kMaxUnitCount);
  for (const std::string& value :
       {std::string("2.7"), std::string("-1"), std::string("1e20"),
        std::string("5e9"), bound + "1"}) {
    WhatIfService service;
    service.handle_line(kRegisterA);
    const std::string line = count_line(field, value);
    const JsonValue response = parse_response(service.handle_line(line));
    EXPECT_FALSE(response.bool_or("ok", true)) << line;
    const std::string error = response.string_or("error", "");
    EXPECT_EQ(error.find("internal error"), std::string::npos) << line;
    // A negative value may meet a field's own lower-bound check first
    // ("'devices' must be >= 1"); every other value meets the count rule.
    if (value != "-1") {
      EXPECT_EQ(error, "'" + field + "' must be a non-negative integer <= " +
                           bound)
          << line;
    }
  }
  // The same line with a whole in-range value is answered.
  WhatIfService service;
  service.handle_line(kRegisterA);
  const std::string line = count_line(field, "2");
  EXPECT_TRUE(parse_response(service.handle_line(line)).bool_or("ok", false))
      << line;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, CountField,
    ::testing::Values("devices", "processes", "frontend_processes", "min",
                      "max", "objects", "capacities", "mem_chunks",
                      "warmup_windows", "confirm_windows",
                      "cooldown_windows"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(WhatIfService, CapacitySearchEndsForAToleranceBelowDoubleSpacing) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const JsonValue response = parse_response(service.handle_line(
      R"({"op":"capacity","cluster":"a","sla":0.1,"percentile":0.5,)"
      R"("tolerance":1e-300})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  EXPECT_GT(response.number_or("max_rate", -1.0), 0.0);
}

TEST(WhatIfService, OverloadIsAResultNotAnError) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  // 50x the registered rate saturates the cluster: the what-if convention
  // reports percentile 0 with an overloaded marker, not an error.
  const JsonValue response = parse_response(service.handle_line(
      R"({"op":"sla","cluster":"a","sla":0.1,"rate":20000})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  EXPECT_TRUE(response.bool_or("overloaded", false));
  EXPECT_EQ(response.number_or("percentile", -1.0), 0.0);
}

TEST(WhatIfService, RepeatedQueriesAreByteIdentical) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const std::string query = R"({"op":"sla","cluster":"a","slas":[0.05,0.1]})";
  const std::string first = service.handle_line(query);
  // Second time is served from the shared cache; bytes must not change.
  EXPECT_EQ(service.handle_line(query), first);
  EXPECT_EQ(service.handle_line(query), first);
}

TEST(WhatIfService, ConcurrentMixedTenantsStayConsistent) {
  WhatIfService service;
  std::vector<std::string> registrations;
  for (int t = 0; t < 4; ++t) {
    registrations.push_back(R"({"op":"register","cluster":"t)" +
                            std::to_string(t) + R"(","rate":)" +
                            std::to_string(300 + 50 * t) + R"(,"devices":8})");
    ASSERT_TRUE(parse_response(service.handle_line(registrations.back()))
                    .bool_or("ok", false));
  }
  // One reference response per tenant, computed single-threaded.
  std::vector<std::string> queries;
  std::vector<std::string> expected;
  for (int t = 0; t < 4; ++t) {
    queries.push_back(R"({"op":"sla","cluster":"t)" + std::to_string(t) +
                      R"(","slas":[0.05,0.1]})");
    expected.push_back(service.handle_line(queries.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  // Re-registering a tenant with identical fields swaps in a new Cluster
  // (new distribution objects) under the queries' feet; equal values
  // must keep every reply byte-identical.
  workers.emplace_back([&] {
    for (int round = 0; round < 20; ++round) {
      const std::string reply =
          service.handle_line(registrations[round % registrations.size()]);
      if (reply.find(R"("ok":true)") == std::string::npos) ++mismatches;
    }
  });
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 20; ++round) {
        const std::size_t t = static_cast<std::size_t>((w + round) % 4);
        if (service.handle_line(queries[t]) != expected[t]) ++mismatches;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- online calibration ops (calibrate / drift_status) ----

bool alarms_contain(const JsonValue& response, const std::string& name) {
  const JsonValue* alarms = response.find("alarms");
  if (alarms == nullptr) return false;
  for (const JsonValue& alarm : alarms->items()) {
    if (alarm.is_string() && alarm.as_string() == name) return true;
  }
  return false;
}

std::string calibrate_line(double rate, double mean_service_ms,
                           bool first = false) {
  std::string line = R"({"op":"calibrate","cluster":"a","rate":)" +
                     std::to_string(rate) + R"(,"mean_service_ms":)" +
                     std::to_string(mean_service_ms);
  if (first) {
    // Latch tight knobs at the first call so the test stays short.
    line += R"(,"warmup_windows":2,"confirm_windows":2,"cooldown_windows":1)";
  }
  return line + "}";
}

TEST(WhatIfServiceDrift, CalibrateRefitsSpecOnConfirmedShift) {
  WhatIfService service;
  service.handle_line(kRegisterA);

  // Before any calibrate call the loop is idle.
  const JsonValue idle = parse_response(
      service.handle_line(R"({"op":"drift_status","cluster":"a"})"));
  ASSERT_TRUE(idle.bool_or("ok", false));
  EXPECT_EQ(idle.string_or("verdict", ""), "idle");

  // Stationary stream: warmup, then stable — never a re-fit.
  JsonValue response =
      parse_response(service.handle_line(calibrate_line(400, 5, true)));
  EXPECT_EQ(response.string_or("verdict", ""), "warmup");
  response = parse_response(service.handle_line(calibrate_line(400, 5)));
  EXPECT_EQ(response.string_or("verdict", ""), "warmup");
  response = parse_response(service.handle_line(calibrate_line(400, 5)));
  EXPECT_EQ(response.string_or("verdict", ""), "stable");
  EXPECT_FALSE(response.bool_or("refit", true));

  // Answer a what-if at the published spec, so the re-fit below has a
  // device-model entry to evict.
  ASSERT_TRUE(parse_response(service.handle_line(
                                 R"({"op":"sla","cluster":"a","sla":0.5})"))
                  .bool_or("ok", false));

  // 2x rate shift: alarm, then confirmed drift with an in-place re-fit.
  response = parse_response(service.handle_line(calibrate_line(800, 5)));
  EXPECT_EQ(response.string_or("verdict", ""), "alarm");
  EXPECT_TRUE(alarms_contain(response, "arrival_rate"));
  response = parse_response(service.handle_line(calibrate_line(800, 5)));
  ASSERT_TRUE(response.bool_or("ok", false));
  EXPECT_EQ(response.string_or("verdict", ""), "drift");
  EXPECT_TRUE(response.bool_or("refit", false));
  EXPECT_DOUBLE_EQ(response.number_or("rate", 0.0), 800.0);
  EXPECT_DOUBLE_EQ(response.number_or("evictions", -1.0), 1.0);

  // The registered family now answers what-ifs at the drifted rate.
  const JsonValue status = parse_response(
      service.handle_line(R"({"op":"drift_status","cluster":"a"})"));
  EXPECT_DOUBLE_EQ(status.number_or("rate", 0.0), 800.0);
  EXPECT_DOUBLE_EQ(status.number_or("refits", 0.0), 1.0);
  EXPECT_EQ(status.string_or("verdict", ""), "drift");
  EXPECT_DOUBLE_EQ(status.number_or("windows", 0.0), 5.0);
  const JsonValue sla = parse_response(
      service.handle_line(R"({"op":"sla","cluster":"a","sla":0.5})"));
  EXPECT_TRUE(sla.bool_or("ok", false));
}

// After a confirmed-drift re-fit the family must answer exactly as one
// registered fresh with the re-fitted fields: the re-fit rebuilds the
// family's distribution objects, so nothing of the old ones may survive
// in a reply, cached or not.
TEST(WhatIfServiceDrift, RefitAnswersMatchFreshRegistration) {
  const std::vector<std::string> queries = {
      R"({"op":"sla","cluster":"a","slas":[0.05,0.1,0.25]})",
      R"({"op":"sla","cluster":"a","sla":0.5,"rate":900,"devices":10})",
      R"({"op":"quantile","cluster":"a","p":0.95})"};
  WhatIfService service;
  service.handle_line(kRegisterA);
  service.handle_line(calibrate_line(400, 5, true));
  service.handle_line(calibrate_line(400, 5));
  service.handle_line(calibrate_line(400, 5));
  for (const std::string& query : queries) service.handle_line(query);
  service.handle_line(calibrate_line(800, 5));
  ASSERT_TRUE(parse_response(service.handle_line(calibrate_line(800, 5)))
                  .bool_or("refit", false));

  // The re-fit as op_calibrate computes it from kRegisterA's spec and the
  // drifted window (rate 800, 5 ms, every other signal at the spec).
  ClusterSpec spec;
  spec.rate = 400.0;
  spec.devices = 8;
  const double rate = 800.0;
  const double data_read_rate = rate * spec.data_read_factor;
  const double mean_i = spec.index_disk_shape / spec.index_disk_rate;
  const double mean_m = spec.meta_disk_shape / spec.meta_disk_rate;
  const double mean_d = spec.data_disk_shape / spec.data_disk_rate;
  const double total = mean_i + mean_m + mean_d;
  const calibration::ServiceSplit split = calibration::split_disk_service(
      5.0 * 1e-3, mean_i / total, mean_m / total, mean_d / total,
      spec.index_miss, spec.meta_miss, spec.data_miss, rate, data_read_rate);
  JsonValue refitted = JsonValue::object();
  refitted.set("op", "register");
  refitted.set("cluster", "a");
  refitted.set("rate", rate);
  refitted.set("devices", 8);
  refitted.set("data_read_factor", data_read_rate / rate);
  refitted.set("index_disk_rate", spec.index_disk_shape / split.index_mean);
  refitted.set("meta_disk_rate", spec.meta_disk_shape / split.meta_mean);
  refitted.set("data_disk_rate", spec.data_disk_shape / split.data_mean);
  WhatIfService fresh;
  ASSERT_TRUE(parse_response(fresh.handle_line(refitted.dump()))
                  .bool_or("ok", false));
  for (const std::string& query : queries) {
    EXPECT_EQ(service.handle_line(query), fresh.handle_line(query)) << query;
  }
}

TEST(WhatIfServiceDrift, InsufficientWindowIsSkippedNotScored) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  const JsonValue thin = parse_response(service.handle_line(
      R"({"op":"calibrate","cluster":"a","rate":400,"mean_service_ms":5,)"
      R"("samples":5,"min_samples":50})"));
  ASSERT_TRUE(thin.bool_or("ok", false));
  EXPECT_EQ(thin.string_or("verdict", ""), "insufficient");
  EXPECT_FALSE(thin.bool_or("refit", true));
  const JsonValue status = parse_response(
      service.handle_line(R"({"op":"drift_status","cluster":"a"})"));
  EXPECT_DOUBLE_EQ(status.number_or("windows", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(status.number_or("insufficient", 0.0), 1.0);
}

TEST(WhatIfServiceDrift, CalibrateErrorPaths) {
  WhatIfService service;
  service.handle_line(kRegisterA);
  // Unknown cluster, bad rate, and the r_d >= r identity all come back
  // as error lines, never throws.
  JsonValue response = parse_response(service.handle_line(
      R"({"op":"calibrate","cluster":"nope","rate":400,"mean_service_ms":5})"));
  EXPECT_FALSE(response.bool_or("ok", true));
  response = parse_response(service.handle_line(
      R"({"op":"calibrate","cluster":"a","rate":0,"mean_service_ms":5})"));
  EXPECT_FALSE(response.bool_or("ok", true));
  response = parse_response(service.handle_line(
      R"({"op":"calibrate","cluster":"a","rate":400,"mean_service_ms":5,)"
      R"("data_read_rate":100})"));
  EXPECT_FALSE(response.bool_or("ok", true));
  response = parse_response(
      service.handle_line(R"({"op":"drift_status","cluster":"nope"})"));
  EXPECT_FALSE(response.bool_or("ok", true));
}

TEST(ClusterSpec, BuildValidatesAndSplitsTrafficEvenly) {
  const Cluster cluster{ClusterSpec{}};
  const core::SystemParams params = cluster.build(400.0, 8);
  params.validate();
  EXPECT_EQ(params.devices.size(), 8u);
  const core::SystemParams wider = cluster.build(400.0, 16);
  EXPECT_EQ(wider.devices.size(), 16u);
  // Every build shares the cluster's distribution objects.
  EXPECT_EQ(params.devices.front().data_disk, wider.devices.back().data_disk);
  EXPECT_EQ(params.frontend.frontend_parse, wider.frontend.frontend_parse);
}

}  // namespace
}  // namespace cosm::service
