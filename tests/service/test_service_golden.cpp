// Golden service replies: replays the seeded session in
// golden_session.jsonl (make_golden_session.py writes it) through a
// WhatIfService and compares every reply with golden_replies.jsonl, the
// replies cosm_service gave when the recording was made.
//
// Bands.  Reply structure, strings, booleans, nulls and every other
// number — device counts, tier capacities and hit ratios, admitted rates,
// cache counters, ids — must be identical.  SLA percentiles may move by
// 1e-10.  A latency bound may move by kCdfErrorBudget / f, f the density
// at the bound: the system CDF at the recorded and at the new bound,
// asked of a second service with the same registrations, may differ by
// at most kCdfErrorBudget.  A change that moves a reply past its band on
// purpose re-records golden_replies.jsonl and says why.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "numerics/lt_inversion.hpp"
#include "service/service.hpp"

namespace cosm::service {
namespace {

using common::json_parse;
using common::JsonValue;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

JsonValue parse(const std::string& line) {
  const auto result = json_parse(line);
  EXPECT_TRUE(result.ok) << line << ": " << result.error;
  return result.value;
}

// A latency bound that moved: recorded and new values, in seconds.
struct MovedBound {
  double recorded;
  double now;
};

// Compares `got` with the recorded `want` under the bands above; `key`
// is the member name the values sit under.  Moved latency bounds are
// collected for the CDF check instead of compared here.
void compare(const JsonValue& want, const JsonValue& got, std::string_view key,
             std::vector<MovedBound>& moved) {
  ASSERT_EQ(want.type(), got.type()) << "member '" << key << "'";
  switch (want.type()) {
    case JsonValue::Type::kNull:
      return;
    case JsonValue::Type::kBool:
      EXPECT_EQ(want.as_bool(), got.as_bool()) << "member '" << key << "'";
      return;
    case JsonValue::Type::kString:
      EXPECT_EQ(want.as_string(), got.as_string()) << "member '" << key << "'";
      return;
    case JsonValue::Type::kNumber: {
      const double w = want.as_number();
      const double g = got.as_number();
      if (key == "percentile" || key == "percentiles") {
        EXPECT_LE(std::fabs(w - g), 1e-10) << "member '" << key << "'";
      } else if (key == "latency" || key == "latencies") {
        if (w != g) moved.push_back({w, g});
      } else {
        EXPECT_EQ(w, g) << "member '" << key << "'";
      }
      return;
    }
    case JsonValue::Type::kArray: {
      ASSERT_EQ(want.items().size(), got.items().size())
          << "member '" << key << "'";
      for (std::size_t i = 0; i < want.items().size(); ++i) {
        compare(want.items()[i], got.items()[i], key, moved);
      }
      return;
    }
    case JsonValue::Type::kObject: {
      ASSERT_EQ(want.members().size(), got.members().size())
          << "member '" << key << "'";
      for (std::size_t i = 0; i < want.members().size(); ++i) {
        const auto& [want_key, want_value] = want.members()[i];
        const auto& [got_key, got_value] = got.members()[i];
        ASSERT_EQ(want_key, got_key) << "in member '" << key << "'";
        compare(want_value, got_value, want_key, moved);
      }
      return;
    }
  }
}

TEST(ServiceGolden, RepliesMatchRecording) {
  const std::string dir = COSM_SERVICE_GOLDEN_DIR;
  const std::vector<std::string> session =
      read_lines(dir + "/golden_session.jsonl");
  const std::vector<std::string> recorded =
      read_lines(dir + "/golden_replies.jsonl");
  ASSERT_FALSE(session.empty());
  ASSERT_EQ(session.size(), recorded.size());

  WhatIfService service;
  // Shares every registration with `service` and answers the CDF checks
  // of moved latency bounds, so `service`'s cache and counters see only
  // the session.
  WhatIfService oracle;
  std::size_t identical = 0;
  for (std::size_t i = 0; i < session.size(); ++i) {
    SCOPED_TRACE("session line " + std::to_string(i + 1) + ": " + session[i]);
    const std::string reply = service.handle_line(session[i]);
    if (reply == recorded[i]) {
      ++identical;
    } else {
      std::vector<MovedBound> moved;
      compare(parse(recorded[i]), parse(reply), "", moved);
      const JsonValue request = parse(session[i]);
      for (const MovedBound& bound : moved) {
        JsonValue check = request;
        check.set("op", "sla");
        JsonValue slas = JsonValue::array();
        slas.push_back(bound.recorded);
        slas.push_back(bound.now);
        check.set("slas", std::move(slas));
        const JsonValue answer = parse(oracle.handle_line(check.dump()));
        const JsonValue* cdfs = answer.find("percentiles");
        ASSERT_NE(cdfs, nullptr) << answer.dump();
        EXPECT_LE(std::fabs(cdfs->items()[0].as_number() -
                            cdfs->items()[1].as_number()),
                  numerics::kCdfErrorBudget)
            << "latency bound " << bound.recorded << " -> " << bound.now;
      }
    }
    const std::string op = parse(session[i]).string_or("op", "");
    if (op == "register" || op == "calibrate") oracle.handle_line(session[i]);
  }
  RecordProperty("replies", static_cast<int>(session.size()));
  RecordProperty("byte_identical_replies", static_cast<int>(identical));
}

}  // namespace
}  // namespace cosm::service
