// Seeded, deterministic fuzzing of the service's untrusted-input boundary:
// common::json_parse and WhatIfService::handle_line.
//
// The corpus holds one well-formed line per protocol op.  Each iteration
// mutates a corpus line (value swaps with boundary numbers, byte flips,
// inserts, deletes, duplications, splices) and feeds it to the parser and
// to one long-lived service, so mutated registrations and re-fits carry
// into the queries after them.  The budget is a fixed iteration count per
// seed, never a wall-clock limit, so a run is reproducible bit for bit.
//
// Invariants, for every input:
//   json_parse   never throws; a document it accepts re-serializes to a
//                fixed point (dump(parse(dump(v))) == dump(v));
//   handle_line  never throws; every reply parses as a JSON object with
//                a bool "ok", and a refusal carries a string "error".
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "service/service.hpp"

namespace cosm::service {
namespace {

using common::json_parse;
using common::JsonParseResult;
using common::JsonValue;

// One line per protocol op.
const std::vector<std::string> kCorpus = {
    R"({"op":"register","cluster":"a","rate":400,"devices":8,"processes":1,)"
    R"("frontend_processes":3,"data_miss":0.7,"index_disk_shape":3,)"
    R"("index_disk_rate":300})",
    R"({"op":"sla","cluster":"a","sla":0.1,"id":7})",
    R"({"op":"sla","cluster":"a","slas":[0.05,0.1,0.25],"rate":480,)"
    R"("devices":10})",
    R"({"op":"quantile","cluster":"a","p":0.95,"id":"q"})",
    R"({"op":"quantile","cluster":"a","ps":[0.5,0.9,0.99],"rate":320})",
    R"({"op":"devices","cluster":"a","sla":0.1,"percentile":0.9,"min":1,)"
    R"("max":64})",
    R"({"op":"capacity","cluster":"a","sla":0.1,"percentile":0.5,)"
    R"("devices":8,"rate_limit":1600,"tolerance":0.5})",
    R"({"op":"tier_size","cluster":"a","sla":0.1,"percentile":0.6,)"
    R"("capacities":[0,1024],"objects":2000,"zipf_skew":0.9,"chunk_kb":64,)"
    R"("mem_chunks":256,"ssd_read_ms":0.4,"ssd_write_ms":0.6})",
    R"({"op":"calibrate","cluster":"a","rate":400,"mean_service_ms":5,)"
    R"("samples":100,"min_samples":10,"warmup_windows":2,)"
    R"("confirm_windows":2,"cooldown_windows":1})",
    R"({"op":"drift_status","cluster":"a"})",
    R"({"op":"list","id":[1,{"k":null}]})",
    R"({"op":"stats"})",
};

// Values swapped into a field: boundary numbers (zero, negatives,
// fractions, far out of range, denormal-small), wrong types, and tokens
// the JSON grammar rejects.
const std::vector<std::string> kValues = {
    "0",     "-1",    "1",      "2.7",    "0.5",  "-0",     "1e20",
    "-1e20", "5e9",   "1e-300", "1e308",  "4097", "1e400",  "\"x\"",
    "true",  "null",  "[]",     "{}",     "[1,-1]", "+5",   "01",
    ".5",    "1.",    "-",      "1e",     "0x10", "NaN",    "\"\\u0000\"",
};

// Characters the mutator flips in or inserts: JSON structure, number
// syntax, and a few raw control and high bytes.
constexpr char kAlphabet[] =
    "{}[]:,\"\\ 0123456789-+.eEtrufalsn\x01\x1f\x7f\xc3\xff";

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_index(n));
}

// Replaces the value after a randomly chosen ':' with one of kValues.
void swap_value(std::string& s, Rng& rng) {
  std::vector<std::size_t> colons;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == ':') colons.push_back(i);
  }
  if (colons.empty()) return;
  const std::size_t begin = colons[pick(rng, colons.size())] + 1;
  std::size_t end = begin;
  if (end < s.size() && (s[end] == '[' || s[end] == '{')) {
    const char close = s[end] == '[' ? ']' : '}';
    end = s.find(close, end);
    end = end == std::string::npos ? s.size() : end + 1;
  } else {
    while (end < s.size() && s[end] != ',' && s[end] != '}' &&
           s[end] != ']') {
      ++end;
    }
  }
  s.replace(begin, end - begin, kValues[pick(rng, kValues.size())]);
}

// Most mutants keep the line well formed and only swap field values, so
// they reach the ops' validation and the models behind it; the rest are
// byte-level edits that exercise the parser's error paths.
std::string mutate(std::string s, Rng& rng) {
  if (pick(rng, 5) < 3) {
    const std::size_t swaps = 1 + pick(rng, 2);
    for (std::size_t r = 0; r < swaps; ++r) swap_value(s, rng);
    return s;
  }
  const std::size_t at = pick(rng, s.size());
  const char c = kAlphabet[pick(rng, sizeof(kAlphabet) - 1)];
  switch (pick(rng, 5)) {
    case 0:
      s[at] = c;
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
      break;
    case 2:
      s.erase(at, 1 + pick(rng, 8));
      break;
    case 3:
      s.insert(at, s.substr(at, 1 + pick(rng, 16)));
      break;
    default: {
      // Splice: this line's prefix, another line's suffix.
      const std::string& other = kCorpus[pick(rng, kCorpus.size())];
      s = s.substr(0, at) + other.substr(pick(rng, other.size()));
      break;
    }
  }
  return s;
}

void check_parser(const std::string& line) {
  JsonParseResult parsed;
  ASSERT_NO_THROW(parsed = json_parse(line)) << line;
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << line;
    return;
  }
  const std::string dumped = parsed.value.dump();
  const JsonParseResult again = json_parse(dumped);
  ASSERT_TRUE(again.ok) << line << " -> " << dumped << ": " << again.error;
  EXPECT_EQ(again.value.dump(), dumped) << line;
}

void check_reply(WhatIfService& service, const std::string& line) {
  std::string reply;
  ASSERT_NO_THROW(reply = service.handle_line(line)) << line;
  const JsonParseResult parsed = json_parse(reply);
  ASSERT_TRUE(parsed.ok) << line << " -> " << reply;
  ASSERT_TRUE(parsed.value.is_object()) << line << " -> " << reply;
  const JsonValue* ok = parsed.value.find("ok");
  ASSERT_TRUE(ok != nullptr && ok->is_bool()) << line << " -> " << reply;
  if (!ok->as_bool()) {
    const JsonValue* error = parsed.value.find("error");
    EXPECT_TRUE(error != nullptr && error->is_string())
        << line << " -> " << reply;
  }
}

class ServiceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceFuzz, MutatedLinesNeverEscapeTheProtocol) {
  constexpr int kIterations = 600;
  Rng rng(GetParam());
  WhatIfService service;
  for (const std::string& line : kCorpus) {
    check_parser(line);
    check_reply(service, line);
  }
  for (int i = 0; i < kIterations; ++i) {
    const std::string line = mutate(kCorpus[pick(rng, kCorpus.size())], rng);
    check_parser(line);
    check_reply(service, line);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceFuzz,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                           std::uint64_t{3}));

}  // namespace
}  // namespace cosm::service
