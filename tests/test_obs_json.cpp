// JSON document model (src/obs/json): the nesting cap that keeps a hostile
// --compare file a parse error instead of a stack overflow, and a seeded
// mutation-fuzz loop over report-shaped documents (nothing crashes, and
// whatever parses survives dump -> parse unchanged).
#include "src/obs/json.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace mmtag::obs {
namespace {

std::string nested_arrays(int depth) {
  const auto n = static_cast<std::size_t>(depth);
  return std::string(n, '[') + std::string(n, ']');
}

// --- Nesting cap -----------------------------------------------------------

TEST(JsonDepth, ParsesUpToTheCap) {
  std::string error;
  const std::optional<JsonValue> doc =
      JsonValue::parse(nested_arrays(JsonValue::kMaxDepth), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->dump(), nested_arrays(JsonValue::kMaxDepth));
}

TEST(JsonDepth, RejectsOneLevelPastTheCap) {
  std::string error;
  EXPECT_FALSE(
      JsonValue::parse(nested_arrays(JsonValue::kMaxDepth + 1), &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  // Objects count toward the same cap.
  std::string objects;
  for (int i = 0; i <= JsonValue::kMaxDepth; ++i) objects += "{\"k\":";
  objects += '0';
  objects += std::string(JsonValue::kMaxDepth + 1, '}');
  EXPECT_FALSE(JsonValue::parse(objects, &error));
}

TEST(JsonDepth, HostileNestingIsAParseErrorNotAStackOverflow) {
  // A file of 200,000 '[': one parser stack frame per level would
  // overflow the stack long before the input ran out.
  std::string error;
  EXPECT_FALSE(JsonValue::parse(std::string(200000, '['), &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// --- Mutation fuzz ---------------------------------------------------------

/// Seeds shaped like what the parser reads from disk: a bench report as
/// the harness writes it, a trace event, and the literal, escape, number
/// and nesting corners the schemas use.
const char* const kSeeds[] = {
    R"({
  "schema": "mmtag.bench.v1",
  "bench": "fig6_s11",
  "config": {"threads": 0, "seed": 1, "warmup": 0, "repeat": 1,
             "obs_enabled": true},
  "cases": [
    {"name": "s11_sweep", "repeat": 1,
     "wall_ns": {"min": 95842, "median": 95842, "p90": 95842,
                 "max": 95842, "mean": 95842},
     "cpu_ns": {"median": 109661, "p90": 109661},
     "units": 41, "unit": "frequency points",
     "units_per_s": 427787.40009599127}
  ],
  "metrics": {"counters": {"net.pool.exhausted": 0},
              "histograms": {"mesh.delivery_latency_us":
                             {"count": 3, "buckets": [[0, 1], [64, 2]]}}}
})",
    R"({"name":"deploy.fleet.run","ph":"X","ts":12.5,"dur":3,"tid":1,"args":{"epoch":2}})",
    R"([null,true,false,-0,0.5,-1.25e-7,1e308,2E+3,"q\"b\\s\/\b\f\n\r\té\u0001",[],{},[[{"a":[1,{"b":null}]}]]])",
};

/// Bytes that steer mutants toward the grammar's decision points.
constexpr char kTokens[] = "[]{}\",:\\/-+.eE0123456789 \tnultrfasu";

std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < edits; ++i) {
    const std::size_t at = below(text.size());
    const char token = kTokens[below(sizeof kTokens - 1)];
    switch (rng() % 6) {
      case 0:  // Random byte.
        if (!text.empty()) text[at] = static_cast<char>(rng() & 0xFF);
        break;
      case 1:  // Grammar byte.
        if (!text.empty()) text[at] = token;
        break;
      case 2:
        text.insert(at, 1, token);
        break;
      case 3:
        if (!text.empty()) text.erase(at, 1);
        break;
      case 4: {  // Duplicate a slice elsewhere (grows nesting and lists).
        const std::string slice = text.substr(at, 1 + below(32));
        text.insert(below(text.size() + 1), slice);
        break;
      }
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

TEST(JsonFuzz, MutantsNeverCrashAndParsedDocumentsRoundTrip) {
  std::mt19937_64 rng(0x6A736F6E);  // "json"
  constexpr int kMutants = 20000;
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        mutate(kSeeds[rng() % (sizeof kSeeds / sizeof kSeeds[0])], rng);
    std::string error;
    const std::optional<JsonValue> doc = JsonValue::parse(text, &error);
    if (!doc) {
      ASSERT_FALSE(error.empty()) << "silent rejection of: " << text;
      continue;
    }
    ++parsed;
    // Non-finite numbers dump as null, so compare dumps, not values.
    const std::string compact = doc->dump();
    for (const int indent : {-1, 2}) {
      const std::optional<JsonValue> again =
          JsonValue::parse(doc->dump(indent), &error);
      ASSERT_TRUE(again.has_value()) << error << " re-parsing: " << text;
      ASSERT_EQ(again->dump(), compact) << "from: " << text;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_LT(parsed, kMutants - kMutants / 20);
}

}  // namespace
}  // namespace mmtag::obs
