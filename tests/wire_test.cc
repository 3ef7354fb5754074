// The wire contract (server/wire.h + common/json.h): golden serialized
// forms for every spec variant, lossless round trips (doubles, uint64
// seeds, escaped strings), and strict rejection of malformed input.
#include "server/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.h"
#include "test_util.h"

namespace privbasis::server {
namespace {

// --- the JSON substrate ------------------------------------------------

TEST(JsonTest, ScalarRoundTrips) {
  for (const char* text :
       {"null", "true", "false", "0", "-7", "42", "18446744073709551615",
        "-9223372036854775808", "0.5", "1e-06", "\"\"", "\"abc\""}) {
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    EXPECT_EQ(parsed->Dump(), text) << text;
  }
}

TEST(JsonTest, DoublesRoundTripBitForBit) {
  for (double d : {0.1, 1.0 / 3.0, 0.30000000000000004, 1e300, 5e-324,
                   123456789.123456789, -0.0}) {
    const std::string text = json::Value(d).Dump();
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto back = parsed->GetDouble();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, d) << text;  // identical bits (== on doubles)
  }
}

TEST(JsonTest, NonFiniteDumpsAsNull) {
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(json::Value(std::nan("")).Dump(), "null");
}

TEST(JsonTest, StringEscapes) {
  // Escaped → parsed → dumped is canonical.
  auto parsed = json::Parse("\"a\\\"b\\\\c\\n\\t\\u0001\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto s = parsed->GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, std::string("a\"b\\c\n\t\x01\xc3\xa9\xf0\x9f\x98\x80"));
  // Dump re-escapes the quote/backslash/control characters; UTF-8 bytes
  // pass through raw.
  EXPECT_EQ(json::Value(*s).Dump(),
            "\"a\\\"b\\\\c\\n\\t\\u0001\xc3\xa9\xf0\x9f\x98\x80\"");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  json::Value v;
  v.Set("z", 1);
  v.Set("a", 2);
  EXPECT_EQ(v.Dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "01", "1.", "+1", "nul",
        "\"unterminated", "\"bad\\q\"", "\"\\ud800\"", "[1] trailing",
        "{'single': 1}", "\"ctrl\n\""}) {
    EXPECT_FALSE(json::Parse(text).ok()) << text;
  }
}

TEST(JsonTest, DepthLimitBounds) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::Parse(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(json::Parse(deep, /*max_depth=*/128).ok());
}

TEST(JsonTest, GetUintChecksRangeAndSign) {
  EXPECT_FALSE(json::Parse("-1")->GetUint().ok());
  EXPECT_FALSE(json::Parse("1.5")->GetUint().ok());
  EXPECT_TRUE(json::Parse("1e2")->GetUint().ok());  // exact integral double
  EXPECT_EQ(*json::Parse("18446744073709551615")->GetUint(),
            18446744073709551615ull);
}

// --- QuerySpec golden forms --------------------------------------------

/// Serialized → parsed → serialized must be a fixed point equal to the
/// golden (catches both drift in the writer and lossy parsing).
void ExpectSpecGolden(const QuerySpec& spec, const std::string& golden) {
  const std::string dumped = QuerySpecToJson(spec).Dump();
  EXPECT_EQ(dumped, golden);
  auto parsed_json = json::Parse(dumped);
  ASSERT_TRUE(parsed_json.ok()) << parsed_json.status();
  auto round_tripped = QuerySpecFromJson(*parsed_json);
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status();
  EXPECT_EQ(QuerySpecToJson(*round_tripped).Dump(), golden);
}

TEST(WireSpecTest, GoldenDefaultSpec) {
  ExpectSpecGolden(
      QuerySpec(),
      "{\"method\":\"pb\",\"k\":100,\"epsilon\":1,\"seed\":42,\"theta\":0,"
      "\"sampling_rate\":1,\"label\":\"\",\"rules\":null,"
      "\"pb\":{\"alpha1\":0.1,\"alpha2\":0.4,\"alpha3\":0.5,\"eta\":1.1,"
      "\"single_basis_lambda_cap\":12,\"max_basis_length\":12,"
      "\"monotonic_em\":true,\"naive_lambda2\":false,\"lambda_cap\":0,"
      "\"fk1_support_hint\":0},"
      "\"tf\":{\"m\":2,\"rho\":0.9,\"selection\":\"em\","
      "\"explicit_limit\":1000000}}");
}

TEST(WireSpecTest, GoldenThresholdRulesEscapesAndMaxSeed) {
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kPrivBasis)
      .WithThreshold(0.05, 400)
      .WithEpsilon(0.25)
      .WithSeed(18446744073709551615ull)  // uint64 max survives
      .WithRules(0.6)
      .WithLabel("fig1 \"mushroom\"\n\tsweep");  // escaped string
  spec.pb.eta = 1.2;
  spec.pb.lambda_cap = 64;
  ExpectSpecGolden(
      spec,
      "{\"method\":\"pb\",\"k\":400,\"epsilon\":0.25,"
      "\"seed\":18446744073709551615,\"theta\":0.05,\"sampling_rate\":1,"
      "\"label\":\"fig1 \\\"mushroom\\\"\\n\\tsweep\","
      "\"rules\":{\"min_confidence\":0.6,\"min_support\":0,"
      "\"max_antecedent\":0},"
      "\"pb\":{\"alpha1\":0.1,\"alpha2\":0.4,\"alpha3\":0.5,\"eta\":1.2,"
      "\"single_basis_lambda_cap\":12,\"max_basis_length\":12,"
      "\"monotonic_em\":true,\"naive_lambda2\":false,\"lambda_cap\":64,"
      "\"fk1_support_hint\":0},"
      "\"tf\":{\"m\":2,\"rho\":0.9,\"selection\":\"em\","
      "\"explicit_limit\":1000000}}");
}

TEST(WireSpecTest, GoldenTfVariant) {
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kTruncatedFrequency)
      .WithTopK(50)
      .WithEpsilon(2.0)
      .WithSeed(7);
  spec.tf.m = 3;
  spec.tf.selection = TfOptions::Selection::kLaplaceNoise;
  ExpectSpecGolden(
      spec,
      "{\"method\":\"tf\",\"k\":50,\"epsilon\":2,\"seed\":7,\"theta\":0,"
      "\"sampling_rate\":1,\"label\":\"\",\"rules\":null,"
      "\"pb\":{\"alpha1\":0.1,\"alpha2\":0.4,\"alpha3\":0.5,\"eta\":1.1,"
      "\"single_basis_lambda_cap\":12,\"max_basis_length\":12,"
      "\"monotonic_em\":true,\"naive_lambda2\":false,\"lambda_cap\":0,"
      "\"fk1_support_hint\":0},"
      "\"tf\":{\"m\":3,\"rho\":0.9,\"selection\":\"laplace\","
      "\"explicit_limit\":1000000}}");
}

TEST(WireSpecTest, GoldenAmplifiedVariant) {
  ExpectSpecGolden(
      QuerySpec().WithTopK(20).WithAmplification(0.5).WithSeed(9),
      "{\"method\":\"pb\",\"k\":20,\"epsilon\":1,\"seed\":9,\"theta\":0,"
      "\"sampling_rate\":0.5,\"label\":\"\",\"rules\":null,"
      "\"pb\":{\"alpha1\":0.1,\"alpha2\":0.4,\"alpha3\":0.5,\"eta\":1.1,"
      "\"single_basis_lambda_cap\":12,\"max_basis_length\":12,"
      "\"monotonic_em\":true,\"naive_lambda2\":false,\"lambda_cap\":0,"
      "\"fk1_support_hint\":0},"
      "\"tf\":{\"m\":2,\"rho\":0.9,\"selection\":\"em\","
      "\"explicit_limit\":1000000}}");
}

TEST(WireSpecTest, PartialSpecKeepsEngineDefaults) {
  auto parsed = json::Parse("{\"k\":25,\"seed\":3}");
  ASSERT_TRUE(parsed.ok());
  auto spec = QuerySpecFromJson(*parsed);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->k, 25u);
  EXPECT_EQ(spec->seed, 3u);
  EXPECT_EQ(spec->epsilon, QuerySpec().epsilon);
  EXPECT_EQ(spec->method, QueryMethod::kPrivBasis);
  EXPECT_FALSE(spec->derive_rules);
}

TEST(WireSpecTest, StrictlyRejectsUnknownAndMistypedKeys) {
  for (const char* text : {
           "{\"epsilom\":1.0}",                      // typo
           "{\"k\":\"ten\"}",                        // wrong type
           "{\"pb\":{\"alpha9\":0.1}}",              // unknown nested key
           "{\"tf\":{\"selection\":\"gumbel\"}}",    // unknown enum value
           "{\"method\":\"dp\"}",                    // unknown method
           "{\"seed\":-1}",                          // negative uint
           "[]",                                     // not an object
       }) {
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto spec = QuerySpecFromJson(*parsed);
    EXPECT_FALSE(spec.ok()) << text;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
  // The server envelope's "dataset" key is tolerated.
  auto parsed = json::Parse("{\"dataset\":\"ds-1\",\"k\":5}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(QuerySpecFromJson(*parsed).ok());
}

// --- Release golden form -----------------------------------------------

TEST(WireReleaseTest, GoldenReleaseRoundTripsLosslessly) {
  Release release;
  release.method = QueryMethod::kPrivBasis;
  release.itemsets = {{Itemset({3, 9, 15}), 1234.0625},
                      {Itemset({2}), 0.30000000000000004}};
  release.rules = {{Itemset({3}), Itemset({9, 15}), 0.12, 0.625}};
  release.lambda = 7;
  release.lambda2 = 3;
  release.basis_set = BasisSet({Itemset({2, 3}), Itemset({9, 15})});
  release.epsilon_requested = 1.0;
  release.epsilon_spent = 0.9999999999999999;  // not 1.0: must survive
  release.epsilon_spent_total = 1.5;
  release.epsilon_remaining = std::numeric_limits<double>::infinity();

  const std::string golden =
      "{\"method\":\"pb\","
      "\"itemsets\":[{\"items\":[3,9,15],\"noisy_count\":1234.0625},"
      "{\"items\":[2],\"noisy_count\":0.30000000000000004}],"
      "\"rules\":[{\"antecedent\":[3],\"consequent\":[9,15],"
      "\"support\":0.12,\"confidence\":0.625}],"
      "\"lambda\":7,\"lambda2\":3,\"basis\":[[2,3],[9,15]],"
      "\"budget\":{\"requested\":1,\"spent\":0.9999999999999999,"
      "\"spent_total\":1.5,\"remaining\":null}}";
  EXPECT_EQ(ReleaseToJson(release).Dump(), golden);

  auto parsed_json = json::Parse(golden);
  ASSERT_TRUE(parsed_json.ok());
  auto back = ReleaseFromJson(*parsed_json);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->itemsets.size(), 2u);
  EXPECT_EQ(back->itemsets[0].items, Itemset({3, 9, 15}));
  // Bit-identical doubles (== on doubles, no tolerance).
  EXPECT_EQ(back->itemsets[0].noisy_count, 1234.0625);
  EXPECT_EQ(back->itemsets[1].noisy_count, 0.30000000000000004);
  EXPECT_EQ(back->epsilon_spent, 0.9999999999999999);
  EXPECT_EQ(back->lambda, 7u);
  EXPECT_EQ(back->lambda2, 3u);
  ASSERT_EQ(back->basis_set.Width(), 2u);
  EXPECT_EQ(back->basis_set.basis(1), Itemset({9, 15}));
  ASSERT_EQ(back->rules.size(), 1u);
  EXPECT_EQ(back->rules[0].confidence, 0.625);
  EXPECT_TRUE(std::isinf(back->epsilon_remaining));
  // And the re-serialization is the identical byte string.
  EXPECT_EQ(ReleaseToJson(*back).Dump(), golden);
}

TEST(WireReleaseTest, RejectsMalformedItemsets) {
  for (const char* text : {
           "{\"itemsets\":[{\"items\":[],\"noisy_count\":1}]}",   // empty
           "{\"itemsets\":[{\"items\":[1]}]}",        // missing count
           "{\"itemsets\":[{\"items\":[1],\"noisy_count\":1,"
           "\"extra\":2}]}",                          // extra key
           "{\"itemsets\":[[1,2]]}",                  // not an object
           "{\"itemsets\":[{\"items\":[-3],\"noisy_count\":1}]}",
           // Rules are equally strict: typoed or missing keys fail.
           "{\"rules\":[{\"antecedent\":[1],\"consequent\":[2],"
           "\"confidnce\":0.9}]}",
           "{\"rules\":[{\"antecedent\":[1],\"consequent\":[2]}]}",
       }) {
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(ReleaseFromJson(*parsed).ok()) << text;
  }
}

// GET /v1/stats body: byte-exact golden plus a lossless round trip, so
// monitoring clients can parse the schema without a live server.
TEST(WireStatsTest, GoldenRoundTrip) {
  StatsSnapshot stats;
  stats.queries_admitted = 10;
  stats.queries_shed_predicted = 2;
  stats.queries_shed_queue = 1;
  stats.queries_cancelled = 3;
  stats.queries_completed = 7;
  stats.connections = 20;
  stats.connections_shed = 4;
  stats.slo_ms = 250;
  stats.max_queue_depth = 16;
  stats.queue_depth = 5;
  stats.ns_per_unit = 57.25;
  stats.recent_query_ms = 3.5;
  stats.batch_window_us = 200;
  stats.batch_max = 8;
  stats.batches = 6;
  stats.batched_queries = 15;
  stats.scans_saved = 9;

  const std::string golden =
      "{\"queries\":{\"admitted\":10,\"shed_predicted\":2,"
      "\"shed_queue\":1,\"cancelled\":3,\"completed\":7},"
      "\"connections\":{\"accepted\":20,\"shed\":4},"
      "\"admission\":{\"slo_ms\":250,\"max_queue_depth\":16,"
      "\"queue_depth\":5,\"ns_per_unit\":57.25,"
      "\"recent_query_ms\":3.5},"
      "\"batching\":{\"window_us\":200,\"max\":8,\"batches\":6,"
      "\"batched_queries\":15,\"scans_saved\":9}}";
  EXPECT_EQ(StatsToJson(stats).Dump(), golden);

  auto parsed = json::Parse(golden);
  ASSERT_TRUE(parsed.ok());
  auto back = StatsFromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->queries_admitted, 10u);
  EXPECT_EQ(back->queries_shed_predicted, 2u);
  EXPECT_EQ(back->queries_shed_queue, 1u);
  EXPECT_EQ(back->queries_cancelled, 3u);
  EXPECT_EQ(back->queries_completed, 7u);
  EXPECT_EQ(back->connections, 20u);
  EXPECT_EQ(back->connections_shed, 4u);
  EXPECT_EQ(back->slo_ms, 250);
  EXPECT_EQ(back->max_queue_depth, 16u);
  EXPECT_EQ(back->queue_depth, 5u);
  EXPECT_EQ(back->ns_per_unit, 57.25);
  EXPECT_EQ(back->recent_query_ms, 3.5);
  EXPECT_EQ(back->batch_window_us, 200);
  EXPECT_EQ(back->batch_max, 8u);
  EXPECT_EQ(back->batches, 6u);
  EXPECT_EQ(back->batched_queries, 15u);
  EXPECT_EQ(back->scans_saved, 9u);
  // Re-serialization is the identical byte string.
  EXPECT_EQ(StatsToJson(*back).Dump(), golden);
}

TEST(WireStatsTest, RejectsUnknownKeys) {
  for (const char* text : {
           "{\"extra\":1}",
           "{\"queries\":{\"admited\":1}}",    // typo
           "{\"admission\":{\"slo\":250}}",    // wrong key
           "{\"shards\":{\"workers\":0,\"fanout\":1}}",  // removed block
           "{\"batching\":{\"max\":8,\"extra\":2}}",
           "{\"batching\":[1,2]}",             // wrong type
           "{\"batching\":{\"windowus\":1}}",  // typo
           "{\"batching\":{\"window_us\":1,\"max\":8,\"batches\":0,"
           "\"batched_queries\":0,\"scans_saved\":0,\"extra\":1}}",
       }) {
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(StatsFromJson(*parsed).ok()) << text;
  }
}

TEST(WireStatusTest, ErrorBodyAndHttpMapping) {
  const Status status = Status::BudgetExhausted("0.2 remaining");
  EXPECT_EQ(StatusToJson(status).Dump(),
            "{\"error\":{\"code\":\"BudgetExhausted\","
            "\"message\":\"0.2 remaining\"}}");
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kBudgetExhausted), 429);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);
}

}  // namespace
}  // namespace privbasis::server
