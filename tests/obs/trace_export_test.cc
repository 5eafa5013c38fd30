// Golden-output tests for the trace exporters. An injected fake clock makes
// timestamps deterministic (1 µs per NowNs() call), so the Chrome
// trace_event JSON, the --trace-summary table, and the structural oracle
// can be compared byte-for-byte. If one of these fails after an intentional
// format change, update the golden here AND bump DESIGN.md §9 — external
// tooling parses these formats.

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "tests/testing_util.h"

namespace atune {
namespace {

// The exemplar tree every exporter golden below is rendered from:
//   session{tuner=demo} > trial{cost=1} > {measure, journal_append}.
// Each NowNs() call advances the fake clock by 1000 ns, so spans get
// timestamps 1000, 2000, ... in construction/destruction order.
void RecordExemplarSession(Tracer* tracer) {
  ScopedSpan session(tracer, "session");
  session.AddArg("tuner", "demo");
  {
    ScopedSpan trial(tracer, "trial", session.id());
    trial.AddArg("cost", TraceDouble(1.0));
    { ScopedSpan measure(tracer, "measure", trial.id()); }
    tracer->RecordSynthetic(trial.id(), "journal_append", "commit", {});
  }
}

TEST(TraceExportTest, ChromeTraceJsonMatchesGolden) {
  uint64_t tick = 0;
  Tracer tracer([&tick]() { return tick += 1000; });
  RecordExemplarSession(&tracer);
  EXPECT_EQ(
      tracer.ChromeTraceJson(),
      "{\"traceEvents\":[\n"
      "{\"name\":\"session\",\"cat\":\"atune\",\"ph\":\"X\",\"ts\":1.000,"
      "\"dur\":6.000,\"pid\":1,\"tid\":0,\"args\":{\"span_id\":1,"
      "\"parent_id\":0,\"tuner\":\"demo\"}},\n"
      "{\"name\":\"trial\",\"cat\":\"atune\",\"ph\":\"X\",\"ts\":2.000,"
      "\"dur\":4.000,\"pid\":1,\"tid\":0,\"args\":{\"span_id\":2,"
      "\"parent_id\":1,\"cost\":\"1\"}},\n"
      "{\"name\":\"measure\",\"cat\":\"atune\",\"ph\":\"X\",\"ts\":3.000,"
      "\"dur\":1.000,\"pid\":1,\"tid\":0,\"args\":{\"span_id\":3,"
      "\"parent_id\":2}},\n"
      "{\"name\":\"journal_append\",\"cat\":\"atune\",\"ph\":\"X\","
      "\"ts\":5.000,\"dur\":0.000,\"pid\":1,\"tid\":0,\"args\":{"
      "\"span_id\":4,\"parent_id\":2}}\n"
      "]}\n");
}

TEST(TraceExportTest, SummaryTableMatchesGolden) {
  uint64_t tick = 0;
  Tracer tracer([&tick]() { return tick += 1000; });
  RecordExemplarSession(&tracer);
  EXPECT_EQ(
      tracer.SummaryTable(),
      "span                count     total-ms      mean-ms       max-ms\n"
      "journal_append          1        0.000        0.000        0.000\n"
      "measure                 1        0.001        0.001        0.001\n"
      "session                 1        0.006        0.006        0.006\n"
      "trial                   1        0.004        0.004        0.004\n");
}

TEST(TraceExportTest, StructuralTreeMatchesGolden) {
  uint64_t tick = 0;
  Tracer tracer([&tick]() { return tick += 1000; });
  RecordExemplarSession(&tracer);
  // No timestamps at all: the live journal_append renders under its
  // structural name "commit", and siblings sort by their rendering.
  EXPECT_EQ(tracer.StructuralTreeString(),
            "session{tuner=demo}\n"
            "  trial{cost=1}\n"
            "    commit\n"
            "    measure\n");
}

TEST(TraceExportTest, WriteChromeTraceIsExactFileImage) {
  uint64_t tick = 0;
  Tracer tracer([&tick]() { return tick += 1000; });
  RecordExemplarSession(&tracer);
  const std::string path = testing_util::TestTempPath("trace.json");
  std::remove(path.c_str());
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[512];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents, tracer.ChromeTraceJson());
  std::remove(path.c_str());
}

TEST(TraceExportTest, JsonEscapesSpecialCharactersInArgs) {
  uint64_t tick = 0;
  Tracer tracer([&tick]() { return tick += 1000; });
  tracer.RecordSynthetic(0, "note", nullptr,
                         {{"text", "a\"b\\c\nd\te"}, {"ctl", "\x01"}});
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"text\":\"a\\\"b\\\\c\\nd\\te\""), std::string::npos);
  EXPECT_NE(json.find("\"ctl\":\"\\u0001\""), std::string::npos);
}

TEST(TraceExportTest, TraceDoubleRoundTripsBits) {
  // strtod, not std::stod: stod throws out_of_range on the ERANGE that
  // glibc legitimately sets for subnormals like 5e-324.
  for (double v : {1.0, 0.1, 1.0 / 3.0, 1e300, 5e-324, 139.16999999999999}) {
    EXPECT_EQ(std::strtod(TraceDouble(v).c_str(), nullptr), v)
        << TraceDouble(v);
  }
}

TEST(TraceExportTest, EmptyTracerExportsAreWellFormed) {
  Tracer tracer;
  EXPECT_EQ(tracer.ChromeTraceJson(), "{\"traceEvents\":[\n]}\n");
  EXPECT_EQ(tracer.StructuralTreeString(), "");
  EXPECT_EQ(
      tracer.SummaryTable(),
      "span                count     total-ms      mean-ms       max-ms\n");
  EXPECT_EQ(tracer.span_count(), 0u);
}

}  // namespace
}  // namespace atune
