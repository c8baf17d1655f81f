// Tests the cost-attribution profiler: category interning identity,
// disabled probes being no-ops, calling-context-tree self/total
// attribution, the event-executor sampling wrapper, folded-stack and
// summary exports, reset semantics — and the determinism contract that
// matters most: a seeded Simulation's metrics export is byte-identical
// whether profiling is enabled or not.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/simulation.hpp"

namespace wav {
namespace {

using obs::kProfCategoryNone;
using obs::ProfCategoryId;
using obs::Profiler;

/// Every test must leave the global profiler disabled and empty: the
/// profiler is process-global state shared across the whole binary.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().set_enabled(false);
    Profiler::instance().set_sample_period(1);
    Profiler::instance().reset();
  }
  void TearDown() override {
    Profiler::instance().set_enabled(false);
    Profiler::instance().set_sample_period(16);
    Profiler::instance().reset();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

const Profiler::CategoryRow* row_named(const std::vector<Profiler::CategoryRow>& rows,
                                       const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

TEST_F(ProfilerTest, InterningIsStableAndNamed) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId a = prof.intern("switch", "deliver");
  const ProfCategoryId b = prof.intern("can", "route");
  const ProfCategoryId a2 = prof.intern("switch", "deliver");
  EXPECT_EQ(a, a2) << "same (subsystem, op) must intern to the same id";
  EXPECT_NE(a, b);
  EXPECT_NE(a, kProfCategoryNone);
  EXPECT_EQ(prof.category_name(a), "switch/deliver");
  EXPECT_EQ(prof.category_name(b), "can/route");
  // Id 0 is the untagged-event default bucket.
  EXPECT_EQ(prof.category_name(kProfCategoryNone), "sim/event");
}

TEST_F(ProfilerTest, DisabledProbesRecordNothing) {
  Profiler& prof = Profiler::instance();
  ASSERT_FALSE(Profiler::enabled());
  for (int i = 0; i < 100; ++i) {
    WAV_PROF_SCOPE("test", "noop");
  }
  for (const auto& row : prof.category_rows()) {
    EXPECT_EQ(row.calls, 0u) << row.name;
    EXPECT_EQ(row.total_ns, 0u) << row.name;
  }
  EXPECT_EQ(prof.events_measured(), 0u);
}

TEST_F(ProfilerTest, NestedScopesSplitSelfAndTotalTime) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId outer = prof.intern("test", "outer");
  const ProfCategoryId inner = prof.intern("test", "inner");
  prof.set_enabled(true);
  {
    const obs::ProfScope a(outer);
    {
      const obs::ProfScope b(inner);
      // Make the inner scope take measurable time.
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 50000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  prof.set_enabled(false);

  const auto rows = prof.category_rows();
  const auto* o = row_named(rows, "test/outer");
  const auto* i = row_named(rows, "test/inner");
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->calls, 1u);
  EXPECT_EQ(i->calls, 1u);
  // The child's time is inside the parent's total but not its self time.
  EXPECT_GE(o->total_ns, i->total_ns);
  EXPECT_LE(o->self_ns, o->total_ns - i->total_ns + 1000u)
      << "outer self must exclude inner's duration (1us slack for clock reads)";
}

TEST_F(ProfilerTest, EventScopeSamplesAndGatesInnerScopes) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId ev = prof.intern("test", "event");
  const ProfCategoryId in = prof.intern("test", "inside");
  prof.set_sample_period(4);
  prof.set_enabled(true);
  for (int k = 0; k < 16; ++k) {
    const obs::ProfEventScope scope(ev);
    const obs::ProfScope body(in);  // only recorded when the event is sampled
  }
  prof.set_enabled(false);

  EXPECT_EQ(prof.events_measured(), 4u) << "period 4 over 16 events";
  const auto rows = prof.category_rows();
  const auto* e = row_named(rows, "test/event");
  const auto* i = row_named(rows, "test/inside");
  ASSERT_NE(e, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(e->calls, 4u);
  EXPECT_EQ(i->calls, 4u) << "unsampled events must close the gate for inner scopes";
}

TEST_F(ProfilerTest, UntaggedEventsLandInDefaultBucket) {
  Profiler& prof = Profiler::instance();
  prof.set_enabled(true);
  {
    const obs::ProfEventScope scope(kProfCategoryNone);
  }
  prof.set_enabled(false);
  const auto rows = prof.category_rows();
  const auto* row = row_named(rows, "sim/event");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->calls, 1u);
}

TEST_F(ProfilerTest, FoldedExportWritesSemicolonStacksWithSelfNs) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId outer = prof.intern("fold", "outer");
  const ProfCategoryId inner = prof.intern("fold", "inner");
  prof.set_enabled(true);
  {
    const obs::ProfScope a(outer);
    const obs::ProfScope b(inner);
  }
  prof.set_enabled(false);

  const std::string path = ::testing::TempDir() + "/prof_folded.txt";
  ASSERT_TRUE(prof.write_folded(path));
  const std::string body = read_file(path);
  std::remove(path.c_str());
  EXPECT_NE(body.find("all;fold/outer "), std::string::npos) << body;
  EXPECT_NE(body.find("all;fold/outer;fold/inner "), std::string::npos) << body;
  // Every line is "stack VALUE" with a numeric value.
  std::istringstream lines(body);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(static_cast<void>(std::stoull(line.substr(space + 1)))) << line;
    EXPECT_EQ(line.rfind("all", 0), 0u) << line;
  }
  EXPECT_GE(n, 2u);
}

TEST_F(ProfilerTest, SummaryJsonCarriesCategoriesAndEventStats) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId ev = prof.intern("sum", "event");
  prof.set_enabled(true);
  for (int k = 0; k < 3; ++k) {
    const obs::ProfEventScope scope(ev);
  }
  prof.set_enabled(false);

  const std::string json = prof.summary_json();
  EXPECT_NE(json.find("\"sample_period\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_measured\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"perf.events_per_sec\":"), std::string::npos) << json;
  EXPECT_NE(json.find("sum/event"), std::string::npos) << json;
  EXPECT_NE(json.find("\"top_events\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"categories\":["), std::string::npos) << json;
}

TEST_F(ProfilerTest, ResetClearsDataButKeepsInternedCategories) {
  Profiler& prof = Profiler::instance();
  const ProfCategoryId cat = prof.intern("reset", "work");
  prof.set_enabled(true);
  {
    const obs::ProfScope a(cat);
  }
  prof.set_enabled(false);
  ASSERT_NE(row_named(prof.category_rows(), "reset/work"), nullptr);
  const auto rows_before = prof.category_rows();
  const auto* before = row_named(rows_before, "reset/work");
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->calls, 1u);

  prof.reset();
  const auto rows_after = prof.category_rows();
  const auto* after = row_named(rows_after, "reset/work");
  if (after != nullptr) {
    EXPECT_EQ(after->calls, 0u);
  }
  EXPECT_EQ(prof.events_measured(), 0u);
  EXPECT_EQ(prof.event_ns(), 0u);
  // The id survives reset: probe sites cache it in function-local statics.
  EXPECT_EQ(prof.intern("reset", "work"), cat);
  EXPECT_EQ(prof.category_name(cat), "reset/work");
}

TEST_F(ProfilerTest, ExecutorAttributesTaggedEvents) {
  Profiler& prof = Profiler::instance();
  prof.set_enabled(true);
  sim::Simulation sim;
  int fired = 0;
  sim.schedule_after(std::chrono::milliseconds(1), WAV_PROF_CATEGORY("test", "tagged"),
                     [&] { ++fired; });
  sim.schedule_after(std::chrono::milliseconds(2), [&] { ++fired; });  // untagged
  sim.run();
  prof.set_enabled(false);

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(prof.events_measured(), 2u) << "period 1 measures every event";
  const auto rows = prof.category_rows();
  const auto* tagged = row_named(rows, "test/tagged");
  const auto* fallback = row_named(rows, "sim/event");
  ASSERT_NE(tagged, nullptr);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(tagged->calls, 1u);
  EXPECT_EQ(fallback->calls, 1u);
}

TEST_F(ProfilerTest, MetricsExportIsByteIdenticalWithProfilingOnOrOff) {
  // The determinism contract: enabling the profiler must not perturb
  // any simulation output. Run the same seeded workload twice and
  // compare the metrics JSON byte for byte.
  const auto run_workload = [] {
    sim::Simulation sim;
    sim.metrics().counter("test.events").inc(0);
    for (int i = 1; i <= 50; ++i) {
      sim.schedule_after(std::chrono::milliseconds(i),
                         WAV_PROF_CATEGORY("test", "workload"), [&sim, i] {
                           sim.metrics().counter("test.events").inc(1);
                           sim.metrics().histogram("test.lat_ms", {1, 10, 100})
                               .observe(static_cast<double>(i));
                         });
    }
    sim.run();
    return sim.metrics().to_json();
  };

  Profiler::instance().set_enabled(false);
  const std::string without = run_workload();
  Profiler::instance().set_enabled(true);
  const std::string with = run_workload();
  Profiler::instance().set_enabled(false);

  EXPECT_EQ(without, with);
  EXPECT_GT(Profiler::instance().events_measured(), 0u)
      << "the profiled run must actually have recorded events";
}

}  // namespace
}  // namespace wav
