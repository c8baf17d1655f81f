// Unit tests of the SLO HealthMonitor: rule semantics (success-rate
// windows with quiet-period aging, gated and gateless progress rules,
// interpolated-percentile latency ceilings, gauge floors), the
// healthy -> degraded -> critical state machine with observed recovery
// times, the mirrored health.* metrics and kHealth trace instants, and
// deterministic JSONL export (validated with the obs JSON parser).
#include <gtest/gtest.h>

#include <string>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wav {
namespace {

using obs::HealthMonitor;
using obs::HealthState;
using obs::MetricsRegistry;

/// Monitor driven by a hand-cranked clock, evaluated on a 1 s cadence
/// like the bench harness drives it.
struct Fixture {
  MetricsRegistry reg;
  TimePoint now{};
  HealthMonitor hm{reg, [this] { return now; }};

  void tick(std::int64_t n = 1) {
    for (std::int64_t i = 0; i < n; ++i) {
      now = now + seconds(1);
      hm.evaluate();
    }
  }
};

TEST(Health, SuccessRateWindowDegradesAndRecovers) {
  Fixture fx;
  auto& ok = fx.reg.counter("punch.ok");
  auto& fail = fx.reg.counter("punch.fail");
  ok.inc(100);  // pre-monitor history must not count toward the window
  fx.hm.add_success_rate_rule("punch", "punch.ok", "punch.fail", 0.9, 0.5, 4);

  fx.tick();  // baseline
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kHealthy);

  fail.inc(4);
  fx.tick();
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kCritical);
  ASSERT_EQ(fx.hm.transitions().size(), 1u);
  EXPECT_EQ(fx.hm.transitions()[0].to, HealthState::kCritical);
  EXPECT_NE(fx.hm.transitions()[0].reason.find("rate 0 < 0.5"), std::string::npos);

  // 3 successes leave the window short of min_events: verdict holds.
  ok.inc(3);
  fx.tick();
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kCritical);

  // A 4th fills it at rate 1.0: recovery, with the unhealthy span timed.
  ok.inc(1);
  fx.tick();
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kHealthy);
  ASSERT_EQ(fx.hm.transitions().size(), 2u);
  EXPECT_EQ(fx.hm.transitions()[1].unhealthy_for, seconds(2));
  ASSERT_TRUE(fx.hm.last_recovery("punch").has_value());
  EXPECT_EQ(*fx.hm.last_recovery("punch"), seconds(2));
  EXPECT_EQ(fx.reg.histogram("health.recovery_ms", {}).count(), 1u);
}

TEST(Health, SuccessRateQuietPeriodAgesOutFailures) {
  Fixture fx;
  auto& ok = fx.reg.counter("punch.ok");
  auto& fail = fx.reg.counter("punch.fail");
  fx.hm.add_success_rate_rule("punch", "punch.ok", "punch.fail", 0.9, 0.5, 4,
                              seconds(10));
  fx.tick();  // baseline
  ok.inc(2);
  fail.inc(2);
  fx.tick();
  ASSERT_EQ(fx.hm.state("punch"), HealthState::kDegraded);  // rate 0.5 < 0.9

  // No punch activity at all: after quiet_after the stale failures age
  // out instead of pinning the component unhealthy forever.
  fx.tick(10);
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kDegraded);  // exactly 10 s: not yet
  fx.tick();
  EXPECT_EQ(fx.hm.state("punch"), HealthState::kHealthy);
}

TEST(Health, GatedProgressRuleTracksSilence) {
  Fixture fx;
  auto& pulses = fx.reg.counter("pulses", "h1");
  auto& gate = fx.reg.gauge("links", "h1");
  fx.hm.add_progress_rule("agent:h1", "pulses", "h1", "links", "h1", seconds(5),
                          seconds(10));

  fx.tick();  // gate closed: nothing expected
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kHealthy);

  gate.set(1.0);
  fx.tick();  // gate opens: grace window starts now
  fx.tick(5);
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kHealthy);  // silence == 5 s
  fx.tick();
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kDegraded);
  fx.tick(5);
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kCritical);

  pulses.inc();  // traffic resumes
  fx.tick();
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kHealthy);

  // Gate closes mid-silence: the rule disarms instead of tripping.
  fx.tick(4);
  gate.set(0.0);
  fx.tick(20);
  EXPECT_EQ(fx.hm.state("agent:h1"), HealthState::kHealthy);
}

TEST(Health, GatelessProgressRuleArmsOnFirstAdvance) {
  Fixture fx;
  auto& beats = fx.reg.counter("beats");
  fx.hm.add_progress_rule("hb", "beats", "", "", "", seconds(3), seconds(6));

  // Never advanced: stays healthy no matter how long it idles.
  fx.tick(10);
  EXPECT_EQ(fx.hm.state("hb"), HealthState::kHealthy);

  beats.inc();
  fx.tick();  // first advance arms the rule
  fx.tick(4);
  EXPECT_EQ(fx.hm.state("hb"), HealthState::kDegraded);
  fx.tick(3);
  EXPECT_EQ(fx.hm.state("hb"), HealthState::kCritical);
  beats.inc();
  fx.tick();
  EXPECT_EQ(fx.hm.state("hb"), HealthState::kHealthy);
}

TEST(Health, GaugeFloorRule) {
  Fixture fx;
  fx.hm.add_gauge_floor_rule("rdv", "hosts", "srv", 4.0, 1.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("rdv"), HealthState::kHealthy);  // absent: not deployed

  auto& g = fx.reg.gauge("hosts", "srv");
  g.set(4.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("rdv"), HealthState::kHealthy);
  g.set(2.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("rdv"), HealthState::kDegraded);
  g.set(0.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("rdv"), HealthState::kCritical);
  g.set(4.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("rdv"), HealthState::kHealthy);
}

TEST(Health, PercentileRuleEvaluatesWindowedDeltas) {
  Fixture fx;
  auto& h = fx.reg.histogram("lat", {10, 100});
  h.observe(500.0);  // pre-monitor outlier: baselined away
  fx.hm.add_percentile_rule("can", "lat", "", 99.0, 20.0, 90.0, 4);

  fx.tick();  // baseline snapshot of the cumulative buckets
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("can"), HealthState::kHealthy);

  // Window of 4 slow observations in (10, 100]: interpolated p99 is
  // 10 + 0.99 * 90 = 99.1 > 90 -> critical.
  for (int i = 0; i < 4; ++i) h.observe(95.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("can"), HealthState::kCritical);

  for (int i = 0; i < 4; ++i) h.observe(5.0);
  fx.tick();
  EXPECT_EQ(fx.hm.state("can"), HealthState::kHealthy);
}

TEST(Health, WorstRuleWinsPerComponent) {
  Fixture fx;
  fx.reg.gauge("a", "").set(0.0);
  fx.reg.gauge("b", "").set(2.0);
  fx.hm.add_gauge_floor_rule("comp", "a", "", 1.0, 0.5);   // -> critical
  fx.hm.add_gauge_floor_rule("comp", "b", "", 4.0, 1.0);   // -> degraded
  EXPECT_EQ(fx.hm.rule_count(), 2u);
  fx.tick();
  EXPECT_EQ(fx.hm.state("comp"), HealthState::kCritical);
  EXPECT_EQ(fx.hm.worst_state(), HealthState::kCritical);
  // One transition for the component, not one per rule.
  EXPECT_EQ(fx.hm.transitions().size(), 1u);
}

TEST(Health, MirrorsStateIntoRegistryAndTracer) {
  Fixture fx;
  obs::Tracer tracer{[&fx] { return fx.now; }};
  tracer.set_enabled(true);
  fx.hm.set_tracer(&tracer);
  auto& g = fx.reg.gauge("hosts", "");
  g.set(5.0);
  fx.hm.add_gauge_floor_rule("rdv", "hosts", "", 1.0, 1.0);

  fx.tick();
  EXPECT_DOUBLE_EQ(fx.reg.gauge("health.state", "rdv").value(), 0.0);
  g.set(0.0);
  fx.tick();
  EXPECT_DOUBLE_EQ(fx.reg.gauge("health.state", "rdv").value(), 2.0);
  EXPECT_EQ(fx.reg.counter("health.transitions", "rdv").value(), 1u);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "health.transition");
  EXPECT_EQ(tracer.events()[0].category, obs::Category::kHealth);
  EXPECT_EQ(tracer.events()[0].instance, "rdv");
  g.set(5.0);
  fx.tick();
  EXPECT_DOUBLE_EQ(fx.reg.gauge("health.state", "rdv").value(), 0.0);
  EXPECT_EQ(fx.reg.counter("health.transitions", "rdv").value(), 2u);
  ASSERT_EQ(tracer.events().size(), 2u);
  // Recovery instants carry the observed recovery time in their args.
  EXPECT_NE(tracer.events()[1].args.find("recovery_ms"), std::string::npos);
}

TEST(Health, JsonlExportIsParseableAndDeterministic) {
  const auto run = [] {
    Fixture fx;
    auto& g = fx.reg.gauge("hosts", "");
    g.set(5.0);
    fx.hm.add_gauge_floor_rule("rdv \"x\"", "hosts", "", 1.0, 1.0);
    fx.tick();
    g.set(0.0);
    fx.tick();
    g.set(5.0);
    fx.tick();
    return fx.hm.to_jsonl();
  };
  const std::string a = run();
  EXPECT_EQ(a, run());

  const std::vector<obs::json::Value> lines = obs::json::parse_jsonl(a);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].str_or("component", ""), "rdv \"x\"");  // escaping round-trips
  EXPECT_EQ(lines[0].str_or("from", ""), "healthy");
  EXPECT_EQ(lines[0].str_or("to", ""), "critical");
  EXPECT_DOUBLE_EQ(lines[0].num_or("t_ns", 0), 2e9);
  EXPECT_EQ(lines[1].str_or("to", ""), "healthy");
  EXPECT_DOUBLE_EQ(lines[1].num_or("recovery_ns", 0), 1e9);
  EXPECT_EQ(lines[1].find("reason"), nullptr);  // recoveries carry no reason
}

}  // namespace
}  // namespace wav
