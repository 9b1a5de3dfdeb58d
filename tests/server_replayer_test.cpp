// Replayer's contract, as the epoch barrier and GridService rely on it:
// equal-time items run control < deadline < message, an outage defers a
// tick into its own batch or past it, a deferred tick fires once, at the
// outage end, and a tick taken at open still runs after a report earlier
// in simulated time. Every tick is a result's deadline: the fixture issues
// results through the ProjectServer at chosen times.
#include "server/replayer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "server/service.hpp"

namespace hcmd::server {
namespace {

faults::FaultPlan outage(double begin, double end) {
  faults::FaultPlan plan;
  plan.outages.push_back({begin, end});
  return plan;
}

obs::Tracer::Options every_event() {
  obs::Tracer::Options o;
  o.sample_every.fill(1);
  return o;
}

struct Fixture {
  ProjectServer project;
  faults::FaultSchedule faults;
  obs::Tracer tracer{every_event()};
  Replayer replayer{project, faults, &tracer};
  /// 'c' control, 'd' transitioner pass, 'm' message, in run order.
  std::string log;
  std::uint64_t passes_logged = 0;

  /// Issues result i to device i at issue_times[i], so its tick falls at
  /// issue_times[i] + deadline.
  Fixture(double deadline, const std::vector<double>& issue_times,
          faults::FaultPlan plan = {})
      : project(synthetic_catalog(8, 1.0), with_deadline(deadline)),
        faults(std::move(plan), util::Rng(1)) {
    faults.set_instruments(&tracer, nullptr);
    for (std::uint32_t d = 0; d < issue_times.size(); ++d)
      project.request_work(d, issue_times[d]);
  }

  static ServerConfig with_deadline(double deadline) {
    ServerConfig config;
    config.deadline = deadline;
    return config;
  }

  /// Appends a 'd' per transitioner pass since the last note, then `c`.
  void note(char c) {
    while (passes_logged < tracer.seen(obs::TraceCat::kServer)) {
      log += 'd';
      ++passes_logged;
    }
    if (c != 0) log += c;
  }

  /// One batch ending at `t`, with a message at each of `message_times`.
  void replay(double t, const std::vector<double>& message_times) {
    replayer.open(t);
    for (double m : message_times) {
      replayer.fire_until(m);
      note('m');
    }
    replayer.fire_until(t);
    note(0);
  }

  /// (time, result id) of every transitioner pass so far.
  std::vector<std::pair<double, std::uint32_t>> passes() const {
    std::vector<std::pair<double, std::uint32_t>> out;
    constexpr auto kPass =
        static_cast<std::uint8_t>(obs::TraceEv::kSrvTransitionerPass);
    for (const obs::TraceEvent& e : tracer.snapshot())
      if (e.ev == kPass) out.emplace_back(e.t, e.id);
    return out;
  }
};

using Passes = std::vector<std::pair<double, std::uint32_t>>;

TEST(Replayer, EqualTimesRunControlThenDeadlineThenMessage) {
  Fixture f(10.0, {0.0});
  f.replayer.schedule_control(10.0, [&f] { f.note('c'); });
  f.replayer.schedule_control(3.0, [&f] { f.note('c'); });
  f.replay(20.0, {3.0, 10.0, 15.0});
  EXPECT_EQ(f.log, "cmcdmm");
  EXPECT_EQ(f.passes(), (Passes{{10.0, 0}}));
}

TEST(Replayer, TickDeferredToAnOutageEndInsideTheBatchFiresInOrder) {
  // Ticks at 6 and 8 (both dark), 12 and 14.
  Fixture f(6.0, {0.0, 2.0, 6.0, 8.0}, outage(5.0, 12.0));
  f.replay(20.0, {13.0});
  // Both dark ticks move to 12, ahead of id 2: id 1 lands between ids 0
  // and 2.
  EXPECT_EQ(f.log, "dddmd");
  EXPECT_EQ(f.passes(),
            (Passes{{12.0, 0}, {12.0, 1}, {12.0, 2}, {14.0, 3}}));
  EXPECT_EQ(f.faults.counters().deadline_deferrals, 2u);
  EXPECT_EQ(f.project.results_in_progress(), 0u);
}

TEST(Replayer, TickDeferredPastTheBatchEndIsRearmed) {
  Fixture f(8.0, {0.0}, outage(5.0, 30.0));
  f.replay(20.0, {});
  EXPECT_TRUE(f.passes().empty());
  EXPECT_EQ(f.faults.counters().deadline_deferrals, 1u);
  EXPECT_EQ(f.project.results_in_progress(), 1u);  // its tick is live
  f.replay(40.0, {});
  EXPECT_EQ(f.passes(), (Passes{{30.0, 0}}));
  EXPECT_EQ(f.faults.counters().deadline_deferrals, 1u);
}

TEST(Replayer, DeferredTickFiresOnceAtTheOutageEnd) {
  Fixture f(10.0, {0.0}, outage(5.0, 25.0));
  f.replay(20.0, {});
  f.replay(24.0, {});
  EXPECT_TRUE(f.passes().empty());
  f.replay(25.0, {});  // the outage end is due at a batch ending there
  EXPECT_EQ(f.passes(), (Passes{{25.0, 0}}));
  f.replay(1e9, {});
  EXPECT_EQ(f.passes(), (Passes{{25.0, 0}}));
  EXPECT_EQ(f.faults.counters().deadline_deferrals, 1u);
  EXPECT_EQ(f.project.counters().results_timed_out, 1u);
}

TEST(Replayer, ReportCannotStopATickPoppedAtOpen) {
  Fixture f(100.0, {0.0});
  const double deadline = f.project.result_deadline(0);
  f.replayer.open(deadline + 3600.0);
  f.replayer.fire_until(deadline - 1.0);
  f.project.report_result(0, deadline - 1.0, ResultReport{});
  f.replayer.fire_until(deadline + 3600.0);
  EXPECT_EQ(f.passes(), (Passes{{deadline, 0}}));  // ran, as a no-op pass
  EXPECT_EQ(f.project.counters().results_timed_out, 0u);
  EXPECT_EQ(f.project.results_in_progress(), 0u);
}

}  // namespace
}  // namespace hcmd::server
