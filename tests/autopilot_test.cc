// Tests for the Autopilot substrate: watchdogs and the repair service.
#include <gtest/gtest.h>

#include "autopilot/repair.h"
#include "autopilot/watchdog.h"

namespace pingmesh::autopilot {
namespace {

TEST(Watchdog, RunsAllChecksAndStamps) {
  WatchdogService ws;
  ws.register_check("always-ok", [](SimTime) {
    CheckResult r;
    r.health = Health::kOk;
    r.message = "fine";
    return r;
  });
  ws.register_check("always-bad", [](SimTime) {
    CheckResult r;
    r.health = Health::kError;
    r.message = "broken";
    return r;
  });
  const auto& results = ws.run_checks(seconds(42));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "always-ok");
  EXPECT_EQ(results[0].checked_at, seconds(42));
  EXPECT_FALSE(ws.all_healthy());
  EXPECT_EQ(ws.runs(), 1u);
}

TEST(Watchdog, ThresholdCheckHelper) {
  double value = 10.0;
  auto check = WatchdogService::threshold_check([&] { return value; }, 45.0, "MB");
  EXPECT_EQ(check(0).health, Health::kOk);
  value = 50.0;
  EXPECT_EQ(check(0).health, Health::kError);
}

TEST(Repair, ExecutesReloadAndAppliesEffect) {
  std::vector<std::uint32_t> reloaded;
  RepairService rs(RepairConfig{}, [&](SwitchId sw) { reloaded.push_back(sw.value); },
                   nullptr);
  EXPECT_TRUE(rs.request_reload(SwitchId{7}, "blackhole", hours(1)));
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded[0], 7u);
  ASSERT_EQ(rs.history().size(), 1u);
  EXPECT_TRUE(rs.history()[0].executed);
  EXPECT_EQ(rs.history()[0].reason, "blackhole");
}

TEST(Repair, DailyBudgetEnforced) {
  // "we limit the algorithm to reload at most 20 switches per day"
  int applied = 0;
  RepairService rs(RepairConfig{.max_reloads_per_day = 20},
                   [&](SwitchId) { ++applied; }, nullptr);
  int executed = 0;
  for (std::uint32_t i = 0; i < 30; ++i) {
    if (rs.request_reload(SwitchId{i}, "bh", hours(1))) ++executed;
  }
  EXPECT_EQ(executed, 20);
  EXPECT_EQ(applied, 20);
  EXPECT_EQ(rs.reloads_remaining_today(hours(1)), 0);
  EXPECT_EQ(rs.history().size(), 30u);  // deferred requests are recorded
}

TEST(Repair, BudgetResetsNextDay) {
  RepairService rs(RepairConfig{.max_reloads_per_day = 2}, nullptr, nullptr);
  EXPECT_TRUE(rs.request_reload(SwitchId{1}, "bh", hours(1)));
  EXPECT_TRUE(rs.request_reload(SwitchId{2}, "bh", hours(2)));
  EXPECT_FALSE(rs.request_reload(SwitchId{3}, "bh", hours(3)));
  // Next day.
  EXPECT_TRUE(rs.request_reload(SwitchId{3}, "bh", days(1) + hours(1)));
  EXPECT_EQ(rs.reloads_remaining_today(days(1) + hours(1)), 1);
}

TEST(Repair, DeferredReloadQueuedAndExecutedOnRollover) {
  // A budget-refused reload is parked, not dropped: retry_deferred is a
  // no-op while the day's budget is spent, then executes the queue oldest-
  // first the moment the day rolls over (day_of uses the configured
  // day_length, so a soak can shrink the day to cross the boundary mid-run).
  std::vector<std::uint32_t> reloaded;
  RepairService rs(RepairConfig{.max_reloads_per_day = 1, .day_length = minutes(10)},
                   [&](SwitchId sw) { reloaded.push_back(sw.value); }, nullptr);
  EXPECT_TRUE(rs.request_reload(SwitchId{1}, "bh A", minutes(1)));
  EXPECT_FALSE(rs.request_reload(SwitchId{2}, "bh B", minutes(2)));
  ASSERT_EQ(rs.deferred().size(), 1u);
  EXPECT_EQ(rs.deferred()[0].sw, SwitchId{2});
  // Still day 0: nothing executes.
  EXPECT_TRUE(rs.retry_deferred(minutes(5)).empty());
  EXPECT_EQ(rs.deferred().size(), 1u);
  // Day 1: the parked reload executes and leaves the queue.
  auto executed = rs.retry_deferred(minutes(11));
  ASSERT_EQ(executed.size(), 1u);
  EXPECT_EQ(executed[0], SwitchId{2});
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded[1], 2u);
  EXPECT_TRUE(rs.deferred().empty());
  EXPECT_EQ(rs.deferred_executed_total(), 1u);
  // The execution is a second history record carrying the deferral age.
  const auto& last = rs.history().back();
  EXPECT_TRUE(last.executed);
  EXPECT_NE(last.reason.find("deferred since"), std::string::npos);
}

TEST(Repair, RmaIsolatesImmediatelyAndUnbudgeted) {
  std::vector<std::uint32_t> isolated;
  RepairService rs(RepairConfig{.max_reloads_per_day = 0}, nullptr,
                   [&](SwitchId sw) { isolated.push_back(sw.value); });
  rs.isolate_and_rma(SwitchId{5}, "silent random drops", hours(1));
  ASSERT_EQ(isolated.size(), 1u);
  ASSERT_EQ(rs.rma_queue().size(), 1u);
  EXPECT_EQ(rs.rma_queue()[0], SwitchId{5});
}

}  // namespace
}  // namespace pingmesh::autopilot
