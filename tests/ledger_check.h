// Test helpers for subsystem ledgers (stats::Ledger): a value struct read
// from a subsystem's cells must agree with the registry those cells live
// in, row by row of the subsystem's ledger table.
#ifndef LDPLAYER_TESTS_LEDGER_CHECK_H
#define LDPLAYER_TESTS_LEDGER_CHECK_H

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stats/metrics.h"

namespace ldp::ledger_check {

// Every row of `kRows` is registered in `snapshot`, and `view` reads the
// same value as the snapshot's sum of that row's cells.
template <const auto& kRows, typename View>
void ExpectViewMatchesSnapshot(const View& view,
                               const stats::MetricsSnapshot& snapshot) {
  auto named = [](const std::string& name) {
    return [&name](const auto& cell) { return cell.first == name; };
  };
  for (const auto& row : kRows) {
    const std::string name = row.name;
    if (row.level) {
      EXPECT_TRUE(std::any_of(snapshot.gauges.begin(), snapshot.gauges.end(),
                              named(name)))
          << name << " is not registered";
      EXPECT_EQ(view.*row.field,
                static_cast<uint64_t>(snapshot.GaugeValue(name)))
          << name;
    } else {
      EXPECT_TRUE(std::any_of(snapshot.counters.begin(),
                              snapshot.counters.end(), named(name)))
          << name << " is not registered";
      EXPECT_EQ(view.*row.field, snapshot.CounterValue(name)) << name;
    }
  }
}

// Field-by-field sum of `parts` over the rows of `kRows`.
template <const auto& kRows, typename View>
View SumOverLedger(const std::vector<View>& parts) {
  View sum;
  for (const View& part : parts) {
    for (const auto& row : kRows) sum.*row.field += part.*row.field;
  }
  return sum;
}

// Every row of `kRows` reads the same in `a` and `b`.
template <const auto& kRows, typename View>
void ExpectLedgerFieldsEqual(const View& a, const View& b) {
  for (const auto& row : kRows) {
    EXPECT_EQ(a.*row.field, b.*row.field) << row.name;
  }
}

}  // namespace ldp::ledger_check

#endif  // LDPLAYER_TESTS_LEDGER_CHECK_H
