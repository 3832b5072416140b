// Plain-text table/report helpers shared by benches and examples.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fault/interval.hpp"

namespace issrtl::fault {

/// Fixed-width text table with a markdown-ish rendering.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a row. Rows shorter than the header pad with empty cells; rows
  /// *wider* than the header throw std::invalid_argument (they used to be
  /// silently truncated, hiding caller bugs).
  void add_row(std::vector<std::string> cells);
  std::string render() const;

  /// Helpers for numeric cells. pct renders non-finite fractions (e.g. the
  /// NaN a 0-sample campaign yields) as "n/a".
  static std::string pct(double fraction, int decimals = 1);
  static std::string num(double v, int decimals = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& t);

/// A Pf with its interval, e.g. "8.3% [3.6%, 18.1%]" (one decimal).
std::string pf_with_ci(double pf, const PfInterval& ci);

struct ReplayCounters;

/// Print a campaign's replay-economics line to stdout ("replay: ladder …");
/// `instants` names the backend's time unit ("cycles", "instructions").
void print_replay(const ReplayCounters& rc, const char* instants);

/// Print the durability line to stdout, only when something happened: a
/// journal hit or drop, a retried site or an engine error.
void print_durability(const ReplayCounters& rc);

}  // namespace issrtl::fault
