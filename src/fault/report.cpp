#include "fault/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fault/campaign.hpp"

namespace issrtl::fault {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() > header_.size()) {
    // Historically the extra cells were silently truncated, which turned a
    // caller's mismatched header/row into a report that *looked* complete.
    throw std::invalid_argument(
        "TextTable::add_row: row has " + std::to_string(cells.size()) +
        " cells but the header has " + std::to_string(header_.size()));
  }
  cells.resize(header_.size());  // short rows pad with empty cells
  rows_.push_back(std::move(cells));
}

std::string TextTable::pct(double fraction, int decimals) {
  if (!std::isfinite(fraction)) {
    // 0-sample campaigns produce NaN fractions (0/0); "nan%" in a report
    // reads like a formatting bug rather than an empty population.
    return "n/a";
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << fraction * 100.0 << "%";
  return os.str();
}

std::string TextTable::num(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << " " << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  emit_row(header_);
  os << "|";
  for (const std::size_t w : widths) os << std::string(w + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

std::string pf_with_ci(double pf, const PfInterval& ci) {
  return TextTable::pct(pf) + " [" + TextTable::pct(ci.lo) + ", " +
         TextTable::pct(ci.hi) + "]";
}

void print_replay(const ReplayCounters& rc, const char* instants) {
  std::printf("replay: ladder %llu rungs (%.1f KiB, %llu evicted), restores "
              "%llu ladder / %llu rolling / %llu cold, fast-forward %llu "
              "%s, %llu convergence cutoffs (%llu shifted), activation "
              "oracle %llu "
              "candidates / %llu silent (%llu port-read) / %llu latent / "
              "%llu scan %s\n",
              (unsigned long long)rc.ladder_rungs,
              rc.ladder_bytes / 1024.0,
              (unsigned long long)rc.ladder_evicted,
              (unsigned long long)rc.ladder_restores,
              (unsigned long long)rc.rolling_restores,
              (unsigned long long)rc.cold_resets,
              (unsigned long long)rc.fast_forward_cycles, instants,
              (unsigned long long)rc.convergence_cutoffs,
              (unsigned long long)rc.shifted_cutoffs,
              (unsigned long long)rc.activation_candidates,
              (unsigned long long)rc.activation_silent,
              (unsigned long long)rc.activation_port_read,
              (unsigned long long)rc.activation_latent,
              (unsigned long long)rc.activation_scan_cycles, instants);
}

void print_durability(const ReplayCounters& rc) {
  if (rc.journal_hits == 0 && rc.journal_dropped == 0 &&
      rc.sites_retried == 0 && rc.sites_engine_error == 0) {
    return;
  }
  std::printf("durability: %llu journal hits (%llu dropped), "
              "%llu sites retried, %llu engine errors\n",
              (unsigned long long)rc.journal_hits,
              (unsigned long long)rc.journal_dropped,
              (unsigned long long)rc.sites_retried,
              (unsigned long long)rc.sites_engine_error);
}

}  // namespace issrtl::fault
